"""Geometry kernel tests.

Two oracles: a brute-force pure-Python scan over all pairs, written
independently of the numpy implementations, and a copy of the scalar full
(k, k) distance-matrix code the pair-list scan replaced, which every
diameter, extreme pair and farthest point must match bitwise.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asgd import harness
from asgd.maa import AggregationRule
from asgd.vecmath import (
    as_point_set,
    batched_approach_extreme,
    batched_mid_extremes,
    diameter_sq,
    extreme_pair,
    _sq,
    farthest_index,
    pair_list,
    pair_sq,
)


def coordinate_major(points):
    """Point-major sets (S, k, d) in the batched kernels' layout (d, k, S),
    contiguous as the batch driver holds them."""
    return np.ascontiguousarray(points.transpose(2, 1, 0))


def mid_extremes(points):
    """batched_mid_extremes of point-major sets; (S, k, d) -> (S, d)."""
    return batched_mid_extremes(coordinate_major(points)).T


def approach_extreme(points, anchors):
    """batched_approach_extreme of point-major sets and anchors (S, a, d)."""
    out = batched_approach_extreme(coordinate_major(points), coordinate_major(anchors))
    return out.transpose(2, 1, 0)


def brute_force_extreme_pair(rows):
    """Independent oracle: scan all (i, j) in lexicographic order."""
    best = (0, 0)
    best_d2 = -1.0
    for i in range(len(rows)):
        for j in range(len(rows)):
            d2 = sum((a - b) ** 2 for a, b in zip(rows[i], rows[j]))
            if d2 > best_d2:
                best_d2 = d2
                best = (i, j)
    return best, best_d2


# ---------------------------------------------------------------------------
# The scalar full-matrix functions the pair-list scan replaced, kept as the
# reference ("scalar" in a test name means these)
# ---------------------------------------------------------------------------


def full_matrix(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def full_extreme_pair(points):
    d2 = full_matrix(points)
    return divmod(int(np.argmax(d2)), d2.shape[0])


def full_mid_extremes(points):
    i, j = full_extreme_pair(points)
    return (points[i] + points[j]) / 2.0


def full_farthest_index(points, anchor):
    diff = points - anchor[None, :]
    return int(np.argmax(np.einsum("ij,ij->i", diff, diff)))


def full_approach_extreme(points, anchor):
    return (anchor + points[full_farthest_index(points, anchor)]) / 2.0


def full_pairwise_sq(finals):
    diffs = finals[:, :, None, :] - finals[:, None, :, :]
    return np.einsum("sijd,sijd->sij", diffs, diffs)


def full_internal_err(finals):
    d2 = full_pairwise_sq(finals)
    n = finals.shape[1]
    if n < 2:
        return harness.Estimate(mean=0.0, stderr=0.0, count=finals.shape[0]), (0, 0)
    i, j = divmod(int(np.argmax(d2.mean(axis=0))), n)
    return harness.estimate(d2[:, i, j]), (i, j)


def full_cross_err(finals, side_a, side_b):
    d2 = full_pairwise_sq(finals)
    best = None
    for i in side_a:
        for j in side_b:
            cand = d2[:, i, j]
            if best is None or cand.mean() > best.mean():
                best = cand
    return harness.estimate(best)


def full_diameter_sq(points):
    return full_pairwise_sq(points[None]).max()


# rows of tie_heavy_sets holding each kind of set
KINDS = {"grid": slice(0, 40), "duplicates": slice(40, 80), "equal": slice(80, 110),
         "signed_zeros": slice(110, 150), "nan": slice(150, 180), "floats": slice(180, 240)}


def tie_heavy_sets(rng, k, d, count=240):
    """(count, k, d) sets, by KINDS: integer grids, where equal distances
    are common, the same with duplicate rows, all-equal sets, signed zeros,
    a NaN coordinate, and wide-range floats."""
    pts = rng.integers(-2, 3, size=(count, k, d)).astype(np.float64)
    pts[40:80, -1] = pts[40:80, 0]
    pts[80:110] = pts[80:110, :1]
    # all distances zero, but the chosen pair shows in the zero's sign
    pts[110:150] = np.where(rng.random((40, k, d)) < 0.5, -0.0, 0.0)
    pts[150 + np.arange(30), rng.integers(k, size=30), rng.integers(d, size=30)] = np.nan
    pts[180:] = rng.normal(size=(count - 180, k, d)) * np.exp(
        rng.uniform(-20, 20, (count - 180, 1, 1)))
    return pts


SHAPES = [(k, d) for k in range(1, 7) for d in (1, 2, 3, 5)]


def test_diameter_sq_known_value():
    assert diameter_sq(as_point_set([[0.0, 0.0], [3.0, 4.0]])) == 25.0


def test_diameter_sq_singleton_is_zero():
    assert diameter_sq(as_point_set([[7.0, -2.0, 1.0]])) == 0.0


def test_mid_extremes_known_value():
    # one set of the points (0, 0), (2, 0), (1, 1), coordinate-major
    out = batched_mid_extremes(np.array([[[0.0], [2.0], [1.0]], [[0.0], [0.0], [1.0]]]))
    assert out.tolist() == [[1.0], [0.0]]


def test_mid_extremes_singleton_maps_to_itself():
    assert batched_mid_extremes(np.array([[[0.5]], [[-1.5]]])).tolist() == [[0.5], [-1.5]]


def test_approach_extreme_known_value():
    # the set (1, 0), (4, 0) and the anchor (0, 0)
    out = batched_approach_extreme(np.array([[[1.0], [4.0]], [[0.0], [0.0]]]), np.zeros((2, 1, 1)))
    assert out.tolist() == [[[2.0]], [[0.0]]]


def test_batched_kernels_take_coordinate_major_sets():
    # two sets of three 2-d points, (S, k, d); the kernels read (d, k, S)
    pts = np.array([[[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]],
                    [[5.0, 1.0], [5.0, 3.0], [4.0, 2.0]]])
    assert batched_mid_extremes(pts.transpose(2, 1, 0)).tolist() == [[1.0, 5.0], [0.0, 2.0]]
    anchors = np.array([[[0.0, 0.0]], [[5.0, 0.0]]]).transpose(2, 1, 0)
    assert batched_approach_extreme(pts.transpose(2, 1, 0), anchors).tolist() == [
        [[1.0, 5.0]], [[0.0, 1.5]]]


def test_approach_extreme_dimension_mismatch():
    pts = as_point_set([[1.0, 0.0]])
    for anchor in (np.zeros(3), np.zeros(1)):  # the second would broadcast
        with pytest.raises(ValueError):
            farthest_index(pts, anchor)
        with pytest.raises(ValueError):
            batched_approach_extreme(pts.T[:, :, None], anchor[:, None, None])


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        diameter_sq(np.zeros((0, 3)))
    for points in (np.zeros((0, 3)), [1.0, 2.0]):  # a single vector is not a set
        with pytest.raises(ValueError):
            as_point_set(points)


def test_pair_list_is_row_major_after_the_zero_pair():
    first, second = pair_list(4)
    assert list(zip(first.tolist(), second.tolist())) == [
        (0, 0), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert pair_list(1)[0].tolist() == [0] and pair_list(1)[1].tolist() == [0]


def test_tie_break_is_first_lexicographic_pair():
    # Four corners of a square: both diagonals have the same length, so the
    # winning pair must be (0, 2) rather than (1, 3).
    square = as_point_set([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert extreme_pair(square) == (0, 2)
    assert mid_extremes(square[None]).tolist() == [[0.5, 0.5]]


def test_farthest_index_tie_break_first():
    pts = as_point_set([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    # Points 0 and 1 are both at distance 1 from the origin; first wins.
    assert farthest_index(pts, np.zeros(2)) == 0


def test_extreme_pair_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(1, 12))
        d = int(rng.integers(1, 6))
        pts = rng.normal(size=(k, d))
        got = extreme_pair(pts)
        want, want_d2 = brute_force_extreme_pair(pts.tolist())
        assert got == want
        assert math.isclose(diameter_sq(pts), want_d2, rel_tol=1e-12, abs_tol=1e-300)


@pytest.mark.parametrize("k,d", SHAPES)
def test_scan_matches_full_matrix_bitwise(k, d):
    rng = np.random.default_rng(100 * k + d)
    pts = tie_heavy_sets(rng, k, d)
    anchors = tie_heavy_sets(rng, 1, d)[:, 0]
    mids = mid_extremes(pts)
    approach = approach_extreme(pts, anchors[:, None])[:, 0]
    diam = diameter_sq(pts)
    far = farthest_index(pts, anchors)
    for s in range(pts.shape[0]):
        assert extreme_pair(pts[s]) == full_extreme_pair(pts[s]), s
        assert mids[s].tobytes() == full_mid_extremes(pts[s]).tobytes(), s
        assert diam[s].tobytes() == full_matrix(pts[s]).max().tobytes(), s
        assert far[s] == full_farthest_index(pts[s], anchors[s]), s
        assert approach[s].tobytes() == full_approach_extreme(pts[s], anchors[s]).tobytes(), s


def test_infinite_coordinate_is_where_the_scan_and_matrix_differ():
    # inf - inf makes the matrix's (1, 1) NaN, its first maximum; the scan
    # has no (1, 1) and picks the infinite distance (0, 1)
    pts = as_point_set([[0.0, 0.0], [np.inf, 5.0]])
    with np.errstate(invalid="ignore"):
        assert full_extreme_pair(pts) == (1, 1)
    assert extreme_pair(pts) == (0, 1)


def scan_extreme_pair(points):
    """Copy of the pair-list scan that extreme_pair runs on every point set."""
    first, second = pair_list(points.shape[0])
    diff = points[first] - points[second]
    best = int(np.einsum("pd,pd->p", diff, diff).argmax())
    return int(first[best]), int(second[best])


# coordinates for one- and two-point sets: signed zeros, a subnormal, values
# whose differences square to a subnormal, to 0 or to inf, NaN and +-inf
EDGE_VALUES = [0.0, -0.0, 1.0, -1.5, 5e-324, 1e-170, 3e-170, 1e-160, 1e300,
               -1e300, math.nan, math.inf, -math.inf]


def _two_point_sets(rng, d, count):
    if d == 1:
        return [as_point_set([[a], [b]]) for a in EDGE_VALUES for b in EDGE_VALUES]
    idx = rng.integers(len(EDGE_VALUES), size=(count, 2, d))
    sets = np.array(EDGE_VALUES)[idx]
    sets[: count // 4, 1] = sets[: count // 4, 0]  # equal points
    return list(sets)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_extreme_pair_on_two_points_is_the_scans_pair(d):
    rng = np.random.default_rng(d)
    with np.errstate(invalid="ignore", over="ignore"):
        for pts in _two_point_sets(rng, d, 600):
            assert extreme_pair(pts) == scan_extreme_pair(pts), pts.tolist()
            assert extreme_pair(pts[:1]) == scan_extreme_pair(pts[:1]) == (0, 0)


@pytest.mark.parametrize("p0,p1,pair", [
    ([1.0, -2.0], [1.0, -2.0], (0, 0)),            # equal points
    ([0.0, -0.0], [-0.0, 0.0], (0, 0)),            # signed zeros
    ([1e-170, 0.0], [3e-170, 0.0], (0, 0)),        # the square underflows to 0
    ([5e-324, 0.0], [0.0, 0.0], (0, 0)),
    ([1e-160, 0.0], [0.0, 0.0], (0, 1)),           # a subnormal square
    ([1e300, 0.0], [-1e300, 0.0], (0, 1)),         # the square overflows
    ([math.nan, 0.0], [1.0, 0.0], (0, 0)),         # NaN in point 0: s00 is NaN
    ([0.0, math.inf], [0.0, math.inf], (0, 0)),    # inf - inf in s00
    ([0.0, -math.inf], [0.0, 5.0], (0, 0)),
    ([0.0, 0.0], [math.nan, 0.0], (0, 1)),         # NaN in point 1: s01 is NaN
    ([0.0, 0.0], [0.0, math.inf], (0, 1)),
    ([0.0, 0.0], [-math.inf, 0.0], (0, 1)),
])
def test_extreme_pair_two_point_cases(p0, p1, pair):
    pts = as_point_set([p0, p1])
    with np.errstate(invalid="ignore", over="ignore"):
        assert scan_extreme_pair(pts) == pair
        assert extreme_pair(pts) == pair


@pytest.mark.parametrize("points", [[[1.0, 2.0], [3.0]], [[1.0], [2.0, 3.0]],
                                    [[1.0, 2.0], [3.0, 4.0, 5.0]]])
def test_two_points_of_mixed_dimension_raise(points):
    with pytest.raises(ValueError):
        extreme_pair(as_point_set(points))


@pytest.mark.parametrize("k,d", SHAPES)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_harness_statistics_match_full_matrix_bitwise(k, d, kind):
    rng = np.random.default_rng(10 * k + d)
    finals = tie_heavy_sets(rng, k, d)[KINDS[kind]]
    if not (k == 1 and kind == "nan"):  # the old n = 1 branch skipped the NaN
        assert repr(harness.internal_err(finals)) == repr(full_internal_err(finals))
    assert pair_sq(finals).shape == (len(finals), len(pair_list(k)[0]))
    assert diameter_sq(finals[0]).tobytes() == full_diameter_sq(finals[0]).tobytes()
    if k >= 2:
        sides = (tuple(range(k // 2)), tuple(range(k // 2, k)))
        for side_a, side_b in (sides, sides[::-1]):
            assert (repr(harness.cross_err(finals, side_a, side_b))
                    == repr(full_cross_err(finals, side_a, side_b)))


def test_internal_err_single_process_nan_is_not_hidden():
    est, pair = harness.internal_err(np.full((3, 1, 2), np.nan))
    assert math.isnan(est.mean) and pair == (0, 0)


def test_contraction_report_matches_full_matrix_bitwise(monkeypatch):
    rng = np.random.default_rng(31)
    round_values = {}
    for scope in range(40):
        k, d = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        sets = tie_heavy_sets(rng, k, d)[rng.integers(240, size=4)]
        sets[1:] *= rng.choice([0.0, 0.5, 1.0, 2.0], size=(3, 1, 1))
        for r, values in enumerate(sets):
            kind = ("sm", "cmaa")[scope % 2]
            round_values.setdefault((kind, scope), {})[r] = dict(enumerate(values))
    trace = SimpleNamespace(round_values=round_values)
    new = [harness.contraction_report(trace, rule) for rule in AggregationRule]
    monkeypatch.setattr(harness.vecmath, "diameter_sq", full_diameter_sq)
    old = [harness.contraction_report(trace, rule) for rule in AggregationRule]
    assert repr(new) == repr(old)
    assert all(rep.rounds_measured and rep.rounds_skipped
               for reports in new for rep in reports.values())


@given(
    st.lists(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=2),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=200, deadline=None)
def test_mid_extremes_stays_in_bounding_box(rows):
    pts = as_point_set(rows)
    mid = mid_extremes(pts[None])[0]
    lo = pts.min(axis=0) - 1e-9
    hi = pts.max(axis=0) + 1e-9
    assert np.all(mid >= lo) and np.all(mid <= hi)


def shared_point_sets(rng, d, max_size=10):
    """Two random sets that share at least one common point."""
    common = rng.normal(size=d)
    a = rng.normal(size=(int(rng.integers(1, max_size)), d))
    b = rng.normal(size=(int(rng.integers(1, max_size)), d))
    a = np.vstack([a, common])
    b = np.vstack([common, b])
    rng.shuffle(a)
    return a, b, common


def test_midpoint_contraction_with_shared_point_smoke():
    # Randomized spot check of the 7/8 pairwise contraction; the acceptance
    # suite runs the full-scale version.
    rng = np.random.default_rng(123)
    for _ in range(300):
        d = int(rng.integers(1, 9))
        a, b, _ = shared_point_sets(rng, d)
        union = np.vstack([a, b])
        gap = mid_extremes(a[None])[0] - mid_extremes(b[None])[0]
        assert float(gap @ gap) <= (7.0 / 8.0) * diameter_sq(union) + 1e-12


def test_anchored_contraction_with_shared_point_smoke():
    rng = np.random.default_rng(456)
    for _ in range(300):
        d = int(rng.integers(1, 9))
        a, b, _ = shared_point_sets(rng, d)
        ya = a[int(rng.integers(len(a)))]
        yb = b[int(rng.integers(len(b)))]
        union = np.vstack([a, b])
        gap = (approach_extreme(a[None], ya[None, None])[0, 0]
               - approach_extreme(b[None], yb[None, None])[0, 0])
        assert float(gap @ gap) <= (31.0 / 32.0) * diameter_sq(union) + 1e-12


def test_batched_mid_extremes_matches_scalar_bitwise():
    rng = np.random.default_rng(99)
    pts = rng.normal(size=(40, 5, 3))
    out = mid_extremes(pts)
    for s in range(pts.shape[0]):
        assert out[s].tobytes() == full_mid_extremes(pts[s]).tobytes()


def test_batched_mid_extremes_matches_scalar_on_ties():
    # integer grids make equal distances and duplicate rows common, so the
    # first-maximum tie-break decides most sets
    rng = np.random.default_rng(7)
    for k in range(2, 7):
        for d in range(1, 4):
            pts = rng.integers(-2, 3, size=(300, k, d)).astype(np.float64)
            pts[:50, 1] = pts[:50, 0]  # duplicate rows
            pts[50:80] = pts[50:80, :1]  # every point identical
            # all distances zero, but the chosen pair shows in the zero's sign
            pts[80:120] = np.where(rng.random((40, k, d)) < 0.5, -0.0, 0.0)
            out = mid_extremes(pts)
            for s in range(pts.shape[0]):
                assert out[s].tobytes() == full_mid_extremes(pts[s]).tobytes(), (k, d, s)


def test_batched_approach_extreme_matches_scalar_bitwise():
    rng = np.random.default_rng(100)
    pts = rng.normal(size=(40, 4, 2))
    anchors = rng.normal(size=(40, 3, 2))
    out = approach_extreme(pts, anchors)
    assert out.shape == (40, 3, 2)
    for s in range(pts.shape[0]):
        for a in range(3):
            assert (out[s, a].tobytes()
                    == full_approach_extreme(pts[s], anchors[s, a]).tobytes())


def test_batched_approach_extreme_anchors_per_set_equal_the_repeated_sets():
    # the batch driver's round passes each cluster's held set once with its
    # members as anchors; the earlier form repeated the set once per member
    rng = np.random.default_rng(101)
    for k in range(1, 7):
        for d in (1, 2, 3, 5):
            for a in (1, 2, 3):
                pts = tie_heavy_sets(rng, k, d)
                s = pts.shape[0]
                anchors = tie_heavy_sets(rng, a, d)[rng.integers(240, size=s)]
                with np.errstate(invalid="ignore", over="ignore"):
                    got = approach_extreme(pts, anchors)
                    flat = anchors.reshape(s * a, d)
                    far = farthest_index(np.repeat(pts, a, axis=0), flat)
                    want = (flat + np.repeat(pts, a, axis=0)[np.arange(s * a), far]) / 2.0
                assert got.tobytes() == want.reshape(s, a, d).tobytes(), (k, d, a)


def test_batched_mid_extremes_singleton():
    pts = np.array([[[1.0, 2.0]], [[3.0, 4.0]]])
    out = mid_extremes(pts)
    assert out.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def _einsum_sq(a, b):
    """The einsum form of the squared distance, _sq's reference."""
    diff = a - b
    return np.einsum("...d,...d->...", diff, diff)


def _sq_operands(rng, d):
    """Row pairs (a, b) of shape (..., d): every pair of EDGE_VALUES rows
    (all of them for d <= 2), then random signs and magnitudes 1e-8..1e8."""
    grid = np.array(EDGE_VALUES)
    if d == 1:
        edge = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2, 1)
    elif d == 2:
        edge = np.stack(np.meshgrid(grid, grid, grid, grid), axis=-1).reshape(-1, 2, 2)
    else:
        edge = grid[rng.integers(len(grid), size=(5000, 2, d))]
    wide = rng.choice([-1.0, 1.0], size=(20000, 2, d)) * 10.0 ** rng.uniform(-8, 8, (20000, 2, d))
    return [(pts[:, 0], pts[:, 1]) for pts in (edge, wide)]


@pytest.mark.parametrize("d", [1, 2, 3, 9])
def test_sq_equals_einsum_bitwise_and_takes_einsum_only_from_three_coordinates(d, monkeypatch):
    # axis=0 takes the coordinates first; from d = 3 on it moves them last
    # for einsum, whose sum over a leading axis has other bits
    rng = np.random.default_rng(20 + d)
    operands = _sq_operands(rng, d)
    with np.errstate(invalid="ignore", over="ignore"):
        wants = [_einsum_sq(a, b) for a, b in operands]
        calls = []
        real = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *args: calls.append(1) or real(*args))
        for (a, b), want in zip(operands, wants):
            for axis in (-1, 0):
                if axis == 0:
                    a, b = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
                got = _sq(a, b, axis)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert len(calls) == (2 * len(operands) if d >= 3 else 0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sq_leaves_its_inputs_unchanged(d):
    rng = np.random.default_rng(30 + d)
    points = rng.normal(size=(4, 5, d))
    anchor = rng.normal(size=(4, 1, d))  # broadcast, as farthest_index passes it
    before = points.tobytes(), anchor.tobytes()
    _sq(points, anchor)
    _sq(points, points[:, ::-1])
    _sq(points.T, anchor.T, axis=0)
    assert (points.tobytes(), anchor.tobytes()) == before


def fancy_mid_extremes(points):
    """batched_mid_extremes with einsum distances and fancy-index gathers,
    the reference for its elementwise distances and take gathers."""
    s, _, d = points.shape
    first, second = pair_list(points.shape[1])
    a = points.take(first, axis=-2)
    b = points.take(second, axis=-2)
    d2 = _einsum_sq(a, b)
    pairs = d2.shape[1]
    best = d2.argmax(axis=1) + np.arange(0, s * pairs, pairs)
    return (a.reshape(-1, d)[best] + b.reshape(-1, d)[best]) / 2.0


@pytest.mark.parametrize("d", [1, 2, 3, 5, 9])
@pytest.mark.parametrize("k", range(1, 7))
def test_batched_mid_extremes_matches_the_fancy_index_einsum_form_bitwise(k, d):
    rng = np.random.default_rng(10 * k + d)
    pool = np.array(EDGE_VALUES + list(rng.normal(size=13)))
    pts = np.concatenate([tie_heavy_sets(rng, k, d), pool[rng.integers(len(pool), size=(400, k, d))]])
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = mid_extremes(pts), fancy_mid_extremes(pts)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
