"""Geometry kernel tests.

The oracle for everything in this file is a brute-force pure-Python scan over
all pairs, written independently of the numpy implementations.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asgd.vecmath import (
    approach_extreme,
    as_point_set,
    batched_approach_extreme,
    batched_mid_extremes,
    diameter_sq,
    extreme_pair,
    farthest_index,
    mid_extremes,
)


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


def test_diameter_sq_known_value():
    assert diameter_sq([[0.0, 0.0], [3.0, 4.0]]) == 25.0


def test_diameter_sq_singleton_is_zero():
    assert diameter_sq([[7.0, -2.0, 1.0]]) == 0.0


def test_mid_extremes_known_value():
    out = mid_extremes([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    assert out.tolist() == [1.0, 0.0]


def test_mid_extremes_singleton_maps_to_itself():
    out = mid_extremes([[0.5, -1.5]])
    assert out.tolist() == [0.5, -1.5]


def test_approach_extreme_known_value():
    out = approach_extreme([[1.0, 0.0], [4.0, 0.0]], [0.0, 0.0])
    assert out.tolist() == [2.0, 0.0]


def test_approach_extreme_dimension_mismatch():
    with pytest.raises(ValueError):
        approach_extreme([[1.0, 0.0]], [0.0, 0.0, 0.0])


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        diameter_sq(np.zeros((0, 3)))


def test_tie_break_is_first_lexicographic_pair():
    # Four corners of a square: both diagonals have the same length, so the
    # winning pair must be (0, 2) rather than (1, 3).
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    assert extreme_pair(as_point_set(square)) == (0, 2)
    assert mid_extremes(square).tolist() == [0.5, 0.5]


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
    mid = mid_extremes(pts)
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
        gap = mid_extremes(a) - mid_extremes(b)
        assert float(gap @ gap) <= (7.0 / 8.0) * diameter_sq(union) + 1e-12


def test_anchored_contraction_with_shared_point_smoke():
    rng = np.random.default_rng(456)
    for _ in range(300):
        d = int(rng.integers(1, 9))
        a, b, _ = shared_point_sets(rng, d)
        ya = a[int(rng.integers(len(a)))]
        yb = b[int(rng.integers(len(b)))]
        union = np.vstack([a, b])
        gap = approach_extreme(a, ya) - approach_extreme(b, yb)
        assert float(gap @ gap) <= (31.0 / 32.0) * diameter_sq(union) + 1e-12


def test_batched_mid_extremes_matches_scalar_bitwise():
    rng = np.random.default_rng(99)
    pts = rng.normal(size=(40, 5, 3))
    out = batched_mid_extremes(pts)
    for s in range(pts.shape[0]):
        assert out[s].tobytes() == mid_extremes(pts[s]).tobytes()


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
            out = batched_mid_extremes(pts)
            for s in range(pts.shape[0]):
                assert out[s].tobytes() == mid_extremes(pts[s]).tobytes(), (k, d, s)


def test_batched_approach_extreme_matches_scalar_bitwise():
    rng = np.random.default_rng(100)
    pts = rng.normal(size=(40, 4, 2))
    anchors = rng.normal(size=(40, 2))
    out = batched_approach_extreme(pts, anchors)
    for s in range(pts.shape[0]):
        assert out[s].tobytes() == approach_extreme(pts[s], anchors[s]).tobytes()


def test_batched_mid_extremes_singleton():
    pts = np.array([[[1.0, 2.0]], [[3.0, 4.0]]])
    out = batched_mid_extremes(pts)
    assert out.tolist() == [[1.0, 2.0], [3.0, 4.0]]
