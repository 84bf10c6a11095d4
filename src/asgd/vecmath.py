"""Geometry kernels for the agreement protocols.

Everything here operates on float64 vectors, point-major over any leading
axes (..., k, d) but for the batched kernels below, and uses exact float
comparison. There is one squared distance, the sum of squared coordinate
differences, and one scan over pairs of a k-point set, the pair list

    [(0, 0)] + [(i, j) for i < j]        (row-major)

Every diameter, extreme pair and farthest point in the package comes from
these two, so the event kernel, the batch driver, the harness statistics and
the checks agree bitwise on which pair is extreme and on its distance.

For d <= 2 the distance squares the differences in place and adds the
coordinates elementwise, x0*x0 + x1*x1: one rounded addition, as in einsum,
so the bits are einsum's at a fraction of its per-call cost. From d = 3 on
einsum stays, since its SIMD lanes add in another order than left to right.

The batch driver's kernels, batched_mid_extremes and batched_approach_extreme,
take S sets coordinate-major, (d, k, S), so each step runs over rows of S.
They scan the same pairs along the point axis and take the first maximum
by argmax along the pair axis. There _sq adds coordinate rows for d <= 2;
from d = 3 on it moves the coordinates last and contiguous for the same
einsum call, since einsum over a leading axis adds in another order. The
batch driver's diameter series, diameter_sq with axis=0, visits the same
pairs in shift order; a maximum needs no order but for a NaN's sign bit,
which it takes from the scan.

Ties break to the first maximum in list order. That is what a row-major
argmax over the full (k, k) distance matrix returns, with the same pair:

- the matrix is symmetric (a - b and b - a differ only in sign), so its first
  maximum is never below the diagonal: the mirror image comes first;
- a diagonal entry (i, i) is +0 for a finite point, so it can be the first
  maximum only when every distance is zero, and then (0, 0) is first in
  both;
- a NaN coordinate in point i makes (0, i) NaN, which comes before (i, i);
  (0, 0) itself is computed, so a NaN in point 0 selects it.

The one case where the two differ is an infinite coordinate: inf - inf makes
the diagonal entry (i, i) NaN while (0, i) is only inf, so the full matrix
picked (i, i) and the scan picks (0, i). A run whose values stay finite never
meets it.

One- and two-point sets, the event kernel's common case, are answered by
its aggregation step (``maa._aggregate``) without the scan, with the scan's
pair. One point lists only (0, 0). Two points list (0, 0) and (0, 1), and
``picks_both`` is the one rule for them, applied to the payload vectors
directly. The scan picks (0, 1) exactly when s00 is not NaN and s01 is
either NaN or above s00:

- s00 is NaN when point 0 has a NaN or infinite coordinate (x - x), and +0
  otherwise, so a non-finite point 0 gives (0, 0);
- with s00 = +0, s01 is a sum of rounded squares of diff = p1 - p0
  (negating the difference leaves each square as it is), each +0, positive
  or NaN, and it is NaN, +0 or positive. Once a partial sum is positive or
  NaN it stays so, since every addend is; while it is +0, adding a square
  (or fusing its product, as an FMA does) gives exactly that square rounded.
  So whatever order or grouping the sum takes, s01 is +0, and the scan
  picks (0, 0), exactly when every rounded square diff * diff is 0: equal
  points, signed zeros, and differences whose squares underflow.

The two-point test runs on Python floats, which are the same IEEE doubles
with the same rounding (a NaN square is true to ``any``, as it should be),
because numpy's per-call cost is most of the time on sets this small.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np


def as_point_set(points) -> np.ndarray:
    """Coerce a sequence of vectors into a (count, dim) float64 array, whose
    row order breaks ties.

    Raises ValueError on an empty set, a single vector or mixed dimensions.
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError(f"expected a nonempty (count, dim) point set, got shape {arr.shape}")
    return arr


def _sq(a: np.ndarray, b: np.ndarray, axis: int = -1) -> np.ndarray:
    """Squared distance between a and b, summed over the coordinate axis:
    the last (point-major) or, with axis=0, the first (coordinate-major)."""
    diff = a - b
    if diff.shape[axis] not in (1, 2):
        if axis == 0:  # einsum's bits need the coordinates last and contiguous
            diff = np.ascontiguousarray(diff.transpose(*range(1, diff.ndim), 0))
        return np.einsum("...d,...d->...", diff, diff)
    diff *= diff
    first, last = (0, -1) if axis == 0 else ((..., 0), (..., -1))
    return diff[first] + diff[last] if diff.shape[axis] == 2 else diff[first]


@functools.lru_cache(maxsize=32)
def pair_list(count: int) -> tuple[np.ndarray, np.ndarray]:
    """First and second indices of [(0, 0)] + [(i, j) for i < j], row-major."""
    if count < 1:
        raise ValueError("expected a nonempty point set")
    first, second = (np.r_[0, idx] for idx in np.triu_indices(count, k=1))
    first.flags.writeable = second.flags.writeable = False  # shared by every call
    return first, second


def _scan(points: np.ndarray, axis: int = -1):
    """The listed pairs' operands a, b and their distances: (..., P, d) and
    (..., P) point-major, or with axis=0 (d, P, ...) and (P, ...)."""
    at = axis - 1 if axis < 0 else axis + 1  # the point axis
    first, second = pair_list(points.shape[at])
    a = points.take(first, axis=at)
    b = points.take(second, axis=at)
    return a, b, _sq(a, b, axis)


def pair_sq(points: np.ndarray) -> np.ndarray:
    """Squared distance of every listed pair; (..., k, d) -> (..., P)."""
    return _scan(points)[2]


def diameter_sq(points: np.ndarray, axis: int = -1) -> np.ndarray:
    """Largest pairwise squared distance per set; (..., k, d) -> (...), or
    with axis=0 coordinate-major (d, k, ...) -> (...).

    The coordinate-major form takes the scan's pairs in another order,
    (0, 0) and then each point with the one `shift` places later, so it
    builds none of the scan's (P, ...) operands. Every distance is +0,
    positive or NaN, and a NaN wins in any order, so the maximum is the
    scan's. Only a NaN's sign bit follows the order (numpy's SIMD max
    returns its own NaN), so the sets whose diameter is NaN take the scan's.
    """
    if axis != 0:
        return _scan(points)[2].max(axis=-1)
    diam = _sq(points[:, 0], points[:, 0], axis=0)
    for shift in range(1, points.shape[1]):
        np.maximum(diam, _sq(points[:, shift:], points[:, :-shift], axis=0).max(axis=0),
                   out=diam)
    nan = np.isnan(diam)
    if nan.any():
        diam[nan] = diameter_sq(points[..., nan].T)
    return diam


def picks_both(p0: list, p1: list) -> bool:
    """Whether the scan of the two-point set [p0, p1], given as lists of
    Python floats, picks (0, 1) rather than (0, 0) (module docstring)."""
    return all(map(math.isfinite, p0)) and any([d * d for d in map(operator.sub, p1, p0)])


def extreme_pair(points: np.ndarray) -> tuple[int, int]:
    """Indices (i, j) of the set's first maximum in the pair list; a
    singleton or all-equal set returns (0, 0)."""
    first, second = pair_list(points.shape[0])
    best = int(_scan(points)[2].argmax())
    return int(first[best]), int(second[best])


def farthest_index(points: np.ndarray, anchor: np.ndarray):
    """Index of each set's point farthest from its anchor, first maximum on
    ties; points (..., k, d), anchor (..., d) -> (...)."""
    if anchor.shape[-1:] != points.shape[-1:]:
        raise ValueError(f"anchor dimension {anchor.shape[-1:]} does not match "
                         f"point set dimension {points.shape[-1:]}")
    return _sq(points, anchor[..., None, :]).argmax(axis=-1)


def batched_mid_extremes(points: np.ndarray) -> np.ndarray:
    """Midpoint of each set's extreme pair; coordinate-major (d, k, S) -> (d, S)."""
    d, _, s = points.shape
    a, b, d2 = _scan(points, axis=0)
    # column of each set's first maximum in the (d, pairs * S) views
    best = d2.argmax(axis=0) * s
    best += np.arange(s)
    mid = a.reshape(d, -1).take(best, axis=1) + b.reshape(d, -1).take(best, axis=1)
    return np.divide(mid, 2.0, out=mid)


def batched_approach_extreme(points: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Midpoint of each anchor and its set's farthest point from it;
    coordinate-major points (d, k, S), anchors (d, a, S) -> (d, a, S)."""
    d, _, s = points.shape
    if anchors.shape[0] != d:
        raise ValueError(f"anchor dimension {anchors.shape[0]} does not match "
                         f"point set dimension {d}")
    # column of each anchor's farthest point in the (d, k * S) view
    far = _sq(points[:, None], anchors[:, :, None], axis=0).argmax(axis=1) * s
    far += np.arange(s)
    return (anchors + points.reshape(d, -1).take(far, axis=1)) / 2.0
