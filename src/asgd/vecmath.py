"""Geometry kernels for the agreement protocols.

Everything here operates on float64 vectors and uses exact float comparison.
Ties between candidate pairs are broken by the smallest lexicographic index
pair in the stored point order, which is what a row-major argmax over the
pairwise distance matrix returns. Squared distances are always computed as
the sum over the last axis of squared coordinate differences; keeping one
expression shape everywhere means the scalar helpers and the batched driver
agree bitwise on which pair is extreme.

The batched midpoint-of-extremes kernel scans the pair list
[(0, 0)] + [(i, j) for i < j] in row-major order instead of the full
distance matrix. The matrix is symmetric, so the first maximum among the
upper-triangle pairs in row-major order is the matrix's first maximum; listing
(0, 0) first keeps the matrix's answer when every distance is zero (all points
equal), and its own distance is computed, so a NaN in point 0 still selects it.
"""

from __future__ import annotations

import functools

import numpy as np

# A Vector is a 1-d float64 ndarray; a PointSet is a 2-d (count, dim) float64
# ndarray whose row order is semantically meaningful (tie-breaking).
Vector = np.ndarray
PointSet = np.ndarray


def as_point_set(points) -> PointSet:
    """Coerce a sequence of vectors into a (count, dim) float64 array.

    Raises ValueError on an empty set or on mixed dimensions.
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError(f"expected a nonempty (count, dim) point set, got shape {arr.shape}")
    return arr


def squared_distance_matrix(points: PointSet) -> np.ndarray:
    """All pairwise squared distances, shape (count, count)."""
    diff = points[:, None, :] - points[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def diameter_sq(points) -> float:
    """Largest pairwise squared distance in the set (0.0 for a singleton)."""
    pts = as_point_set(points)
    return float(squared_distance_matrix(pts).max())


def extreme_pair(points: PointSet) -> tuple[int, int]:
    """Indices (i, j) of the pair realizing the diameter.

    First maximum in row-major order, so the smallest lexicographic (i, j)
    wins ties; a singleton set returns (0, 0).
    """
    d2 = squared_distance_matrix(points)
    flat = int(np.argmax(d2))
    return divmod(flat, d2.shape[0])


def mid_extremes(points) -> Vector:
    """Midpoint of the pair of points at maximum distance.

    A singleton set maps to its own element (the (0, 0) "pair").
    """
    pts = as_point_set(points)
    i, j = extreme_pair(pts)
    return (pts[i] + pts[j]) / 2.0


def farthest_index(points: PointSet, anchor: Vector) -> int:
    """Index of the point farthest from anchor (first maximum on ties)."""
    diff = points - anchor[None, :]
    d2 = np.einsum("ij,ij->i", diff, diff)
    return int(np.argmax(d2))


def approach_extreme(points, anchor) -> Vector:
    """Midpoint of the anchor and the set's farthest point from it.

    The anchor does not have to be a member of the set, but it must match the
    set's dimension.
    """
    pts = as_point_set(points)
    y = np.asarray(anchor, dtype=np.float64)
    if y.shape != (pts.shape[1],):
        raise ValueError(
            f"anchor dimension {y.shape} does not match point set dimension ({pts.shape[1]},)"
        )
    b = pts[farthest_index(pts, y)]
    return (y + b) / 2.0


# ---------------------------------------------------------------------------
# Batched variants used by the vectorized ensemble driver.  Shapes are
# (seeds, count, dim); the per-seed selected pair matches what the scalar
# functions above would pick on that seed's slice.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _pair_list(count: int) -> tuple[np.ndarray, np.ndarray]:
    """First and second indices of [(0, 0)] + [(i, j) for i < j], row-major."""
    first, second = (np.r_[0, idx] for idx in np.triu_indices(count, k=1))
    first.flags.writeable = second.flags.writeable = False  # shared by every call
    return first, second


def batched_mid_extremes(points: np.ndarray) -> np.ndarray:
    """mid_extremes applied independently per seed; (S, k, d) -> (S, d)."""
    s, k, d = points.shape
    first, second = _pair_list(k)
    a = points.take(first, axis=1)
    b = points.take(second, axis=1)
    diff = a - b
    d2 = np.einsum("spk,spk->sp", diff, diff)
    # flat row of each seed's first maximum in the (s * pairs, d) views
    best = d2.argmax(axis=1) + np.arange(0, s * len(first), len(first))
    return (a.reshape(-1, d)[best] + b.reshape(-1, d)[best]) / 2.0


def batched_approach_extreme(points: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """approach_extreme per seed; points (S, k, d), anchors (S, d) -> (S, d)."""
    diff = points - anchors[:, None, :]
    d2 = np.einsum("sij,sij->si", diff, diff)
    far = d2.argmax(axis=1)
    b = points[np.arange(points.shape[0]), far]
    return (anchors + b) / 2.0
