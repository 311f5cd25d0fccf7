"""k-nearest-neighbor search backends.

Three implementations with one contract:

``knn(points, queries, k) -> (indices, distances)`` where ``indices`` has
shape ``(n_queries, k)`` sorted by increasing distance.

* :func:`brute_force_knn` — exact, O(nq·n); the oracle used by tests and the
  "vanilla kNN" cost model in the paper's speed comparisons.
* :func:`kdtree_knn` — scipy cKDTree; the fast exact reference.
* :class:`TwoLayerOctree` (in :mod:`repro.spatial.octree`) — the paper's
  §4.1 cell-pruned search, a cell-batched NumPy index with its own distance
  kernel; the two above are its independent oracles.

Points and queries must be finite: a NaN or infinite coordinate raises
``ValueError`` naming the first offending row.

When a query point coincides with an indexed point (self-queries during
interpolation), callers that need *other* points should request ``k+1`` and
remove the self index — with exact duplicates it need not be the first
column; helpers here keep the raw semantics.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["brute_force_knn", "kdtree_knn", "KnnBackend", "get_backend"]


def as_finite_xyz(array: np.ndarray, what: str) -> np.ndarray:
    """``array`` as float64 ``(n, 3)``; ``ValueError`` naming the first bad row.

    A NaN or infinite coordinate would otherwise surface as a NaN bounding
    box or a NaN distance row with at most a ``RuntimeWarning``.
    """
    a = np.asarray(array, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"{what} must be (n, 3), got {a.shape}")
    finite = np.isfinite(a)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise ValueError(f"{what} row {row} is not finite: {a[row].tolist()}")
    return a


def check_k(k: int, n: int) -> None:
    if k <= 0:
        raise ValueError("k must be positive")
    if k > n:
        raise ValueError(f"k={k} exceeds point count {n}")


def _validate(points: np.ndarray, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    pts = as_finite_xyz(points, "points")
    qrs = as_finite_xyz(queries, "queries")
    check_k(k, len(pts))
    return pts, qrs


def brute_force_knn(
    points: np.ndarray, queries: np.ndarray, k: int, block: int = 2048
) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN by blocked pairwise distances.

    ``block`` bounds peak memory at ``block * n`` distances.  Uses
    ``argpartition`` + a local sort so the cost is O(n) per query rather
    than O(n log n).
    """
    pts, qrs = _validate(points, queries, k)
    m = len(qrs)
    idx = np.empty((m, k), dtype=np.int64)
    dist = np.empty((m, k), dtype=np.float64)
    sq = np.einsum("ij,ij->i", pts, pts)
    for start in range(0, m, block):
        q = qrs[start : start + block]
        # ||q - p||^2 = ||q||^2 - 2 q·p + ||p||^2 ; the ||q||^2 term is
        # constant per row and can be dropped for ranking, but we keep it to
        # return true distances.
        d2 = sq[None, :] - 2.0 * q @ pts.T
        d2 += np.einsum("ij,ij->i", q, q)[:, None]
        np.maximum(d2, 0.0, out=d2)
        if k < d2.shape[1]:
            part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        else:
            part = np.tile(np.arange(d2.shape[1]), (len(q), 1))
        pd = np.take_along_axis(d2, part, axis=1)
        order = np.argsort(pd, axis=1, kind="stable")
        idx[start : start + len(q)] = np.take_along_axis(part, order, axis=1)
        dist[start : start + len(q)] = np.sqrt(
            np.take_along_axis(pd, order, axis=1)
        )
    return idx, dist


def kdtree_knn(
    points: np.ndarray, queries: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN via scipy's cKDTree."""
    pts, qrs = _validate(points, queries, k)
    tree = cKDTree(pts)
    dist, idx = tree.query(qrs, k=k)
    if k == 1:
        dist = dist[:, None]
        idx = idx[:, None]
    return idx.astype(np.int64), dist


class KnnBackend:
    """A reusable index over a fixed point set.

    Building the index once and querying many times is the pattern every
    VoLUT stage uses (interpolation, colorization, metrics), so backends
    expose ``query`` rather than one-shot functions.
    """

    name = "base"

    def __init__(self, points: np.ndarray):
        self.points = as_finite_xyz(points, "points")

    def query(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class BruteBackend(KnnBackend):
    """Brute-force backend (the 'vanilla' cost in speed comparisons)."""

    name = "brute"

    def query(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        return brute_force_knn(self.points, queries, k)


class KDTreeBackend(KnnBackend):
    """scipy cKDTree backend."""

    name = "kdtree"

    def __init__(self, points: np.ndarray):
        super().__init__(points)
        self._tree = cKDTree(self.points)

    def query(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        check_k(k, len(self.points))
        dist, idx = self._tree.query(as_finite_xyz(queries, "queries"), k=k)
        if k == 1:
            dist = dist[:, None]
            idx = idx[:, None]
        return idx.astype(np.int64), dist


def get_backend(name: str, points: np.ndarray) -> KnnBackend:
    """Factory: ``brute``, ``kdtree``, or ``octree``."""
    if name == "brute":
        return BruteBackend(points)
    if name == "kdtree":
        return KDTreeBackend(points)
    if name == "octree":
        from .octree import TwoLayerOctree

        return TwoLayerOctree(points)
    raise ValueError(f"unknown kNN backend {name!r}")
