"""k-nearest-neighbor search backends.

Three implementations with one contract:

``knn(points, queries, k) -> (indices, distances)`` where ``indices`` has
shape ``(n_queries, k)`` sorted by increasing distance.

* :func:`brute_force_knn` — exact, O(nq·n); the oracle used by tests and the
  "vanilla kNN" cost model in the paper's speed comparisons.
* :func:`kdtree_knn` — scipy cKDTree; the client's index
  (:data:`CLIENT_BACKEND`).
* :class:`TwoLayerOctree` (in :mod:`repro.spatial.octree`) — the paper's
  §4.1 cell-pruned search, a cell-batched NumPy index with its own distance
  kernel; the two above are its independent oracles.

Points and queries must be finite: a NaN or infinite coordinate raises
``ValueError`` naming the first offending row.

**The tie contract.**  A backend's ``query`` breaks distance ties its own
way (the octree by candidate slot, cKDTree by tree traversal), and on a
decoded lattice ties are common.  :func:`ordered_query` defines the one
answer: the ``k`` smallest by *(distance, index)*, in that order.  The
octree and cKDTree both sum ``(dx² + dy²) + dz²`` per pair, so their
distances are bit-equal and under the contract their indices are too; the
brute backend's ``‖q‖² − 2q·p + ‖p‖²`` agrees only to rounding (1e-12 in
squared distance), so its ties can fall differently.
:func:`self_neighbors` is the self-query form every SR stage uses: with
exact duplicates the query point need not be the first column, or fetched
at all, and it is dropped wherever it sits.  ``query`` itself keeps the raw
semantics.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "CLIENT_BACKEND", "brute_force_knn", "kdtree_knn", "KnnBackend", "get_backend",
    "ordered_query", "self_neighbors",
]

#: The backend the client searches with — ``VolutUpsampler``, ``interpolate``
#: and the GradPU / YuZu baselines, so fig17 compares architectures on one
#: search substrate.  Compiled cKDTree outruns the NumPy octree (README, "What
#: the octree is for"), which keeps the paper's §4.1 job: cell pruning against
#: the vanilla search (fig11, the octree ablations).
CLIENT_BACKEND = "kdtree"


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


def ordered_query(
    index: KnnBackend, queries: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each query's ``k`` nearest indexed points by *(distance, index)*.

    Fetches ``k + 1`` columns and re-sorts only the rows with two equal
    adjacent distances.  A row whose k-th distance equals the last one
    fetched may tie with points not fetched yet; those rows are asked again
    with twice the columns until the tie is closed or every point is in.
    """
    n = len(index.points)
    check_k(k, n)
    queries = np.asarray(queries)
    width = min(k + 1, n)
    idx, dist = index.query(queries, width)
    out_idx, out_dist = idx[:, :k], dist[:, :k]
    rows = np.arange(len(idx))
    while True:
        tied = (dist[:, 1:] == dist[:, :-1]).any(axis=1)
        straddles = (dist[:, k - 1] == dist[:, -1]) & (width < n)
        fix = np.flatnonzero(tied & ~straddles)
        if len(fix):
            order = np.lexsort((idx[fix], dist[fix]))[:, :k]
            out_idx[rows[fix]] = np.take_along_axis(idx[fix], order, axis=1)
            out_dist[rows[fix]] = np.take_along_axis(dist[fix], order, axis=1)
        rows = rows[straddles]
        if not len(rows):
            return out_idx, out_dist
        width = min(2 * width, n)
        idx, dist = index.query(queries[rows], width)


def self_neighbors(index: KnnBackend, k: int) -> np.ndarray:
    """``(n, k)``: each indexed point's ``k`` nearest *other* points, by the
    tie contract.

    Asks :func:`ordered_query` for ``k + 1`` and drops the point itself
    wherever it sits — an exact duplicate with a smaller index ranks before
    it — or, when more than ``k`` such duplicates push it out, the farthest.
    """
    n = len(index.points)
    nb_idx, _ = ordered_query(index, index.points, k + 1)
    is_self = nb_idx == np.arange(n)[:, None]
    keep = ~is_self
    keep[~is_self.any(axis=1), -1] = False
    return nb_idx[keep].reshape(n, k)
