"""The PR 13 octree kernel that production replaced — test oracle.

This is ``repro.spatial.octree.TwoLayerOctree`` as it stood before the
selection became k ``argmin`` passes, the ring lookup a cell-offset table
and the acceptance one scatter per pass: ``_block_knn`` picks the k
nearest with ``argpartition`` and orders them with a stable ``argsort``,
``_ring_runs`` finds every run with two ``searchsorted`` calls, and
``query`` accepts rows block by block.  Same cells, same per-axis
``(q − p)²`` sum, so distances are bit-equal to production's; among
equidistant candidates it returns whichever introselect left in the first
k slots at that block width, which is why the parity grid compares indices
only on rows whose k + 1 nearest distances are strictly increasing.

It imports nothing from the production kernel but ``KnnBackend`` and
validates nothing.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.spatial.knn import KnnBackend

__all__ = ["ReferenceOctree"]


class ReferenceOctree(KnnBackend):
    """``TwoLayerOctree(points, levels=None)`` as of PR 13; inputs are trusted."""

    name = "octree-reference"

    #: automatic depth: mean points per *occupied* cell at most this
    TARGET_OCCUPANCY = 8
    #: deepest automatic level (128 cells per axis)
    MAX_AUTO_LEVELS = 7
    #: widest ring searched before the remaining rows scan every point
    MAX_RING = 3
    #: query×candidate pairs per kernel pass: 256 KiB per float64 temporary,
    #: so a block's working set stays in L2 (measured 1.3× faster than 2**17)
    BLOCK_PAIRS = 1 << 15

    def __init__(self, points: np.ndarray, levels: int | None = None):
        super().__init__(points)
        pts = self.points
        n = len(pts)
        self._lo = pts.min(axis=0) if n else np.zeros(3)
        side = max(float((pts.max(axis=0) - self._lo).max()), 1e-12) if n else 1.0
        self.levels = self._measure_levels(side) if levels is None else levels
        self.cells_per_axis = 2 ** self.levels
        self._cell_size = side / self.cells_per_axis
        flat = self._flat(self._cell_of(pts))
        self._order = np.argsort(flat, kind="stable")
        self._sorted_flat = flat[self._order]
        # Cell-sorted coordinates, one contiguous array per axis, with a
        # trailing +inf that padded candidate slots point at.
        self._axes = [np.append(pts[self._order, a], np.inf) for a in range(3)]
        self.query_stats: dict = {}

    def _measure_levels(self, side: float) -> int:
        """Shallowest depth with <= TARGET_OCCUPANCY points per occupied cell."""
        top, n = self.MAX_AUTO_LEVELS, len(self.points)
        fine = np.floor((self.points - self._lo) * (2 ** top / side)).astype(np.int64)
        np.clip(fine, 0, 2 ** top - 1, out=fine)

        def sparse(levels: int) -> bool:
            ijk = fine >> (top - levels)
            cells = np.unique((ijk[:, 0] << 2 * top) | (ijk[:, 1] << top) | ijk[:, 2])
            return n <= self.TARGET_OCCUPANCY * len(cells)

        # Occupancy only falls with depth: start where a surface would land
        # (4**levels cells) and walk to the boundary.
        guess = np.ceil(np.log(max(n, 1) / self.TARGET_OCCUPANCY) / np.log(4))
        levels = int(np.clip(guess, 2, top))
        while levels > 2 and sparse(levels - 1):
            levels -= 1
        while levels < top and not sparse(levels):
            levels += 1
        return levels

    def _cell_of(self, pts: np.ndarray) -> np.ndarray:
        """Integer cell coordinates, clipped to the grid."""
        ijk = np.floor((pts - self._lo) / self._cell_size)
        return np.clip(ijk, 0, self.cells_per_axis - 1).astype(np.int64)

    def _flat(self, ijk: np.ndarray) -> np.ndarray:
        c = self.cells_per_axis
        return (ijk[..., 0] * c + ijk[..., 1]) * c + ijk[..., 2]

    def _ring_runs(self, cells: np.ndarray, ring: int) -> tuple[np.ndarray, np.ndarray]:
        """Cell-sorted point ranges ``[start, stop)`` covering each cell's ring.

        ``cells`` is ``(g, 3)``, sorted by cell id; the result is two
        ``(g, (2·ring+1)²)`` arrays.  Cells along the last axis have
        consecutive ids, so each ``(di, dj)`` column of the ring is a single
        run; columns off the grid are empty.
        """
        c = self.cells_per_axis
        r = np.arange(-ring, ring + 1)
        # (runs, g) layout: along g the ids rise with the cells, and
        # ``searchsorted`` is several times faster on rising needles
        ij = cells[None, :, :2] + np.stack(np.meshgrid(r, r, indexing="ij"), -1).reshape(-1, 1, 2)
        inside = ((ij >= 0) & (ij < c)).all(axis=-1)
        base = (ij[..., 0] * c + ij[..., 1]) * c
        k = cells[None, :, 2]
        start = np.searchsorted(self._sorted_flat, base + np.maximum(k - ring, 0), "left")
        stop = np.searchsorted(self._sorted_flat, base + np.minimum(k + ring, c - 1), "right")
        return start.T, np.where(inside, stop, start).T

    def _boundary_distances(self, q: np.ndarray, cells: np.ndarray, ring: int) -> np.ndarray:
        """Distance from each query to the boundary of its searched region.

        Axes where the ring already reaches the grid edge cannot hide closer
        points outside the cloud's bounding cube, so they contribute +inf.
        """
        c = self.cells_per_axis
        lo_cell = np.maximum(cells - ring, 0)
        hi_cell = np.minimum(cells + ring + 1, c)
        lo_margin = np.where(lo_cell > 0, q - (self._lo + lo_cell * self._cell_size), np.inf)
        hi_margin = np.where(hi_cell < c, self._lo + hi_cell * self._cell_size - q, np.inf)
        return np.minimum(lo_margin, hi_margin).min(axis=1)

    def _block_knn(self, q: np.ndarray, cand: np.ndarray, group: np.ndarray, k: int):
        """k nearest of ``cand[group[i]]`` (cell-sorted positions) for each ``q[i]``."""
        d2 = None
        for a, coords in enumerate(self._axes):
            diff = coords[cand][group]
            diff -= q[:, a, None]
            diff *= diff
            d2 = diff if d2 is None else np.add(d2, diff, out=d2)
        del diff  # a block-sized temporary the selection below can reuse
        row = np.arange(len(q))[:, None]
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        pd = d2[row, part]
        by_dist = np.argsort(pd, axis=1, kind="stable")
        return cand[group[:, None], part[row, by_dist]], np.sqrt(pd[row, by_dist])

    def _scan(self, q, group, start, stop, k: int) -> Iterator[tuple[np.ndarray, ...]]:
        """Blocks of ``(rows, positions, distances)``: each ``q[rows]`` against
        the runs ``start[g]:stop[g]`` of its group ``g = group[row]``.

        Rows whose runs hold fewer than ``k`` points are not yielded.
        """
        n = len(self.points)
        # Groups in order of candidate count and rows in order of group, so a
        # block's rows have similar widths and its groups are contiguous.
        count = (stop - start).sum(axis=1)
        by_count = np.argsort(count, kind="stable")
        rank = np.empty_like(by_count)
        rank[by_count] = np.arange(len(by_count))
        count, start, stop = count[by_count], start[by_count], stop[by_count]
        group = rank[group]
        rows = np.argsort(group, kind="stable")
        group = group[rows]
        width = count[group]
        # every group's candidate list, concatenated
        run_len = (stop - start).ravel()
        run_end = np.cumsum(run_len)
        ragged = np.arange(run_end[-1]) + np.repeat(start.ravel() - (run_end - run_len), run_len)
        offset = np.concatenate([[0], np.cumsum(count)])
        lo = int(np.searchsorted(width, k))
        self.query_stats["candidate_pairs"] += int(width[lo:].sum())
        while lo < len(rows):
            # rows lo:hi, padded to the last one's width, fit BLOCK_PAIRS and
            # are at most half again as wide as the first (both monotone)
            w = width[lo : lo + max(self.BLOCK_PAIRS // width[lo], 1)]
            fits = (np.arange(1, len(w) + 1) * w <= self.BLOCK_PAIRS) & (2 * w <= 3 * w[0])
            hi = lo + max(int(np.count_nonzero(fits)), 1)
            g0, g1 = group[lo], group[hi - 1] + 1
            sizes = count[g0:g1]
            cand = np.full((g1 - g0, width[hi - 1]), n, dtype=np.int64)
            cand[
                np.repeat(np.arange(g1 - g0), sizes),
                np.arange(offset[g1] - offset[g0]) - np.repeat(offset[g0:g1] - offset[g0], sizes),
            ] = ragged[offset[g0] : offset[g1]]
            yield rows[lo:hi], *self._block_knn(q[rows[lo:hi]], cand, group[lo:hi] - g0, k)
            lo = hi

    def query(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact kNN for each query point."""
        qrs = np.asarray(queries, dtype=np.float64)
        n = len(self.points)
        out_pos = np.empty((len(qrs), k), dtype=np.int64)
        out_dist = np.empty((len(qrs), k), dtype=np.float64)
        qcell = self._cell_of(qrs)
        qflat = self._flat(qcell)
        stats = self.query_stats = {"ring_passes": 0, "candidate_pairs": 0, "exhaustive_rows": 0}

        pending = np.arange(len(qrs))
        ring = 1
        while len(pending):
            if ring > min(self.MAX_RING, self.cells_per_axis - 1):
                # Exhaustive: one group whose single run is the whole cloud;
                # at this ring every boundary distance is +inf.
                ring = self.cells_per_axis
                group = np.zeros(len(pending), dtype=np.int64)
                start, stop = np.zeros((1, 1), dtype=np.int64), np.full((1, 1), n)
                stats["exhaustive_rows"] = len(pending)
            else:
                _, first, group = np.unique(qflat[pending], return_index=True, return_inverse=True)
                start, stop = self._ring_runs(qcell[pending[first]], ring)
                stats["ring_passes"] += 1
            q = qrs[pending]
            margin = self._boundary_distances(q, qcell[pending], ring)
            accepted = np.zeros(len(pending), dtype=bool)
            for rows, pos, dist in self._scan(q, group, start, stop, k):
                # the k-th neighbour is provably inside the searched region
                inside = dist[:, -1] <= margin[rows]
                done = rows[inside]
                accepted[done] = True
                out_pos[pending[done]] = pos[inside]
                out_dist[pending[done]] = dist[inside]
            pending = pending[~accepted]
            ring += 1
        return self._order[out_pos], out_dist
