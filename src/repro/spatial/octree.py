"""Octree-cell kNN, cell-batched (paper §4.1).

The paper organizes each frame with a *two-layer* octree (8 regions, each
split into 8: a 4×4×4 arrangement of leaf cells) and answers a query from
the leaf that contains it plus the neighbouring leaves, pruning most of the
cloud.  This module keeps that cell-pruned search and its exactness rule,
shaped for NumPy:

* **Cubic cells over the bounding cube.**  ``levels`` octree levels give
  ``2**levels`` cells per axis of side ``max(span) / 2**levels``.  Cells of
  the bounding *box* would inherit its anisotropy (a standing figure spans
  0.7 × 1.7 × 0.7), and a ring of stretched cells holds several times the
  candidates a ring of cubes needs for the same guarantee.
* **Surface-aware depth.**  A scanned surface occupies ~``4**levels`` cells,
  not ``8**levels``, so the automatic depth is *measured*: the shallowest
  level (at least the paper's two) whose occupied cells hold at most
  ``TARGET_OCCUPANCY`` points on average — a ring-1 search then scans tens
  to a few hundred candidates instead of thousands.
* **Cell-batched queries.**  Points are stored sorted by cell id, so the
  cells ``(i+di, j+dj, k-r … k+r)`` of a ring are one contiguous run and a
  ring-``r`` region is ``(2r+1)²`` runs.  A table of every cell's start in
  that order (``cells³ + 1`` offsets, 256 KiB at 32 cells per axis) makes a
  run two gathers; only an explicit ``levels`` past the automatic range,
  whose table would pass 2²¹ entries, bisects the sorted ids instead.
  Queries are grouped by cell (a group shares its candidates), ordered by
  candidate count and cut into blocks of at most ``BLOCK_PAIRS``
  query×candidate pairs of similar width.  A block is one padded
  ``(rows, width)`` pass of a difference-based distance kernel — per-axis
  gathers, ``(q − p)²`` summed, no ``‖q‖² − 2q·p + ‖p‖²`` cancellation —
  whose temporaries are 256 KiB each whatever the cloud.
* **k-pass selection.**  The k nearest of a row are k passes of ``argmin``
  over the block, each winner read and then retired with +inf, so they come
  out in distance order with no partition, sort or reorder.  ``argmin``
  streams at 0.15–0.4 ns per element where ``argpartition`` pays 3–6 at a
  ring's widths, so k passes win while k stays small: against the partition
  kernel a 6,000-point self-query runs ×2.0 at k = 1, ×1.5 at 9, ×1.1–1.3 at
  16, even near 32 and ×0.5–0.7 at 64 (every caller here asks for ≤ 17).
  Measured on 32k-pair blocks a pass of the whole kernel costs ≈ 0.4 µs per
  row + ≈ 8 ns per pair — set-up-bound at the widths a ring produces, which
  is why pruning more pairs (a dense-cell sub-layer, a ring sized by its
  ring-1 count) moved the wall by −3 … +15 % and was not kept (ROADMAP 2).
* **Ties.**  Equidistant candidates come out in candidate-slot order, fixed
  by the query's own cell and accepted ring, so a point's neighbours do not
  depend on the batch.  Callers that need one answer across backends take
  the *(distance, index)* contract of :func:`repro.spatial.knn.ordered_query`.
* **Exactness.**  A row is accepted only when its k-th distance is no larger
  than the distance to the boundary of the searched region — one comparison
  and one scatter per pass; the rest retry with a wider ring and, past
  ``MAX_RING``, against every point.
"""

from __future__ import annotations

import numpy as np

from .knn import KnnBackend, as_finite_xyz, check_k

__all__ = ["TwoLayerOctree"]


class TwoLayerOctree(KnnBackend):
    """Exact kNN index with octree-cell pruning.

    Parameters
    ----------
    points:
        ``(n, 3)`` array to index.
    levels:
        Number of octree levels.  ``None`` (default) measures the depth from
        the cloud (module docstring); the paper fixes *two*, right for a C++
        client that scans a few thousand candidates per query cheaply.  Pass
        an explicit value for the index-depth ablation.

    ``query_stats`` holds the last query's counters: ``ring_passes``,
    ``candidate_pairs`` (distances computed), ``exhaustive_rows`` and
    ``passes``, one ``(ring, rows, accepted, candidate_pairs)`` per pass in
    order (the exhaustive pass reports ``cells_per_axis`` as its ring).
    """

    name = "octree"

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
        if levels is not None and not 1 <= levels <= 20:
            raise ValueError("levels must be in 1..20")
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
        # Where each cell's points start in cell-sorted order, cells³ + 1
        # entries (16 MiB at the deepest automatic level); an explicit deeper
        # grid keeps none and ``_ring_runs`` bisects ``_sorted_flat`` instead.
        self._cell_start = None
        if self.levels <= self.MAX_AUTO_LEVELS:
            self._cell_start = np.zeros(self.cells_per_axis ** 3 + 1, dtype=np.int64)
            np.cumsum(np.bincount(flat, minlength=self.cells_per_axis ** 3),
                      out=self._cell_start[1:])
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

        ``cells`` is ``(g, 3)``; the result is two ``(g, (2·ring+1)²)``
        arrays.  Cells along the last axis have consecutive ids, so each
        ``(di, dj)`` column of the ring is a single run; columns off the grid
        are empty.
        """
        c = self.cells_per_axis
        r = np.arange(-ring, ring + 1)
        ij = cells[:, None, :2] + np.stack(np.meshgrid(r, r, indexing="ij"), -1).reshape(-1, 2)
        inside = ((ij >= 0) & (ij < c)).all(axis=-1)
        base = (ij[..., 0] * c + ij[..., 1]) * c
        k = cells[:, 2, None]
        first, last = base + np.maximum(k - ring, 0), base + np.minimum(k + ring, c - 1)
        if self._cell_start is None:  # a grid too fine for the table: bisect
            start = np.searchsorted(self._sorted_flat, first, "left")
            stop = np.searchsorted(self._sorted_flat, last, "right")
            return start, np.where(inside, stop, start)
        # two gathers per column; an off-grid column reads entry 0 twice
        return (
            self._cell_start[np.where(inside, first, 0)],
            self._cell_start[np.where(inside, last + 1, 0)],
        )

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

    def _block_knn(self, q, cand, group, k: int, work):
        """k nearest of ``cand[group[i]]`` (cell-sorted positions) for each
        ``q[i]``, nearest first, as ``(k, rows)`` positions and *squared*
        distances; equidistant candidates in slot order.  ``work`` is three
        flat float64 buffers of at least ``rows × width`` elements."""
        rows, width = len(q), cand.shape[1]
        shared, d2, diff = (
            buf[: m * width].reshape(m, width) for buf, m in zip(work, (len(cand), rows, rows))
        )
        for a, coords in enumerate(self._axes):
            out = diff if a else d2
            coords.take(cand, out=shared, mode="clip")  # one gather per group,
            shared.take(group, axis=0, out=out, mode="clip")  # copied to its rows
            out -= q[:, a, None]
            out *= out
            if a:
                d2 += diff
        flat = d2.reshape(-1)
        row0 = np.arange(0, rows * width, width)
        slot = np.empty((k, rows), dtype=np.int64)
        near = np.empty((k, rows))
        for j in range(k):
            # first minimum of every row, then retired for the next pass
            np.add(d2.argmin(axis=1), row0, out=slot[j])
            flat.take(slot[j], out=near[j], mode="clip")
            flat[slot[j]] = np.inf
        slot += group * width - row0  # slot of d2 -> slot of cand
        return cand.reshape(-1).take(slot), near

    def _scan(self, q, group, start, stop, k: int):
        """``(rows, positions, distances, pairs)``: each ``q[rows]`` against the
        runs ``start[g]:stop[g]`` of its group ``g = group[row]``, the results
        ``(k, len(rows))``, ``pairs`` the distances computed.

        Rows whose runs hold fewer than ``k`` points are left out.
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
        enough = int(np.searchsorted(width, k))  # narrower rows cannot hold k
        rows, group, width = rows[enough:], group[enough:], width[enough:]
        pos = np.empty((k, len(rows)), dtype=np.int64)
        d2 = np.empty((k, len(rows)))
        # The kernel's block-sized temporaries, allocated once per pass: fresh
        # 256 KiB arrays per block can page-fault for longer than the
        # arithmetic that fills them takes (measured ×2.5 on 3,000-wide rows).
        work = np.empty((3, max(self.BLOCK_PAIRS, width.max(initial=0))))
        lo = 0
        while lo < len(rows):
            # rows lo:hi, padded to the last one's width, fit BLOCK_PAIRS and
            # are at most half again as wide as the first (both monotone)
            w = width[lo : lo + max(self.BLOCK_PAIRS // width[lo], 1)]
            fits = (np.arange(1, len(w) + 1) * w <= self.BLOCK_PAIRS) & (2 * w <= 3 * w[0])
            hi = lo + max(int(np.count_nonzero(fits)), 1)
            g0, g1 = group[lo], group[hi - 1] + 1
            # the groups' lists side by side, short ones padded with n
            slots = np.arange(width[hi - 1])
            cand = ragged.take(offset[g0:g1, None] + slots, mode="clip")
            cand[slots >= count[g0:g1, None]] = n
            pos[:, lo:hi], d2[:, lo:hi] = self._block_knn(
                q[rows[lo:hi]], cand, group[lo:hi] - g0, k, work
            )
            lo = hi
        return rows, pos, np.sqrt(d2, out=d2), int(width.sum())

    def query(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact kNN for each query point."""
        qrs = as_finite_xyz(queries, "queries")
        n = len(self.points)
        check_k(k, n)
        out_pos = np.empty((len(qrs), k), dtype=np.int64)
        out_dist = np.empty((len(qrs), k), dtype=np.float64)
        qcell = self._cell_of(qrs)
        qflat = self._flat(qcell)
        stats = self.query_stats = {
            "ring_passes": 0, "candidate_pairs": 0, "exhaustive_rows": 0, "passes": [],
        }

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
            rows, pos, dist, pairs = self._scan(q, group, start, stop, k)
            # the k-th neighbour is provably inside the searched region
            inside = dist[-1] <= self._boundary_distances(q[rows], qcell[pending[rows]], ring)
            done = rows[inside]
            out_pos[pending[done]] = pos[:, inside].T
            out_dist[pending[done]] = dist[:, inside].T
            stats["candidate_pairs"] += pairs
            stats["passes"].append((ring, len(pending), len(done), pairs))
            pending = np.delete(pending, done)
            ring += 1
        return self._order[out_pos], out_dist

    def stats(self) -> dict:
        """Occupancy statistics (used by tests and the design ablation)."""
        counts = np.unique(self._sorted_flat, return_counts=True)[1]
        cells, n = self.cells_per_axis ** 3, len(self.points)
        return {
            "cells": cells,
            "occupied": len(counts),
            "max_bucket": int(counts.max(initial=0)),
            "mean_bucket": n / cells,
            "occupied_mean_bucket": n / max(len(counts), 1),
        }
