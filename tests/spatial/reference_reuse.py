"""The two ``merge_and_prune`` kernels that production replaced — test oracles.

Neither imports anything from ``repro.spatial.reuse`` or validates its
input.

* :func:`reference_merge_and_prune` is the sort-based body: materialise
  ``points[cand]`` as ``(m, 2 + 2·k_src, 3)``, find duplicate candidates
  with a row sort plus a stable argsort, inflate their distance, then
  ``argpartition`` + tail sort.  Ties resolve however ``einsum`` rounds and
  introselect partitions, which is why the parity grid compares its
  indices only on rows without near-ties.
* :func:`rowwise_merge_and_prune` is the row-major k-pass select that
  followed it, without its row blocks (a row's answer never depended on
  them): candidates laid out ``(m, 2 + 2·k_src)``, one ``argmin`` along
  each row per pass (the first minimum, so ties go to the lowest candidate
  column), the winner read at ``argmin + row start`` of the raveled array.
  Its distances are summed in the order production sums them, so it is
  production's byte-exact oracle on every row, ties included.
"""

from __future__ import annotations

import numpy as np


def reference_merge_and_prune(new_points, points, parent_a, parent_b, neighbor_idx, k):
    new_points = np.asarray(new_points, dtype=np.float64)
    m = len(new_points)
    if m == 0:
        return (np.zeros((0, k), dtype=np.int64), np.zeros((0, k)))
    # Candidates: both parents plus both parents' neighbor lists.
    cand = np.concatenate(
        [
            parent_a[:, None],
            parent_b[:, None],
            neighbor_idx[parent_a],
            neighbor_idx[parent_b],
        ],
        axis=1,
    )  # (m, 2 + 2*k_src)
    n_cand = cand.shape[1]
    if k > n_cand:
        raise ValueError(f"k={k} exceeds candidate count {n_cand}")
    diff = points[cand] - new_points[:, None, :]
    d2 = np.einsum("mij,mij->mi", diff, diff)
    # Duplicate candidates (shared neighbors of the two parents) must not
    # occupy two of the k slots: inflate the distance of repeated entries.
    sort_c = np.sort(cand, axis=1)
    # Mark duplicates via a per-row sorted scan.
    dup_sorted = np.zeros_like(sort_c, dtype=bool)
    dup_sorted[:, 1:] = sort_c[:, 1:] == sort_c[:, :-1]
    if dup_sorted.any():
        # Map the duplicate flags back to original candidate order: for each
        # row, keep the first occurrence of every index.
        order = np.argsort(cand, kind="stable", axis=1)
        dup = np.zeros_like(dup_sorted)
        np.put_along_axis(dup, order, dup_sorted, axis=1)
        d2 = np.where(dup, np.inf, d2)
    part = np.argpartition(d2, k - 1, axis=1)[:, :k]
    pd = np.take_along_axis(d2, part, axis=1)
    order = np.argsort(pd, axis=1, kind="stable")
    idx = np.take_along_axis(part, order, axis=1)
    dist = np.sqrt(np.take_along_axis(pd, order, axis=1))
    return np.take_along_axis(cand, idx, axis=1), dist


def rowwise_merge_and_prune(new_points, points, parent_a, parent_b, neighbor_idx, k):
    m = len(new_points)
    k_src = neighbor_idx.shape[1]
    width = 2 + 2 * k_src
    cand = np.empty((m, width), dtype=np.int64)
    cand[:, 0] = parent_a
    cand[:, 1] = parent_b
    cand[:, 2 : 2 + k_src] = neighbor_idx[parent_a]
    cand[:, 2 + k_src :] = neighbor_idx[parent_b]
    targets = new_points.T.copy()
    d2 = None
    for axis in range(3):
        diff = np.ascontiguousarray(points[:, axis])[cand]
        diff -= targets[axis, :, None]
        diff *= diff
        d2 = diff if d2 is None else np.add(d2, diff, out=d2)
    indices = np.empty((m, k), dtype=np.int64)
    distances = np.empty((m, k), dtype=np.float64)
    row_start = np.arange(0, m * width, width)
    for j in range(k):
        if j:  # retire the last winner and every duplicate of it
            np.putmask(d2, cand == winner[:, None], np.inf)
        flat = d2.argmin(axis=1)
        flat += row_start
        winner = cand.take(flat)
        indices[:, j] = winner
        distances[:, j] = d2.take(flat)
    return indices, np.sqrt(distances, out=distances)
