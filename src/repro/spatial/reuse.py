"""Neighbor-relationship reuse (paper Eq. 2).

For an interpolated point ``p'`` generated between parents ``p`` and ``q``,
the paper observes::

    N_k(p') ≈ MergeAndPrune(N_k(p), N_k(q))

i.e. the k nearest neighbors of the midpoint are (almost always) contained
in the union of the parents' neighbor lists, so the per-new-point kNN
search can be replaced by a merge of two already-computed lists followed by
a distance prune.  This removes the dominant cost of the refinement stage's
neighbor gathering.

The merge is exact *with respect to the candidate union*; the approximation
error relative to a full kNN search is measured in tests (it is zero for
midpoints when k is modest, the regime VoLUT runs in).

The prune is a k-pass select, not a sort:

1. cut the rows into blocks of ``_BLOCK_ROWS``;
2. per block, lay the candidates out once, candidate-major, as
   ``(2 + 2·k_src, rows)`` — rows ``parent_a``, ``parent_b``,
   ``N(parent_a)``, ``N(parent_b)``, so every candidate column is one
   contiguous run and NumPy reduces across them without a row-wise loop;
3. squared distances ``(dx² + dy²) + dz²`` by one gather per axis from
   contiguous x / y / z (the block's targets transposed to contiguous rows
   too), accumulated in place (no ``(width, rows, 3)`` array exists) — so
   the last returned distance is bit for bit Eq. 3's radius ``R`` of the
   returned neighbours, which ``PositionEncoder.encode`` accepts instead of
   measuring it again;
4. ``k`` times: the minimum over the candidates (``np.minimum.reduce``
   along axis 0) is the pass's distance; the winner is the lowest candidate
   column holding that minimum (below), taken from the raveled block at
   ``column · rows + row``; then the distance of *every* column holding
   the winner's index goes to ``inf`` — one equality compare retires the
   winner and all its duplicates (the parents' lists overlap heavily);
5. a pass whose minimum is ``inf`` means the row ran out of distinct
   candidates, which is an error, not a padded answer.

**Ties** go to the lowest candidate column: ``parent_a`` before
``parent_b`` before ``N(parent_a)`` in list order before ``N(parent_b)``
in list order.  Ties are the common case, not a corner: a midpoint is
equidistant from its two parents by construction.  A pass finds that
column without a row-wise ``argmin``: the 0 / 1 tie mask ``d² == min``
weighted by ``2⁻ᶜ`` for column ``c`` is one BLAS mat-vec, and the
exponent ``np.frexp`` reads off the sum is that of its largest term, the
lowest tied column.  Any subset of 53 consecutive powers of two sums
exactly in float64, whatever order BLAS adds in; a wider block is read in
slices of 53 columns, the lowest slice with a tie deciding.  Blocking does
not change any row's answer.
"""

from __future__ import annotations

import numpy as np

from .knn import as_finite_xyz

__all__ = ["merge_and_prune"]

#: Rows per block.  At 18 candidates a block's temporaries (candidates, one
#: per-axis difference, distances, tie mask) are ~150 KiB each and stay
#: cache-resident.  Measured on the 12 frames of ``bench``'s ``client-x8``
#: as ``upsample`` prunes them (m ≈ 7,290 distinct rows, k = 3; interleaved,
#: best of 11, ms/frame): 256 → 4.36, 512 → 3.50, 1,024 → 3.07, 2,048 →
#: 3.23, 4,096 → 4.47, unblocked → 5.09; on ``client-x2`` (m ≈ 5,984):
#: 3.86 / 2.98 / 2.48 / 3.13 / 3.77 / 4.18.  1,024 was fastest in three of
#: four such sweeps, 2,048 once; 4,096 and up lose 45–70 %.  The row-major
#: predecessor at 1,024 rows (its body, unblocked, is the oracle in
#: ``tests/spatial/reference_reuse.py``) took 5.25 and 3.80 in the same
#: window.
_BLOCK_ROWS = 1024
#: columns one tie mat-vec reads exactly: float64 holds 53 significant bits
_EXACT_COLUMNS = 53


def _parent_indices(parent: np.ndarray, what: str, m: int, n: int) -> np.ndarray:
    parent = np.asarray(parent)
    if parent.shape != (m,):
        raise ValueError(
            f"{what} must be ({m},) to match new_points, got {parent.shape}"
        )
    if m and not (0 <= parent.min() and parent.max() < n):
        row = int(np.argmax((parent < 0) | (parent >= n)))
        raise ValueError(
            f"{what} row {row} is {parent[row]}, outside the {n} points"
        )
    return parent


def _neighbor_lists(neighbor_idx: np.ndarray, n: int) -> np.ndarray:
    neighbor_idx = np.asarray(neighbor_idx)
    if neighbor_idx.ndim != 2 or len(neighbor_idx) != n:
        raise ValueError(
            f"neighbor_idx must be ({n}, k_src) to match points, "
            f"got {neighbor_idx.shape}"
        )
    if neighbor_idx.size == 0:
        return neighbor_idx
    if not np.issubdtype(neighbor_idx.dtype, np.integer):
        row, col = 0, 0  # every entry is mistyped; name the first
    elif 0 <= neighbor_idx.min() and neighbor_idx.max() < n:
        return neighbor_idx
    else:
        row, col = np.argwhere((neighbor_idx < 0) | (neighbor_idx >= n))[0]
    raise ValueError(
        f"neighbor_idx row {row} holds {neighbor_idx[row, col].item()!r}; "
        f"indices must be integers in [0, {n})"
    )


def merge_and_prune(
    new_points: np.ndarray,
    points: np.ndarray,
    parent_a: np.ndarray,
    parent_b: np.ndarray,
    neighbor_idx: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Approximate kNN of ``new_points`` from their parents' neighbor lists.

    Parameters
    ----------
    new_points:
        ``(m, 3)`` interpolated positions.
    points:
        ``(n, 3)`` original cloud the neighbor lists index into.
    parent_a, parent_b:
        ``(m,)`` indices of each new point's two parents.
    neighbor_idx:
        ``(n, k_src)`` precomputed neighbor lists of the original points;
        row ``i`` holds the neighbors of point ``i``.
    k:
        Number of neighbors to return per new point.

    Returns
    -------
    (indices, distances):
        ``(m, k)`` arrays sorted by increasing distance, no index repeated
        within a row.  The candidate set for row ``j`` is ``{parent_a[j],
        parent_b[j]} ∪ N(parent_a[j]) ∪ N(parent_b[j])``; equidistant
        candidates come out in candidate-column order (module docstring).

    Raises
    ------
    ValueError
        ``new_points`` / ``points`` not finite ``(·, 3)``; ``parent_a`` /
        ``parent_b`` not ``(m,)`` or outside ``[0, n)``; ``neighbor_idx``
        not ``(n, k_src)`` integers in ``[0, n)`` (names the first bad row
        and its value); ``k`` not positive or above the ``2 + 2·k_src``
        candidate columns; or a row with fewer than ``k`` *distinct*
        candidates (names the first such row and its count).
    """
    new_points = as_finite_xyz(new_points, "new_points")
    points = as_finite_xyz(points, "points")
    m, n = len(new_points), len(points)
    parent_a = _parent_indices(parent_a, "parent_a", m, n)
    parent_b = _parent_indices(parent_b, "parent_b", m, n)
    neighbor_idx = _neighbor_lists(neighbor_idx, n)
    k_src = neighbor_idx.shape[1]
    width = 2 + 2 * k_src
    if k <= 0:
        raise ValueError("k must be positive")
    if k > width:
        raise ValueError(f"k={k} exceeds candidate count {width}")

    axes = [np.ascontiguousarray(points[:, a]) for a in range(3)]
    weights = np.ldexp(1.0, -(np.arange(width) % _EXACT_COLUMNS))
    slices = range(0, width, _EXACT_COLUMNS)
    indices = np.empty((m, k), dtype=np.int64)
    distances = np.empty((m, k), dtype=np.float64)
    for lo in range(0, m, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, m)
        rows = hi - lo
        a, b = parent_a[lo:hi], parent_b[lo:hi]
        cand = np.empty((width, rows), dtype=np.int64)
        cand[0] = a
        cand[1] = b
        cand[2 : 2 + k_src] = np.take(neighbor_idx, a, axis=0).T
        cand[2 + k_src :] = np.take(neighbor_idx, b, axis=0).T
        targets = new_points[lo:hi].T.copy()
        d2 = None
        for axis, coords in enumerate(axes):
            diff = coords.take(cand)
            diff -= targets[axis]
            diff *= diff
            d2 = diff if d2 is None else np.add(d2, diff, out=d2)
        tie = np.empty((width, rows))
        row = np.arange(rows)
        for j in range(k):
            if j:  # retire the last winner and every duplicate of it
                np.putmask(d2, cand == winner, np.inf)
            low = np.minimum.reduce(d2, axis=0)
            np.equal(d2, low, out=tie)
            column = None
            for start in reversed(slices):  # the lowest slice with a tie decides
                stop = start + _EXACT_COLUMNS
                score = weights[start:stop] @ tie[start:stop]
                first = start + 1 - np.frexp(score)[1]
                column = first if column is None else np.where(score > 0, first, column)
            column *= rows
            column += row
            winner = cand.take(column)
            indices[lo:hi, j] = winner
            distances[lo:hi, j] = low
        short = distances[lo:hi, -1] == np.inf
        if short.any():
            bad = lo + int(np.argmax(short))
            raise ValueError(
                f"new_points row {bad} has "
                f"{int(np.isfinite(distances[bad]).sum())} distinct "
                f"candidates, fewer than k={k}"
            )
    return indices, np.sqrt(distances, out=distances)
