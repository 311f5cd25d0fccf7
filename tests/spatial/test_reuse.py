"""Neighbor-relationship reuse (Eq. 2) tests.

``reference_reuse`` holds the two kernels production replaced: the
sort-based body (``reference_merge_and_prune``, indices compared on
tie-free rows) and the row-major k-pass select
(``rowwise_merge_and_prune``, compared byte for byte on every row, ties
included); the parity grid below is the oracle-parity instance for the
candidate-major select.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pointcloud.datasets import make_video
from repro.spatial import kdtree_knn, merge_and_prune
from repro.spatial.reuse import _BLOCK_ROWS
from repro.sr.interpolation import interpolate
from repro.streaming.encoder import decode_frame_compressed, encode_frame_compressed

from .reference_reuse import reference_merge_and_prune, rowwise_merge_and_prune


def _setup(frame, k_src=8):
    pts = frame.positions
    nb, _ = kdtree_knn(pts, pts, k_src + 1)
    return pts, nb[:, 1:]  # drop self


class TestMergeAndPrune:
    def test_midpoint_exactness(self, small_frame):
        """For midpoints of nearest-neighbor pairs the reuse is exact."""
        pts, nb = _setup(small_frame)
        pa = np.arange(200)
        pb = nb[pa, 0]
        mid = 0.5 * (pts[pa] + pts[pb])
        idx, dist = merge_and_prune(mid, pts, pa, pb, nb, 4)
        _, ref = kdtree_knn(pts, mid, 4)
        exact = np.isclose(dist, ref, atol=1e-9).all(axis=1).mean()
        assert exact > 0.95

    def test_no_duplicate_indices_per_row(self, small_frame):
        pts, nb = _setup(small_frame)
        pa = np.arange(150)
        pb = nb[pa, 3]
        mid = 0.5 * (pts[pa] + pts[pb])
        idx, _ = merge_and_prune(mid, pts, pa, pb, nb, 5)
        for row in idx:
            assert len(set(row.tolist())) == len(row)

    def test_sorted_distances(self, small_frame):
        pts, nb = _setup(small_frame)
        pa = np.arange(100)
        pb = nb[pa, 1]
        mid = 0.5 * (pts[pa] + pts[pb])
        _, dist = merge_and_prune(mid, pts, pa, pb, nb, 6)
        assert (np.diff(dist, axis=1) >= -1e-12).all()

    def test_candidates_include_parents(self, small_frame):
        """Nearest neighbor of a midpoint of close parents is a parent."""
        pts, nb = _setup(small_frame)
        pa = np.arange(100)
        pb = nb[pa, 0]
        mid = 0.5 * (pts[pa] + pts[pb])
        idx, _ = merge_and_prune(mid, pts, pa, pb, nb, 2)
        has_parent = ((idx == pa[:, None]) | (idx == pb[:, None])).any(axis=1)
        assert has_parent.all()

    def test_empty_input(self, small_frame):
        pts, nb = _setup(small_frame)
        idx, dist = merge_and_prune(
            np.zeros((0, 3)), pts, np.zeros(0, int), np.zeros(0, int), nb, 3
        )
        assert idx.shape == (0, 3) and dist.shape == (0, 3)

    def test_k_too_large(self, small_frame):
        pts, nb = _setup(small_frame, k_src=3)
        pa = np.array([0]); pb = np.array([1])
        with pytest.raises(ValueError, match="candidate"):
            merge_and_prune(pts[:1], pts, pa, pb, nb, 100)


@given(seed=st.integers(0, 300), k=st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_reuse_distances_lower_bounded_by_truth(seed, k):
    """Reuse is an approximation: its distances can never beat true kNN."""
    g = np.random.default_rng(seed)
    pts = g.uniform(-1, 1, (60, 3))
    nb, _ = kdtree_knn(pts, pts, 7)
    nb = nb[:, 1:]
    pa = g.integers(0, 60, 20)
    pb = nb[pa, g.integers(0, 6, 20)]
    mid = 0.5 * (pts[pa] + pts[pb])
    _, d_reuse = merge_and_prune(mid, pts, pa, pb, nb, k)
    _, d_true = kdtree_knn(pts, mid, k)
    assert (d_reuse >= d_true - 1e-9).all()


# ---------------------------------------------------------------------------
# Hostile input: each of these returned *something* before the rewrite.
# ---------------------------------------------------------------------------

PTS3 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
NB3 = np.array([[1, 2], [0, 2], [0, 1]])
MID01 = np.array([[0.5, 0.0, 0.0]])
#: lists that repeat an index: pair (0, 1) has 2 distinct candidates, (0, 2) has 3
NB3_DEGENERATE = np.array([[1, 1], [0, 0], [0, 1]])


@pytest.mark.parametrize(
    "new_points, parent_a, parent_b, neighbor_idx, k, message",
    [
        pytest.param(MID01, [0], [1], NB3, -1, "k must be positive", id="k=-1"),
        pytest.param(MID01, [0], [1], NB3, 0, "k must be positive", id="k=0"),
        pytest.param(
            np.vstack([MID01, MID01]), [0], [1], NB3, 2,
            r"parent_a must be \(2,\) to match new_points, got \(1,\)",
            id="one-parent-pair-for-two-rows",
        ),
        pytest.param(
            MID01, [-1], [1], NB3, 2,
            "parent_a row 0 is -1, outside the 3 points", id="parent=-1",
        ),
        pytest.param(
            np.array([[0.5, np.nan, 0.0]]), [0], [1], NB3, 2,
            "new_points row 0 is not finite", id="nan-new-point",
        ),
        # NumPy would wrap -1 to the last point, raise a bare IndexError on
        # 7, and truncate 1.5 to 1
        pytest.param(
            MID01, [0], [1], np.array([[1, -1], [0, 2], [0, 1]]), 2,
            r"neighbor_idx row 0 holds -1; indices must be integers in \[0, 3\)",
            id="neighbor=-1",
        ),
        pytest.param(
            MID01, [0], [1], np.array([[1, 2], [0, 7], [0, 1]]), 2,
            r"neighbor_idx row 1 holds 7; indices must be integers in \[0, 3\)",
            id="neighbor-past-the-cloud",
        ),
        pytest.param(
            MID01, [0], [1], np.array([[1.5, 2], [0, 2], [0, 1]]), 2,
            r"neighbor_idx row 0 holds 1.5; indices must be integers in \[0, 3\)",
            id="float-neighbor-list",
        ),
        pytest.param(
            np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0]]), [0, 0], [2, 1],
            NB3_DEGENERATE, 3,
            "new_points row 1 has 2 distinct candidates, fewer than k=3",
            id="fewer-than-k-distinct",
        ),
    ],
)
def test_bad_input_is_rejected(new_points, parent_a, parent_b, neighbor_idx, k, message):
    with pytest.raises(ValueError, match=message):
        merge_and_prune(
            new_points, PTS3, np.array(parent_a), np.array(parent_b), neighbor_idx, k
        )


# ---------------------------------------------------------------------------
# Oracle parity: production vs the row-major and sort-based predecessors.
# ---------------------------------------------------------------------------

#: distances closer than this are a tie: which index wins is the tie rule's
#: business (tested on its own), not the oracle's
GAP = 1e-9


def _candidate_gaps_are_wide(new, pts, pa, pb, nb, k):
    """Rows whose k+1 nearest *distinct* candidates are pairwise separated.

    On such a row the k nearest are unambiguous, so any correct prune
    returns the same indices in the same order.
    """
    cand = np.concatenate([pa[:, None], pb[:, None], nb[pa], nb[pb]], axis=1)
    dist = np.linalg.norm(pts[cand] - new[:, None, :], axis=2)
    order = np.argsort(cand, axis=1, kind="stable")
    by_index = np.take_along_axis(cand, order, axis=1)
    dist = np.take_along_axis(dist, order, axis=1)
    dist[:, 1:][by_index[:, 1:] == by_index[:, :-1]] = np.inf
    dist.sort(axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf past the distinct ones
        return (np.diff(dist[:, : k + 1], axis=1) > GAP).all(axis=1)


def _assert_parity(new, pts, pa, pb, nb, k):
    idx, dist = merge_and_prune(new, pts, pa, pb, nb, k)
    # the row-major select: the same answer byte for byte, every tie included
    row_idx, row_dist = rowwise_merge_and_prune(new, pts, pa, pb, nb, k)
    assert idx.tobytes() == row_idx.tobytes() and dist.tobytes() == row_dist.tobytes()
    ref_idx, ref_dist = reference_merge_and_prune(new, pts, pa, pb, nb, k)
    assert idx.shape == ref_idx.shape == (len(new), k) and idx.dtype == np.int64
    assert dist.shape == ref_dist.shape and dist.dtype == np.float64
    assert np.allclose(dist, ref_dist, rtol=0, atol=1e-12)
    # the returned distance is the returned index's distance
    own = np.linalg.norm(pts[idx] - new[:, None, :], axis=2)
    assert np.allclose(dist, own, rtol=0, atol=1e-12)
    assert (np.diff(np.sort(idx, axis=1), axis=1) != 0).all(), "duplicate index in a row"
    # every index strictly nearer than the k-th distance is in both answers:
    # the two may only disagree inside the tie group at the cut
    for got, want, d in ((idx, ref_idx, ref_dist), (ref_idx, idx, dist)):
        inside = d < d[:, -1:] - GAP
        assert ((want[:, :, None] == got[:, None, :]).any(axis=2) | ~inside).all()
    clean = _candidate_gaps_are_wide(new, pts, pa, pb, nb, k)
    assert np.array_equal(idx[clean], ref_idx[clean])
    return clean


@given(
    seed=st.integers(0, 10_000),
    lattice=st.booleans(),
    k_src=st.integers(3, 30),  # past 53 candidate columns from 26 on
    k=st.integers(1, 6),
    dilated_partner=st.booleans(),
    jitter=st.booleans(),
    m=st.sampled_from([0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS]),
)
@settings(max_examples=40, deadline=None)
def test_matches_reference_on_generated_inputs(
    seed, lattice, k_src, k, dilated_partner, jitter, m
):
    g = np.random.default_rng(seed)
    if lattice:  # codec-quantised: voxel centres, exact ties everywhere
        pts = np.unique(g.integers(0, 12, (150, 3)), axis=0) / 12.0
    else:
        pts = g.uniform(-1, 1, (150, 3))
    n = len(pts)
    nb = kdtree_knn(pts, pts, k_src + 1)[0][:, 1:]
    pa = g.integers(0, n, m)
    pb = nb[pa, g.integers(0, k_src, m)] if dilated_partner else g.integers(0, n, m)
    new = 0.5 * (pts[pa] + pts[pb])
    if jitter:  # off the exact midpoint, so the parents stop tying
        new = new + g.normal(0, 0.01, new.shape)
    # a == b leaves 1 + k_src distinct candidates
    clean = _assert_parity(new, pts, pa, pb, nb, min(k, k_src + 1))
    if jitter and not lattice and m:
        assert clean.mean() > 0.9  # the index comparison is not vacuous


def test_matches_reference_on_a_bench_shaped_frame():
    """``client-x8``'s shape: 12,000 points at density 0.125 through the
    codec, ratio 8, k=4, dilation 2, three refinement neighbours."""
    frame = make_video("longdress", n_points=12_000, n_frames=1).frame(0)
    cloud = decode_frame_compressed(encode_frame_compressed(frame, 0.125, depth=10))
    interp = interpolate(cloud, 8.0, k=4, dilation=2)
    assert interp.n_new > 10 * _BLOCK_ROWS
    clean = _assert_parity(
        np.array(interp.new_positions), cloud.positions, interp.parent_a,
        interp.parent_b, interp.neighbor_idx, 3,
    )
    # a midpoint ties its two parents, so few rows are tie-free — but some are
    assert 0 < clean.sum() < len(clean)


# ---------------------------------------------------------------------------
# Tie rule: lowest candidate column wins.
# ---------------------------------------------------------------------------

class TestTieRule:
    # a, b and four points at distance exactly 1 from their midpoint (1, 0, 0)
    PTS = np.array(
        [[0, 0, 0], [2, 0, 0], [1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1]], dtype=float
    )
    # N(a) and N(b) share 2 and 3, list them in different orders, and the
    # point only a lists (5) has the higher index than the one only b lists (4)
    NB = np.array([[3, 2, 5], [4, 2, 3], [0, 1, 4], [0, 1, 5], [0, 1, 2], [0, 1, 3]])
    MID = np.array([[1.0, 0.0, 0.0]])
    A_THEN_B = [0, 1, 3, 2, 5, 4]  # parent_a, parent_b, N(a) in order, then N(b)'s own
    B_THEN_A = [1, 0, 4, 2, 3, 5]

    def test_candidate_column_order(self):
        idx, dist = merge_and_prune(
            self.MID, self.PTS, np.array([0]), np.array([1]), self.NB, 6
        )
        assert idx[0].tolist() == self.A_THEN_B
        assert (dist == 1.0).all()
        idx, _ = merge_and_prune(
            self.MID, self.PTS, np.array([1]), np.array([0]), self.NB, 6
        )
        assert idx[0].tolist() == self.B_THEN_A

    def test_blocking_does_not_change_answers(self):
        """The tied row at both ends of a 3-block input, the mirrored row
        everywhere between; and the same again on a second call."""
        m = 3 * _BLOCK_ROWS
        pa = np.ones(m, dtype=np.int64)
        pb = np.zeros(m, dtype=np.int64)
        pa[[0, -1]], pb[[0, -1]] = 0, 1
        new = np.repeat(self.MID, m, axis=0)
        first = merge_and_prune(new, self.PTS, pa, pb, self.NB, 6)
        assert first[0][0].tolist() == first[0][-1].tolist() == self.A_THEN_B
        assert (first[0][1:-1] == self.B_THEN_A).all()
        again = merge_and_prune(new, self.PTS, pa, pb, self.NB, 6)
        assert np.array_equal(first[0], again[0]) and np.array_equal(first[1], again[1])

    def test_a_tie_across_more_columns_than_float64_sums_exactly(self):
        """62 candidate columns, every one at distance 1: the midpoint of
        points 0 and 1 is the origin, and both parents list 2, 3, 4, 5 over
        and over.  The lowest column wins each pass; one sum of 62 powers of
        two would round up past column 0 and start ``[3, 0, 1]``.  Then the
        last column alone holds a nearer point, so only the second 53-column
        slice has a tie in the first pass."""
        pts = np.vstack([np.eye(3), -np.eye(3)])[[0, 3, 1, 4, 2, 5]]
        pts = np.vstack([pts, [0.0, 0.0, 0.5]])
        nb = np.tile([2, 3, 4, 5], (7, 8))[:, :30]
        origin, a, b = np.zeros((1, 3)), np.array([0]), np.array([1])
        idx, dist = merge_and_prune(origin, pts, a, b, nb, 6)
        assert idx[0].tolist() == [0, 1, 2, 3, 4, 5]
        assert (dist == 1.0).all()
        nb[1, -1] = 6
        idx, dist = merge_and_prune(origin, pts, a, b, nb, 3)
        assert idx[0].tolist() == [6, 0, 1]
        assert dist[0].tolist() == [0.5, 1.0, 1.0]


def test_a_rows_answer_does_not_depend_on_its_block_neighbours():
    """What ``VolutUpsampler.upsample`` rests on when it prunes each distinct
    parent pair once: a row's indices and distances are a function of that
    row alone.  The same rows, each repeated three times and shuffled across
    more than two blocks, answer byte for byte what they answered alone —
    and the answer agrees with the sort-based oracle."""
    g = np.random.default_rng(11)
    pts = np.unique(g.integers(0, 12, (150, 3)), axis=0) / 12.0  # exact ties
    nb = kdtree_knn(pts, pts, 9)[0][:, 1:]
    m = 700
    pa = g.integers(0, len(pts), m)
    pb = nb[pa, g.integers(0, 8, m)]
    new = 0.5 * (pts[pa] + pts[pb])
    alone = merge_and_prune(new, pts, pa, pb, nb, 3)
    _assert_parity(new, pts, pa, pb, nb, 3)

    rows = g.permutation(np.tile(np.arange(m), 3))
    assert len(rows) > 2 * _BLOCK_ROWS
    mixed = merge_and_prune(new[rows], pts, pa[rows], pb[rows], nb, 3)
    assert mixed[0].tobytes() == alone[0][rows].tobytes()
    assert mixed[1].tobytes() == alone[1][rows].tobytes()


# ---------------------------------------------------------------------------
# Blocking: temporaries are per block, not per call.
# ---------------------------------------------------------------------------

def _peak_beyond_outputs(m, pts, nb, k=3):
    g = np.random.default_rng(m)
    pa = g.integers(0, len(pts), m)
    pb = nb[pa, g.integers(0, nb.shape[1], m)]
    new = 0.5 * (pts[pa] + pts[pb])
    tracemalloc.start()
    try:
        idx, dist = merge_and_prune(new, pts, pa, pb, nb, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - idx.nbytes - dist.nbytes


def test_temporaries_do_not_grow_with_rows():
    pts = np.random.default_rng(0).uniform(-1, 1, (2_000, 3))
    nb = kdtree_knn(pts, pts, 9)[0][:, 1:]
    small = _peak_beyond_outputs(6_000, pts, nb)
    large = _peak_beyond_outputs(60_000, pts, nb)
    assert large < 1.5 * small, (small, large)
