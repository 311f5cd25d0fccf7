"""Cell-batched octree: exactness against the kd-tree oracle and against its
own predecessor (``reference_octree``), batch independence, structure, memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pointcloud import make_video
from repro.spatial import TwoLayerOctree, get_backend, kdtree_knn, ordered_query
from repro.streaming.encoder import decode_frame_compressed, encode_frame_compressed

from .reference_octree import ReferenceOctree
from .test_knn import assert_same_neighbors

#: octree distances are difference-based, like the kd-tree's
ATOL = 1e-12


@pytest.fixture(scope="module")
def decoded_frame() -> np.ndarray:
    """~6,000 voxel centres: the benchmark's regime, lattice ties included."""
    frame = make_video("longdress", n_points=12_000, n_frames=1).frame(0)
    payload = encode_frame_compressed(frame, 0.5, depth=10, seed=0)
    return decode_frame_compressed(payload).positions


@pytest.fixture(scope="module")
def bench_frames() -> dict:
    """The benchmark's eight frame shapes: its four videos at 12,000 points,
    decoded at density 0.5 (the ×2 client, ~6,000 points) and 0.125 (×8)."""
    frames = {}
    for vi, name in enumerate(("longdress", "loot", "haggle", "lab")):
        frame = make_video(name, n_points=12_000, n_frames=1, seed=11).frame(0)
        for density in (0.5, 0.125):
            payload = encode_frame_compressed(frame, density, depth=10, seed=11_000 + 100 * vi)
            frames[name, density] = decode_frame_compressed(payload).positions
    return frames


def assert_matches_reference(pts, queries, k, levels=None):
    """Distances bit-equal to the PR 13 kernel's, the same pruning, and the
    same indices on every row whose k + 1 nearest distances are distinct."""
    oc, ref = TwoLayerOctree(pts, levels=levels), ReferenceOctree(pts, levels=levels)
    idx, dist = oc.query(queries, k)
    ref_idx, ref_dist = ref.query(queries, k)
    assert np.array_equal(dist, ref_dist)
    for key in ("ring_passes", "candidate_pairs", "exhaustive_rows"):
        assert oc.query_stats[key] == ref.query_stats[key]
    wider = ref.query(queries, min(k + 1, len(pts)))[1]
    untied = (np.diff(wider, axis=1) > 0).all(axis=1)
    assert np.array_equal(idx[untied], ref_idx[untied])
    return oc


def assert_matches_kdtree(pts, queries, k, **index_kwargs):
    oc = TwoLayerOctree(pts, **index_kwargs)
    idx, dist = oc.query(queries, k)
    idx_ref, dist_ref = kdtree_knn(pts, queries, min(k + 1, len(pts)))
    next_dist = dist_ref[:, k] if k < len(pts) else None
    assert_same_neighbors(
        idx_ref[:, :k], dist_ref[:, :k], idx, dist, atol=ATOL, next_dist=next_dist
    )
    # the indices really are at the reported distances (ties included)
    assert np.allclose(np.linalg.norm(pts[idx] - queries[:, None], axis=2), dist, atol=ATOL)
    return oc


class TestExactness:
    def test_matches_kdtree_on_frame(self, small_frame):
        pts = small_frame.positions
        assert_matches_kdtree(pts, pts[::3], 5)

    def test_decoded_frame_lattice_ties(self, decoded_frame):
        oc = assert_matches_kdtree(decoded_frame, decoded_frame, 9)
        assert oc.query_stats["exhaustive_rows"] == 0

    def test_external_queries(self, small_frame):
        """Queries far outside the indexed cloud still return exact kNN."""
        g = np.random.default_rng(0)
        assert_matches_kdtree(small_frame.positions, g.uniform(-10, 10, (50, 3)), 3)

    def test_queries_ten_spans_outside(self, small_frame):
        pts = small_frame.positions
        span = pts.max(axis=0) - pts.min(axis=0)
        oc = assert_matches_kdtree(pts, pts[:40] + 10 * span, 4)
        assert oc.query_stats["exhaustive_rows"] == 40

    def test_clustered_distribution(self):
        """Highly clustered points stress the ring-expansion logic."""
        g = np.random.default_rng(1)
        clusters = [g.normal(c, 0.01, (80, 3)) for c in ((0, 0, 0), (5, 5, 5), (-3, 4, 0))]
        pts = np.vstack(clusters)
        assert_matches_kdtree(pts, pts[::5], 7)

    def test_collinear_degenerate_cloud(self):
        pts = np.zeros((50, 3))
        pts[:, 0] = np.linspace(0, 1, 50)
        assert_matches_kdtree(pts, pts[:10], 4)

    def test_elongated_bounding_box(self):
        """1 : 10 : 1 — cubic cells leave most of the cube empty."""
        g = np.random.default_rng(3)
        pts = g.uniform(0, 1, (1500, 3)) * (1.0, 10.0, 1.0)
        assert_matches_kdtree(pts, pts, 9)

    def test_duplicated_points(self):
        g = np.random.default_rng(4)
        pts = np.repeat(g.uniform(0, 1, (60, 3)), 5, axis=0)
        _, dist = TwoLayerOctree(pts).query(pts, 5)
        assert np.array_equal(dist, np.zeros_like(dist))
        assert_matches_kdtree(pts, pts, 12)

    def test_identical_points(self):
        pts = np.full((30, 3), 2.5)
        assert_matches_kdtree(pts, pts[:4] + (0.0, 1.0, 0.0), 30)

    def test_all_queries_in_one_cell(self, small_frame):
        pts = small_frame.positions
        oc = TwoLayerOctree(pts)
        g = np.random.default_rng(5)
        q = pts[17] + g.uniform(0, 1e-3, (300, 3)) * oc._cell_size
        assert len(np.unique(oc._flat(oc._cell_of(q)))) == 1
        assert_matches_kdtree(pts, q, 6)

    @pytest.mark.parametrize("levels", [None, 1, 4])
    def test_k_one_and_k_equals_n(self, levels):
        g = np.random.default_rng(2)
        pts = g.uniform(0, 1, (9, 3))
        assert_matches_kdtree(pts, pts, 1, levels=levels)
        assert_matches_kdtree(pts, g.uniform(-1, 2, (5, 3)), 9, levels=levels)

    def test_k_equals_n(self):
        g = np.random.default_rng(2)
        pts = g.uniform(0, 1, (9, 3))
        oc = TwoLayerOctree(pts)
        idx, _ = oc.query(pts[:3], 9)
        for row in idx:
            assert sorted(row.tolist()) == list(range(9))


class TestBatchIndependence:
    """A point's neighbours are its own: among equidistant candidates the
    kernel keeps candidate-slot order, fixed by the query's cell and ring.
    (``argpartition``'s choice moved with the padded block width — on this
    frame 14 tied rows answered differently alone and 45 rows across five
    sub-batches.)"""

    def test_tied_rows_answer_the_same_alone_and_in_any_batch(self, decoded_frame):
        pts = decoded_frame
        oc = TwoLayerOctree(pts)
        idx, dist = oc.query(pts, 9)
        wider = oc.query(pts, 10)[1]
        tied = np.flatnonzero((np.diff(wider, axis=1) == 0).any(axis=1))
        assert len(tied) > 50  # a decoded lattice has exact ties
        for i in tied:
            alone_idx, alone_dist = oc.query(pts[i : i + 1], 9)
            assert np.array_equal(alone_idx[0], idx[i])
            assert np.array_equal(alone_dist[0], dist[i])
        g = np.random.default_rng(0)
        for _ in range(5):
            sub = np.sort(g.choice(len(pts), len(pts) // 3, replace=False))
            sub_idx, sub_dist = oc.query(pts[sub], 9)
            assert np.array_equal(sub_idx, idx[sub])
            assert np.array_equal(sub_dist, dist[sub])

    def test_the_tie_contract_is_batch_independent_and_backend_independent(
        self, decoded_frame
    ):
        """Under ``ordered_query`` the kd-tree keeps the property too, and
        both backends give one answer, though their raw ties differ."""
        pts = decoded_frame
        kd, oc = get_backend("kdtree", pts), TwoLayerOctree(pts)
        assert not np.array_equal(kd.query(pts, 9)[0], oc.query(pts, 9)[0])
        idx, dist = ordered_query(kd, pts, 9)
        oc_idx, oc_dist = ordered_query(oc, pts, 9)
        assert np.array_equal(idx, oc_idx) and np.array_equal(dist, oc_dist)
        tied = np.flatnonzero((np.diff(kd.query(pts, 10)[1], axis=1) == 0).any(axis=1))
        for i in tied[:60]:
            alone_idx, alone_dist = ordered_query(kd, pts[i : i + 1], 9)
            assert np.array_equal(alone_idx[0], idx[i])
            assert np.array_equal(alone_dist[0], dist[i])
        g = np.random.default_rng(1)
        for _ in range(5):
            sub = np.sort(g.choice(len(pts), len(pts) // 3, replace=False))
            for index in (kd, oc):
                sub_idx, sub_dist = ordered_query(index, pts[sub], 9)
                assert np.array_equal(sub_idx, idx[sub])
                assert np.array_equal(sub_dist, dist[sub])


class TestReferenceParity:
    """The predecessor kernel (``argpartition`` + stable sort, ``searchsorted``
    runs, per-block acceptance) is the oracle of the rewrite."""

    def test_bench_frame_shapes(self, bench_frames):
        assert len(bench_frames) == 8
        for pts in bench_frames.values():
            oc = assert_matches_reference(pts, pts, 9)
            assert oc.query_stats["exhaustive_rows"] == 0
            assert_matches_kdtree(pts, pts[::4], 9)

    @pytest.mark.parametrize("levels", [1, 3, 7, 8, 12])
    def test_explicit_depths_with_and_without_the_table(self, bench_frames, levels):
        pts = bench_frames["haggle", 0.125]
        oc = assert_matches_reference(pts, pts[::3], 5, levels=levels)
        assert (oc._cell_start is None) == (levels > TwoLayerOctree.MAX_AUTO_LEVELS)

    def test_external_and_single_cell_queries(self, small_frame):
        pts = small_frame.positions
        g = np.random.default_rng(8)
        assert_matches_reference(pts, g.uniform(-3, 3, (200, 3)), 4)
        assert_matches_reference(pts, pts[5] + g.uniform(0, 1e-4, (100, 3)), 6)
        assert_matches_reference(pts[:9], pts[:9], 9)


class TestStructure:
    def test_two_layers_give_64_cells(self, small_frame):
        oc = TwoLayerOctree(small_frame.positions, levels=2)
        assert oc.cells_per_axis == 4
        assert oc.stats()["cells"] == 64

    def test_deeper_levels(self, small_frame):
        oc = assert_matches_kdtree(
            small_frame.positions, small_frame.positions[:40], 5, levels=3
        )
        assert oc.cells_per_axis == 8
        assert oc.stats()["cells"] == 512

    def test_automatic_depth_follows_the_surface(self, decoded_frame):
        """A few points per *occupied* cell, though most cells are empty."""
        oc = TwoLayerOctree(decoded_frame)
        s = oc.stats()
        assert oc.levels >= 2
        assert 1.0 <= s["occupied_mean_bucket"] <= oc.TARGET_OCCUPANCY
        assert s["occupied_mean_bucket"] == pytest.approx(len(decoded_frame) / s["occupied"])
        shallower = TwoLayerOctree(decoded_frame, levels=oc.levels - 1).stats()
        assert shallower["occupied_mean_bucket"] > oc.TARGET_OCCUPANCY

    def test_cells_are_cubes(self):
        g = np.random.default_rng(6)
        pts = g.uniform(0, 1, (500, 3)) * (1.0, 10.0, 1.0)
        oc = TwoLayerOctree(pts, levels=3)
        assert oc._cell_size == pytest.approx(np.ptp(pts[:, 1]) / 8)
        assert oc._cell_of(pts)[:, [0, 2]].max() == 0  # one cell thick off the long axis

    def test_bucket_counts_sum_to_n(self, small_frame):
        oc = TwoLayerOctree(small_frame.positions)
        s = oc.stats()
        assert s["mean_bucket"] * s["cells"] == pytest.approx(len(small_frame))

    def test_query_stats(self, small_frame):
        pts = small_frame.positions
        oc = TwoLayerOctree(pts)
        assert oc.query_stats == {}
        oc.query(pts, 5)
        first = dict(oc.query_stats)
        assert first["ring_passes"] >= 1
        assert first["candidate_pairs"] >= 5 * len(pts)
        assert first["exhaustive_rows"] == 0
        oc.query(pts[:10], 5)  # counters are per query, not cumulative
        assert oc.query_stats["candidate_pairs"] < first["candidate_pairs"]
        # deeper cells, fewer candidate pairs for the same answer
        shallow = TwoLayerOctree(pts, levels=1)
        shallow.query(pts, 5)
        assert shallow.query_stats["candidate_pairs"] == len(pts) ** 2
        assert first["candidate_pairs"] < len(pts) ** 2 / 4

    def test_query_stats_say_what_each_pass_did(self, small_frame):
        pts = small_frame.positions
        oc = TwoLayerOctree(pts)
        oc.query(np.vstack([pts, pts[:7] + 50.0]), 5)
        stats = oc.query_stats
        rings, rows, accepted, pairs = zip(*stats["passes"])
        assert rings[:-1] == tuple(range(1, stats["ring_passes"] + 1))
        assert rings[-1] == oc.cells_per_axis  # the exhaustive pass
        assert rows[0] == len(pts) + 7 and rows[-1] == stats["exhaustive_rows"] == 7
        assert all(r - a == nxt for r, a, nxt in zip(rows, accepted, rows[1:]))
        assert sum(accepted) == len(pts) + 7
        assert sum(pairs) == stats["candidate_pairs"] and pairs[-1] == 7 * len(pts)

    def test_first_ring_settles_most_of_a_bench_frame(self, bench_frames):
        """Read off a run what the next lever could be: on the ×2 frames the
        first ring accepts 0.73–0.95 of the rows and no row needs a fourth."""
        for (_, density), pts in bench_frames.items():
            if density != 0.5:
                continue
            oc = TwoLayerOctree(pts)
            oc.query(pts, 9)
            (_, rows, accepted, _), *_ = oc.query_stats["passes"]
            assert accepted / rows >= 0.65
            assert oc.query_stats["ring_passes"] <= 3
            assert oc.query_stats["exhaustive_rows"] == 0

    def test_invalid_levels(self, small_frame):
        with pytest.raises(ValueError):
            TwoLayerOctree(small_frame.positions, levels=0)
        with pytest.raises(ValueError):
            TwoLayerOctree(small_frame.positions, levels=21)

    def test_invalid_k(self, small_frame):
        oc = TwoLayerOctree(small_frame.positions)
        with pytest.raises(ValueError):
            oc.query(small_frame.positions[:2], 0)
        with pytest.raises(ValueError):
            oc.query(small_frame.positions[:2], len(small_frame) + 1)

    def test_invalid_query_shape(self, small_frame):
        oc = TwoLayerOctree(small_frame.positions)
        with pytest.raises(ValueError):
            oc.query(small_frame.positions[:, :2], 2)


class TestMemory:
    """Temporaries are blocked: a 6,000-point self-query stays under 8 MiB."""

    LIMIT = 8 * 2**20

    @staticmethod
    def _peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_self_query_on_decoded_frame(self, decoded_frame):
        assert len(decoded_frame) > 5_900
        peak = self._peak(lambda: TwoLayerOctree(decoded_frame).query(decoded_frame, 9))
        assert peak < self.LIMIT

    def test_deep_explicit_grid_builds_no_offset_table(self):
        """The cell-offset table stops at the automatic depths (2**21 + 1
        entries); a deeper explicit grid bisects and stays small."""
        g = np.random.default_rng(9)
        pts = g.uniform(0, 1, (500, 3))
        built = []
        assert self._peak(lambda: built.append(TwoLayerOctree(pts, levels=12))) < 2**20
        (deep,) = built
        assert deep._cell_start is None
        auto = TwoLayerOctree(pts)
        assert len(auto._cell_start) == auto.cells_per_axis ** 3 + 1
        for k in (1, 9):
            idx, dist = deep.query(pts, k)
            auto_idx, auto_dist = auto.query(pts, k)
            assert np.array_equal(dist, auto_dist)
            assert np.array_equal(idx, auto_idx)  # a uniform cloud has no ties
        assert TwoLayerOctree(pts, levels=20).cells_per_axis == 2**20

    def test_exhaustive_fallback(self):
        """Clusters smaller than k: no ring holds k points, every row falls
        through to the scan of all 6,000 points."""
        g = np.random.default_rng(7)
        centres = g.uniform(0, 1, (40, 3))
        pts = (centres[:, None, :] + g.normal(0, 1e-4, (40, 150, 3))).reshape(-1, 3)
        oc = TwoLayerOctree(pts)
        q = pts[::10]
        peak = self._peak(lambda: oc.query(q, 160))
        assert oc.query_stats["exhaustive_rows"] == len(q)
        assert peak < self.LIMIT
        _, dist = oc.query(q[:50], 160)
        assert np.allclose(dist, kdtree_knn(pts, q[:50], 160)[1], atol=ATOL)


@given(
    seed=st.integers(0, 500),
    n=st.integers(20, 300),
    k=st.integers(1, 10),
    levels=st.integers(1, 3),
)
@settings(max_examples=25, deadline=None)
def test_octree_exactness_property(seed, n, k, levels):
    """The octree is exact for any cloud, k, and depth."""
    g = np.random.default_rng(seed)
    pts = g.normal(0, 1, (n, 3)) * g.uniform(0.1, 3.0, 3)
    q = g.normal(0, 1.5, (11, 3))
    k = min(k, n)
    oc = TwoLayerOctree(pts, levels=levels)
    _, d_oc = oc.query(q, k)
    _, d_kd = kdtree_knn(pts, q, k)
    assert np.allclose(d_oc, d_kd, atol=ATOL)


@given(seed=st.integers(0, 500), n=st.integers(12, 400), k=st.integers(1, 12))
@settings(max_examples=25, deadline=None)
def test_depth_does_not_change_distances_property(seed, n, k):
    """Depth only prunes: levels 1…5 and the automatic depth return the
    same distances, bit for bit (the kernel's arithmetic is per pair)."""
    g = np.random.default_rng(seed)
    pts = np.round(g.normal(0, 1, (n, 3)) * g.uniform(0.1, 3.0, 3), 2)  # ties
    q = np.vstack([pts[: n // 2], g.normal(0, 2.0, (7, 3))])
    _, d_auto = TwoLayerOctree(pts).query(q, k)
    assert np.allclose(d_auto, kdtree_knn(pts, q, k)[1], atol=ATOL)
    for levels in range(1, 6):
        _, d = TwoLayerOctree(pts, levels=levels).query(q, k)
        assert np.array_equal(d, d_auto)


@given(
    seed=st.integers(0, 500),
    n=st.integers(12, 400),
    k=st.integers(1, 12),
    levels=st.sampled_from([None, 1, 2, 3, 5, 9]),
    lattice=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_reference_parity_property(seed, n, k, levels, lattice):
    """Both clouds of the properties above — anisotropic Gaussian, and rounded
    to a lattice so distances tie — through the rewrite and its predecessor."""
    g = np.random.default_rng(seed)
    pts = g.normal(0, 1, (n, 3)) * g.uniform(0.1, 3.0, 3)
    if lattice:
        pts = np.round(pts, 2)
    q = np.vstack([pts[: n // 2], g.normal(0, 2.0, (7, 3))])
    assert_matches_reference(pts, q, min(k, n), levels=levels)
