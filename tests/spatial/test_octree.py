"""Cell-batched octree: exactness against the kd-tree oracle, structure, memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pointcloud import make_video
from repro.spatial import TwoLayerOctree, kdtree_knn
from repro.streaming.encoder import decode_frame_compressed, encode_frame_compressed

from .test_knn import assert_same_neighbors

#: octree distances are difference-based, like the kd-tree's
ATOL = 1e-12


@pytest.fixture(scope="module")
def decoded_frame() -> np.ndarray:
    """~6,000 voxel centres: the benchmark's regime, lattice ties included."""
    frame = make_video("longdress", n_points=12_000, n_frames=1).frame(0)
    payload = encode_frame_compressed(frame, 0.5, depth=10, seed=0)
    return decode_frame_compressed(payload).positions


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
