"""kNN backend correctness: brute, kdtree, octree all agree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial import (
    BruteBackend,
    KDTreeBackend,
    TwoLayerOctree,
    brute_force_knn,
    get_backend,
    kdtree_knn,
    ordered_query,
    self_neighbors,
)


class TestBruteForce:
    def test_matches_kdtree(self, small_frame):
        pts = small_frame.positions
        q = pts[::7]
        i1, d1 = brute_force_knn(pts, q, 6)
        i2, d2 = kdtree_knn(pts, q, 6)
        assert np.allclose(d1, d2, atol=1e-6)

    def test_self_query_first_neighbor_is_self(self, small_frame):
        pts = small_frame.positions[:100]
        idx, dist = brute_force_knn(pts, pts, 1)
        assert np.array_equal(idx[:, 0], np.arange(100))
        assert np.allclose(dist, 0.0, atol=1e-6)

    def test_sorted_by_distance(self, small_frame):
        _, dist = brute_force_knn(small_frame.positions, small_frame.positions[:20], 8)
        assert (np.diff(dist, axis=1) >= -1e-12).all()

    def test_k_equals_n(self):
        pts = np.random.default_rng(0).uniform(0, 1, (5, 3))
        idx, _ = brute_force_knn(pts, pts[:2], 5)
        assert sorted(idx[0].tolist()) == [0, 1, 2, 3, 4]

    def test_blocking_consistent(self, small_frame):
        pts = small_frame.positions
        q = pts[:300]
        i_small, d_small = brute_force_knn(pts, q, 4, block=32)
        i_big, d_big = brute_force_knn(pts, q, 4, block=100000)
        assert np.allclose(d_small, d_big)

    def test_validation(self, small_frame):
        pts = small_frame.positions
        with pytest.raises(ValueError):
            brute_force_knn(pts, pts[:5], 0)
        with pytest.raises(ValueError):
            brute_force_knn(pts, pts[:5], len(pts) + 1)
        with pytest.raises(ValueError):
            brute_force_knn(pts[:, :2], pts[:5], 1)


class TestBackends:
    @pytest.mark.parametrize("name", ["brute", "kdtree", "octree"])
    def test_factory(self, name, tiny_frame):
        backend = get_backend(name, tiny_frame.positions)
        idx, dist = backend.query(tiny_frame.positions[:10], 3)
        assert idx.shape == (10, 3)
        ref_idx, ref_dist = kdtree_knn(tiny_frame.positions, tiny_frame.positions[:10], 3)
        assert np.allclose(dist, ref_dist, atol=1e-6)

    def test_factory_unknown(self, tiny_frame):
        with pytest.raises(ValueError, match="backend"):
            get_backend("ann", tiny_frame.positions)

    def test_k1_shapes(self, tiny_frame):
        for backend in (
            BruteBackend(tiny_frame.positions),
            KDTreeBackend(tiny_frame.positions),
            TwoLayerOctree(tiny_frame.positions),
        ):
            idx, dist = backend.query(tiny_frame.positions[:5], 1)
            assert idx.shape == (5, 1) and dist.shape == (5, 1)

    def test_kdtree_k_too_large(self, tiny_frame):
        backend = KDTreeBackend(tiny_frame.positions)
        with pytest.raises(ValueError):
            backend.query(tiny_frame.positions[:2], len(tiny_frame) + 1)


class TestNonFiniteRejected:
    """A NaN or infinite coordinate is a ``ValueError`` naming the first
    offending row, at construction and at query, on every backend."""

    @pytest.mark.parametrize("name", ["brute", "kdtree", "octree"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_points(self, name, bad, tiny_frame):
        pts = tiny_frame.positions.copy()
        pts[7, 1] = bad
        pts[30, 0] = bad
        with pytest.raises(ValueError, match="points row 7 is not finite"):
            get_backend(name, pts)

    @pytest.mark.parametrize("name", ["brute", "kdtree", "octree"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_queries(self, name, bad, tiny_frame):
        backend = get_backend(name, tiny_frame.positions)
        q = tiny_frame.positions[:10].copy()
        q[3, 2] = bad
        with pytest.raises(ValueError, match="queries row 3 is not finite"):
            backend.query(q, 2)

    @pytest.mark.parametrize("fn", [brute_force_knn, kdtree_knn])
    def test_one_shot_functions(self, fn, tiny_frame):
        pts = tiny_frame.positions.copy()
        q = pts[:5].copy()
        q[4, 0] = np.inf
        with pytest.raises(ValueError, match="queries row 4"):
            fn(pts, q, 2)
        pts[0, 0] = np.nan
        with pytest.raises(ValueError, match="points row 0"):
            fn(pts, pts[1:3], 2)


@given(
    seed=st.integers(0, 1000),
    n=st.integers(10, 200),
    k=st.integers(1, 8),
)
@settings(max_examples=25, deadline=None)
def test_brute_equals_kdtree_property(seed, n, k):
    g = np.random.default_rng(seed)
    pts = g.uniform(-5, 5, (n, 3))
    q = g.uniform(-5, 5, (17, 3))
    k = min(k, n)
    _, d1 = brute_force_knn(pts, q, k)
    _, d2 = kdtree_knn(pts, q, k)
    assert np.allclose(d1, d2, atol=1e-9)


def assert_same_neighbors(idx_ref, dist_ref, idx, dist, atol=1e-6, next_dist=None):
    """Backends must return the same distances, and the same indices
    wherever the ranking is unambiguous (no distance tie at the slot).

    ``next_dist`` is the reference's (k+1)-th distance per row: on lattice
    data the last slot is often tied with a neighbour that did not make
    the list, which the k columns alone cannot show."""
    assert idx.shape == idx_ref.shape and dist.shape == dist_ref.shape
    assert np.allclose(dist, dist_ref, atol=atol)
    gaps = np.diff(dist_ref, axis=1)
    untied = np.ones_like(idx_ref, dtype=bool)
    untied[:, 1:] &= gaps > atol  # tied with the previous slot
    untied[:, :-1] &= gaps > atol  # tied with the next slot
    if next_dist is not None:
        untied[:, -1] &= next_dist - dist_ref[:, -1] > atol
    assert np.array_equal(idx[untied], idx_ref[untied])


class TestThreeBackendParity:
    """brute, kdtree, and octree agree on indices and distances (the
    docstring's oracle claim, enforced on random clouds)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_random_clouds(self, seed, k):
        g = np.random.default_rng(seed)
        pts = g.uniform(-5, 5, (400, 3))
        queries = g.uniform(-6, 6, (50, 3))  # some queries off the cloud
        idx_ref, dist_ref = brute_force_knn(pts, queries, k)
        for name in ("kdtree", "octree"):
            idx, dist = get_backend(name, pts).query(queries, k)
            assert_same_neighbors(idx_ref, dist_ref, idx, dist)

    def test_clustered_cloud(self):
        """Octree pruning must stay exact when density is very uneven."""
        g = np.random.default_rng(42)
        clusters = [
            g.normal(loc, 0.05, (150, 3))
            for loc in ([0, 0, 0], [3, 3, 3], [-3, 1, 2])
        ]
        pts = np.vstack(clusters + [g.uniform(-4, 4, (50, 3))])
        queries = pts[::5]
        idx_ref, dist_ref = brute_force_knn(pts, queries, 6)
        for name in ("kdtree", "octree"):
            idx, dist = get_backend(name, pts).query(queries, 6)
            assert_same_neighbors(idx_ref, dist_ref, idx, dist)

    @given(seed=st.integers(0, 500), n=st.integers(10, 300), k=st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_property_all_backends(self, seed, n, k):
        g = np.random.default_rng(seed)
        pts = g.uniform(-5, 5, (n, 3))
        queries = g.uniform(-5, 5, (13, 3))
        k = min(k, n)
        idx_ref, dist_ref = brute_force_knn(pts, queries, k)
        for name in ("kdtree", "octree"):
            idx, dist = get_backend(name, pts).query(queries, k)
            assert_same_neighbors(idx_ref, dist_ref, idx, dist)


def contract_oracle(pts, queries, k):
    """The tie contract by brute force: every pair's ``(dx² + dy²) + dz²`` —
    the sum the octree and cKDTree form — then ``lexsort((index, distance))``."""
    sq = (queries[:, None, :] - pts[None, :, :]) ** 2
    d = np.sqrt((sq[..., 0] + sq[..., 1]) + sq[..., 2])
    idx = np.broadcast_to(np.arange(len(pts)), d.shape)
    order = np.lexsort((idx, d))[:, :k]
    return order, np.take_along_axis(d, order, axis=1)


class CountingIndex:
    """A backend that records the column count of every ``query``."""

    def __init__(self, backend):
        self.backend, self.points, self.widths = backend, backend.points, []

    def query(self, queries, k):
        self.widths.append(k)
        return self.backend.query(queries, k)


def lattice(n_axis=5, spacing=0.37):
    axis = np.arange(n_axis)
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3) * spacing


class TestTieContract:
    """``ordered_query`` is the k smallest by (distance, index): the octree and
    cKDTree equal the brute-force oracle index for index on lattice clouds,
    where both would otherwise pick different equidistant neighbours."""

    @pytest.mark.parametrize("name", ["kdtree", "octree"])
    @pytest.mark.parametrize("k", [1, 3, 7, 9])
    def test_scaled_integer_grid(self, name, k):
        pts = lattice()
        queries = np.vstack([pts, pts[::7] + 0.37 / 2, pts[::11] + (0.37 / 2, 0.0, 0.0)])
        idx, dist = ordered_query(get_backend(name, pts), queries, k)
        want_idx, want_dist = contract_oracle(pts, queries, k)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dist, want_dist)

    @pytest.mark.parametrize("name", ["kdtree", "octree"])
    def test_exact_duplicates(self, name):
        g = np.random.default_rng(3)
        pts = np.repeat(lattice(4), 3, axis=0)[g.permutation(3 * 64)]
        for k in (2, 4, 9):
            idx, dist = ordered_query(get_backend(name, pts), pts, k)
            want_idx, want_dist = contract_oracle(pts, pts, k)
            assert np.array_equal(idx, want_idx)
            assert np.array_equal(dist, want_dist)

    @pytest.mark.parametrize("name", ["kdtree", "octree"])
    def test_tie_straddling_the_kth_column_is_asked_again(self, name):
        """A cell centre is equidistant from its 8 corners: at k = 3 the tie
        runs past the k + 1 columns fetched, so the row is re-queried wider."""
        pts = lattice()
        centres = pts[pts.max(axis=1) < 4 * 0.37] + 0.37 / 2
        spy = CountingIndex(get_backend(name, pts))
        idx, dist = ordered_query(spy, centres, 3)
        assert spy.widths[0] == 4 and len(spy.widths) > 1 and spy.widths[1] > 4
        want_idx, want_dist = contract_oracle(pts, centres, 3)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dist, want_dist)

    @pytest.mark.parametrize("name", ["kdtree", "octree"])
    def test_k_equals_n(self, name):
        pts = lattice(3)
        idx, dist = ordered_query(get_backend(name, pts), pts[:5], len(pts))
        want_idx, want_dist = contract_oracle(pts, pts[:5], len(pts))
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dist, want_dist)

    def test_brute_agrees_on_distances_only(self):
        """Brute's ``‖q‖² − 2q·p + ‖p‖²`` is not bit-equal to the other two,
        so its parity stays at (squared) distance level."""
        pts = lattice()
        _, dist = ordered_query(get_backend("brute", pts), pts, 9)
        want = contract_oracle(pts, pts, 9)[1]
        assert np.allclose(dist**2, want**2, rtol=0, atol=1e-12)

    def test_validation(self):
        backend = get_backend("kdtree", lattice(3))
        for k in (0, 28):
            with pytest.raises(ValueError):
                ordered_query(backend, lattice(3), k)

    @pytest.mark.parametrize("name", ["brute", "kdtree", "octree"])
    def test_self_neighbors_drop_the_point_wherever_it_sits(self, name):
        """Four copies of every point: at k = 2 a point with three smaller
        twins is not fetched at all, and the farthest column goes instead."""
        pts = np.tile(lattice(3), (4, 1))
        nb = self_neighbors(get_backend(name, pts), 2)
        assert nb.shape == (len(pts), 2)
        assert not (nb == np.arange(len(pts))[:, None]).any()
        want = contract_oracle(pts, pts, 3)[0]
        want = np.array([[j for j in row if j != i][:2] for i, row in enumerate(want)])
        assert np.array_equal(nb, want)
