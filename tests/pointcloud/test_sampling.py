"""Downsampling strategy tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pointcloud import (
    PointCloud,
    farthest_point_sample,
    random_downsample_count,
    voxel_downsample,
)


class TestRandomDownsampleCount:
    def test_exact_count(self, random_cloud):
        assert len(random_downsample_count(random_cloud, 123, seed=0)) == 123

    def test_count_above_n_returns_copy(self, random_cloud):
        out = random_downsample_count(random_cloud, 10_000, seed=0)
        assert len(out) == len(random_cloud)

    def test_negative_count_rejected(self, random_cloud):
        with pytest.raises(ValueError):
            random_downsample_count(random_cloud, -1)

    def test_subset_of_original(self, random_cloud):
        out = random_downsample_count(random_cloud, 50, seed=5)
        orig = {tuple(p) for p in random_cloud.positions}
        assert all(tuple(p) in orig for p in out.positions)

    def test_zero_count_keeps_nothing(self, random_cloud):
        out = random_downsample_count(random_cloud, 0, seed=0)
        assert len(out) == 0 and out.has_colors

    def test_full_count_is_an_independent_copy(self, random_cloud):
        out = random_downsample_count(random_cloud, len(random_cloud), seed=0)
        assert np.array_equal(out.positions, random_cloud.positions)
        assert not np.shares_memory(out.positions, random_cloud.positions)

    def test_deterministic_with_seed(self, random_cloud):
        a = random_downsample_count(random_cloud, 100, seed=42)
        b = random_downsample_count(random_cloud, 100, seed=42)
        assert np.array_equal(a.positions, b.positions)

    def test_seeds_pick_different_subsets(self, random_cloud):
        a = random_downsample_count(random_cloud, 100, seed=1)
        b = random_downsample_count(random_cloud, 100, seed=2)
        assert not np.array_equal(a.positions, b.positions)

    def test_colors_follow_their_points(self, random_cloud):
        out = random_downsample_count(random_cloud, 80, seed=3)
        row = {tuple(p): tuple(c) for p, c in zip(random_cloud.positions, random_cloud.colors)}
        assert all(row[tuple(p)] == tuple(c) for p, c in zip(out.positions, out.colors))

    def test_keeps_source_order(self):
        pc = PointCloud(np.arange(300, dtype=float).repeat(3).reshape(-1, 3))
        out = random_downsample_count(pc, 40, seed=6)
        assert (np.diff(out.positions[:, 0]) > 0).all()

    def test_generator_seed_continues_its_stream(self, random_cloud):
        g = np.random.default_rng(8)
        first = random_downsample_count(random_cloud, 60, seed=g)
        second = random_downsample_count(random_cloud, 60, seed=g)
        again = random_downsample_count(random_cloud, 60, seed=8)
        assert np.array_equal(first.positions, again.positions)
        assert not np.array_equal(first.positions, second.positions)

    @pytest.mark.parametrize("generator", [False, True])
    @pytest.mark.parametrize("k", [0, 1, 499, 500, 505])
    def test_equals_the_sorted_draw(self, random_cloud, k, generator):
        """The mask over the draw selects what sorting the draw did."""
        n = len(random_cloud)

        def seed():
            return np.random.default_rng(9) if generator else 9

        out = random_downsample_count(random_cloud, k, seed=seed())
        want = random_cloud
        if k < n:
            draw = np.random.default_rng(seed()).choice(n, k, replace=False)
            want = random_cloud.select(np.sort(draw))
        assert np.array_equal(out.positions, want.positions)
        assert np.array_equal(out.colors, want.colors)


class TestVoxelDownsample:
    def test_reduces_points(self, random_cloud):
        out = voxel_downsample(random_cloud, 0.5)
        assert 0 < len(out) < len(random_cloud)

    def test_large_voxel_gives_single_centroid(self, random_cloud):
        out = voxel_downsample(random_cloud, 100.0)
        assert len(out) == 1
        assert np.allclose(out.positions[0], random_cloud.centroid(), atol=1e-9)

    def test_tiny_voxel_keeps_all(self, random_cloud):
        out = voxel_downsample(random_cloud, 1e-6)
        assert len(out) == len(random_cloud)

    def test_colors_averaged(self):
        pc = PointCloud(
            np.array([[0.0, 0, 0], [0.01, 0, 0]]),
            np.array([[0, 0, 0], [200, 100, 50]], dtype=np.uint8),
        )
        out = voxel_downsample(pc, 1.0)
        assert len(out) == 1
        assert out.colors[0].tolist() == [100, 50, 25]

    def test_invalid_size(self, random_cloud):
        for size in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=f"got {size}"):
                voxel_downsample(random_cloud, size)

    def test_empty_cloud(self):
        assert len(voxel_downsample(PointCloud(np.zeros((0, 3))), 1.0)) == 0

    def test_colorless_stays_colorless(self):
        pc = PointCloud(np.random.default_rng(0).uniform(0, 1, (50, 3)))
        assert not voxel_downsample(pc, 0.3).has_colors

    def test_one_point_per_occupied_voxel(self, random_cloud):
        """A centroid stays in its (convex) voxel, so the voxel keys of the
        output are distinct and are exactly the occupied keys of the input."""
        size = 0.4
        lo, _ = random_cloud.bounds()
        out = voxel_downsample(random_cloud, size)
        keys_in = {tuple(k) for k in np.floor((random_cloud.positions - lo) / size).astype(int)}
        keys_out = [tuple(k) for k in np.floor((out.positions - lo) / size).astype(int)]
        assert len(set(keys_out)) == len(keys_out)
        assert set(keys_out) == keys_in

    def test_every_input_point_is_near_a_representative(self, small_frame):
        from repro.metrics import p2p_distances

        size = 0.05
        out = voxel_downsample(small_frame, size)
        assert p2p_distances(small_frame, out).max() <= np.sqrt(3) * size + 1e-12

    def test_count_never_grows_with_voxel_size(self, small_frame):
        counts = [len(voxel_downsample(small_frame, s)) for s in (0.01, 0.02, 0.05, 0.1, 0.5)]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > counts[-1]


class TestFPS:
    def test_exact_count(self, random_cloud):
        assert len(farthest_point_sample(random_cloud, 20, seed=0)) == 20

    def test_zero_target(self, random_cloud):
        assert len(farthest_point_sample(random_cloud, 0)) == 0

    def test_target_above_n(self, random_cloud):
        out = farthest_point_sample(random_cloud, 10_000)
        assert len(out) == len(random_cloud)

    def test_negative_rejected(self, random_cloud):
        with pytest.raises(ValueError):
            farthest_point_sample(random_cloud, -2)

    def test_spreads_better_than_random(self, small_frame):
        """FPS's defining property: larger minimum pairwise spacing."""
        from repro.spatial import kdtree_knn

        def min_spacing(cloud):
            _, d = kdtree_knn(cloud.positions, cloud.positions, 2)
            return d[:, 1].min()

        fps = farthest_point_sample(small_frame, 100, seed=0)
        rnd = random_downsample_count(small_frame, 100, seed=0)
        assert min_spacing(fps) > min_spacing(rnd)

    def test_deterministic(self, random_cloud):
        a = farthest_point_sample(random_cloud, 30, seed=9)
        b = farthest_point_sample(random_cloud, 30, seed=9)
        assert np.array_equal(a.positions, b.positions)

    def test_colors_follow_their_points(self, random_cloud):
        out = farthest_point_sample(random_cloud, 25, seed=1)
        row = {tuple(p): tuple(c) for p, c in zip(random_cloud.positions, random_cloud.colors)}
        assert all(row[tuple(p)] == tuple(c) for p, c in zip(out.positions, out.colors))

    def test_second_pick_is_an_end_of_a_line(self):
        """Whatever the first pick, the point farthest from it on a segment
        is one of the segment's ends."""
        line = PointCloud(np.c_[np.linspace(0, 1, 41), np.zeros(41), np.zeros(41)])
        for seed in range(8):
            xs = farthest_point_sample(line, 2, seed=seed).positions[:, 0]
            assert 0.0 in xs or 1.0 in xs

    def test_generator_seed_matches_integer_seed(self, random_cloud):
        a = farthest_point_sample(random_cloud, 15, seed=np.random.default_rng(4))
        b = farthest_point_sample(random_cloud, 15, seed=4)
        assert np.array_equal(a.positions, b.positions)


@given(n_target=st.integers(0, 90), seed=st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_random_count_returns_distinct_source_rows(n_target, seed):
    g = np.random.default_rng(1)
    cloud = PointCloud(g.uniform(-1, 1, (80, 3)))
    out = random_downsample_count(cloud, n_target, seed=seed)
    assert len(out) == min(n_target, 80)
    rows = {tuple(p) for p in cloud.positions}
    picked = [tuple(p) for p in out.positions]
    assert len(set(picked)) == len(picked)
    assert set(picked) <= rows


@given(n_target=st.integers(1, 60), seed=st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_fps_returns_subset_without_duplicates(n_target, seed):
    g = np.random.default_rng(0)
    cloud = PointCloud(g.uniform(-1, 1, (80, 3)))
    out = farthest_point_sample(cloud, n_target, seed=seed)
    assert len(out) == min(n_target, 80)
    rows = {tuple(p) for p in out.positions}
    assert len(rows) == len(out)
