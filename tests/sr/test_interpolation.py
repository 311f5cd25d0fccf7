"""Dilated interpolation tests (Eq. 1 semantics, ratios, backends)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pointcloud import PointCloud, make_video
from repro.sr import VolutUpsampler, interpolate
from repro.streaming.encoder import decode_frame_compressed, encode_frame_compressed


class TestRatios:
    def test_integer_ratio_point_count(self, small_frame):
        r = interpolate(small_frame, 2.0, seed=0)
        assert len(r.upsampled) == 2 * len(small_frame)
        assert r.n_new == len(small_frame)

    def test_fractional_ratio(self, small_frame):
        r = interpolate(small_frame, 1.37, seed=0)
        expected = len(small_frame) + round(0.37 * len(small_frame))
        assert len(r.upsampled) == expected

    def test_ratio_one_is_identity_count(self, small_frame):
        r = interpolate(small_frame, 1.0, seed=0)
        assert len(r.upsampled) == len(small_frame)
        assert r.n_new == 0

    def test_large_ratio(self, tiny_frame):
        r = interpolate(tiny_frame, 8.0, seed=0)
        assert len(r.upsampled) == 8 * len(tiny_frame)

    def test_ratio_below_one_rejected(self, small_frame):
        with pytest.raises(ValueError):
            interpolate(small_frame, 0.5)

    def test_continuous_ratios_all_work(self, tiny_frame):
        """The property the continuous ABR depends on: any ratio ≥ 1."""
        for ratio in (1.01, 1.5, 2.25, 3.7, 5.55):
            r = interpolate(tiny_frame, ratio, seed=0)
            assert len(r.upsampled) == len(tiny_frame) + round(
                (ratio - 1) * len(tiny_frame)
            )


class TestGeometry:
    def test_new_points_are_parent_midpoints(self, small_frame):
        r = interpolate(small_frame, 2.0, seed=0)
        mid = 0.5 * (
            small_frame.positions[r.parent_a] + small_frame.positions[r.parent_b]
        )
        assert np.allclose(r.new_positions, mid)

    def test_source_points_preserved(self, small_frame):
        r = interpolate(small_frame, 2.0, seed=0)
        assert np.array_equal(
            r.upsampled.positions[: r.n_source], small_frame.positions
        )

    def test_parents_within_dilated_neighborhood(self, small_frame):
        k, d = 4, 2
        r = interpolate(small_frame, 2.0, k=k, dilation=d, seed=0)
        # Every partner must appear in the source's k*d neighbor list.
        in_rf = (
            r.neighbor_idx[r.parent_a] == r.parent_b[:, None]
        ).any(axis=1)
        assert in_rf.all()

    def test_neighbor_lists_exclude_self(self, small_frame):
        r = interpolate(small_frame, 2.0, k=4, dilation=2, seed=0)
        n = r.n_source
        self_hits = (r.neighbor_idx == np.arange(n)[:, None]).any()
        assert not self_hits

    def test_sources_cycle_through_all_points(self, small_frame):
        """Integer ratios touch every source point equally often."""
        r = interpolate(small_frame, 3.0, seed=0)
        counts = np.bincount(r.parent_a, minlength=len(small_frame))
        assert (counts == 2).all()


class TestBackends:
    @pytest.mark.parametrize("backend", ["brute", "kdtree", "octree"])
    def test_backends_equivalent(self, tiny_frame, backend):
        """Same seed + exact backends → identical interpolation."""
        ref = interpolate(tiny_frame, 2.0, backend="kdtree", seed=9)
        out = interpolate(tiny_frame, 2.0, backend=backend, seed=9)
        assert np.allclose(
            np.sort(out.new_positions, axis=0),
            np.sort(ref.new_positions, axis=0),
            atol=1e-9,
        )

    @pytest.mark.parametrize("depth", [6, 10])
    def test_octree_and_kdtree_interpolate_byte_identically(self, depth):
        """Decoded frames sit on the codec's lattice, where equidistant
        neighbours are common; the (distance, index) contract makes the two
        indexes' outputs one."""
        frame = make_video("loot", n_points=4_000, n_frames=1, seed=5).frame(0)
        for density in (0.5, 0.125):
            cloud = decode_frame_compressed(
                encode_frame_compressed(frame, density, depth=depth, seed=3)
            )
            for ratio in (2.0, 8.0, 3.3):
                kd = interpolate(cloud, ratio, backend="kdtree", seed=7)
                oc = interpolate(cloud, ratio, backend="octree", seed=7)
                assert np.array_equal(kd.neighbor_idx, oc.neighbor_idx)
                assert np.array_equal(kd.parent_b, oc.parent_b)
                assert kd.upsampled.positions.tobytes() == oc.upsampled.positions.tobytes()

    @pytest.mark.parametrize("backend", ["brute", "kdtree", "octree"])
    def test_duplicate_points_never_neighbour_themselves(self, backend):
        """With exact duplicates the self hit is not always column 0 (the
        twin may rank first); it must go wherever it sits."""
        g = np.random.default_rng(11)
        pos = g.uniform(0, 1, (200, 3))
        pos[190:] = pos[:10]
        r = interpolate(PointCloud(pos), 3.0, k=4, dilation=2, backend=backend, seed=0)
        assert r.neighbor_idx.shape == (200, 8)
        assert not (r.neighbor_idx == np.arange(200)[:, None]).any()
        assert (r.parent_a != r.parent_b).all()
        # every row still lists 8 distinct neighbours, nearest first
        assert all(len(set(row)) == 8 for row in r.neighbor_idx.tolist())
        d = np.linalg.norm(pos[r.neighbor_idx] - pos[:, None], axis=2)
        assert (np.diff(d, axis=1) >= -1e-12).all()

    def test_timings_recorded(self, tiny_frame):
        r = interpolate(tiny_frame, 2.0, seed=0)
        assert r.knn_seconds > 0
        assert r.assembly_seconds > 0


class TestSeeds:
    """The seed is the reconstruction's only randomness: a fixed one makes
    consecutive frames reproducible, a changed one re-rolls partners."""

    def test_same_seed_same_bytes(self, small_frame):
        a = interpolate(small_frame, 2.6, seed=11)
        b = interpolate(small_frame, 2.6, seed=11)
        assert a.upsampled.positions.tobytes() == b.upsampled.positions.tobytes()

    def test_new_seed_rerolls_partners(self, small_frame):
        a = interpolate(small_frame, 2.0, seed=1)
        b = interpolate(small_frame, 2.0, seed=2)
        assert not np.array_equal(a.parent_b, b.parent_b)

    def test_integer_ratio_sources_do_not_depend_on_the_seed(self, small_frame):
        a = interpolate(small_frame, 3.0, seed=1)
        b = interpolate(small_frame, 3.0, seed=2)
        assert np.array_equal(a.parent_a, b.parent_a)
        assert np.array_equal(a.neighbor_idx, b.neighbor_idx)

    def test_generator_seed_continues_its_stream(self, tiny_frame):
        g = np.random.default_rng(6)
        first = interpolate(tiny_frame, 1.5, seed=g)
        second = interpolate(tiny_frame, 1.5, seed=g)
        assert np.array_equal(first.parent_a, interpolate(tiny_frame, 1.5, seed=6).parent_a)
        assert not np.array_equal(first.parent_a, second.parent_a)


class TestDilation:
    def test_dilation_spreads_points(self, small_frame):
        """Dilation's purpose: more uniform output (lower density CV)."""
        from repro.metrics import local_density_cv

        base = interpolate(small_frame, 2.0, k=4, dilation=1, seed=0)
        dil = interpolate(small_frame, 2.0, k=4, dilation=3, seed=0)
        assert local_density_cv(dil.upsampled) < local_density_cv(base.upsampled)

    def test_invalid_params(self, small_frame):
        with pytest.raises(ValueError):
            interpolate(small_frame, 2.0, k=0)
        with pytest.raises(ValueError):
            interpolate(small_frame, 2.0, dilation=0)
        for ratio in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"got {ratio}"):
                interpolate(small_frame, ratio)
            with pytest.raises(ValueError, match=f"got {ratio}"):
                VolutUpsampler().upsample(small_frame, ratio)

    def test_cloud_too_small(self):
        pc = PointCloud(np.random.default_rng(0).uniform(0, 1, (5, 3)))
        with pytest.raises(ValueError, match="needs"):
            interpolate(pc, 2.0, k=4, dilation=2)


@given(ratio=st.floats(1.0, 4.0), seed=st.integers(0, 50))
@settings(max_examples=20, deadline=None)
def test_point_count_always_matches_ratio(ratio, seed):
    g = np.random.default_rng(3)
    cloud = PointCloud(g.uniform(-1, 1, (100, 3)))
    r = interpolate(cloud, ratio, seed=seed)
    assert len(r.upsampled) == 100 + round((ratio - 1) * 100)
    # Parents always index the source cloud.
    if r.n_new:
        assert r.parent_a.max() < 100 and r.parent_b.max() < 100
