"""End-to-end SR pipeline tests (VoLUT + naive + baselines)."""

import numpy as np
import pytest

from repro.metrics import chamfer_distance
from repro.pointcloud import random_downsample_count
from repro.sr import (
    YUZU_RATIOS,
    GradPUUpsampler,
    NaiveUpsampler,
    VolutUpsampler,
    YuzuSRModel,
)


class TestVolutUpsampler:
    def test_output_counts_and_colors(self, small_frame, trained_artifacts):
        up = VolutUpsampler(lut=trained_artifacts.lut)
        r = up.upsample(small_frame, 2.0)
        assert len(r.cloud) == 2 * len(small_frame)
        assert r.cloud.has_colors

    def test_stage_times_populated(self, small_frame, trained_artifacts):
        r = VolutUpsampler(lut=trained_artifacts.lut).upsample(small_frame, 2.0)
        t = r.times
        assert t.knn > 0 and t.interpolation > 0
        assert t.refinement > 0 and t.colorization > 0
        assert t.total == pytest.approx(
            t.knn + t.interpolation + t.colorization + t.refinement
        )

    def test_no_lut_skips_refinement(self, small_frame):
        r = VolutUpsampler(lut=None).upsample(small_frame, 2.0)
        assert len(r.cloud) == 2 * len(small_frame)

    def test_continuous_ratio(self, small_frame, trained_artifacts):
        up = VolutUpsampler(lut=trained_artifacts.lut)
        for ratio in (1.2, 2.7, 3.33):
            r = up.upsample(small_frame, ratio)
            assert len(r.cloud) == len(small_frame) + round(
                (ratio - 1) * len(small_frame)
            )

    def test_ratio_one_identity(self, small_frame, trained_artifacts):
        r = VolutUpsampler(lut=trained_artifacts.lut).upsample(small_frame, 1.0)
        assert np.array_equal(r.cloud.positions, small_frame.positions)

    @pytest.mark.parametrize("ratio", [2.0, 8.0], ids=["x2", "x8"])
    def test_one_lookup_per_distinct_parent_pair(self, small_frame, trained_artifacts, ratio):
        """At ×2 every source is drawn once and every row is looked up; at ×8
        sources repeat a partner and each ``(parent_a, parent_b)`` pair is
        looked up once, however many rows drew it."""
        from repro.sr import interpolate

        lut = trained_artifacts.lut
        interp = interpolate(small_frame, ratio, k=4, dilation=2, seed=np.random.default_rng(3))
        n = interp.n_source
        pairs = len(np.unique(interp.parent_a * n + interp.parent_b))
        before = lut.stats.total
        VolutUpsampler(lut=lut, seed=3).upsample(small_frame, ratio)
        looked_up = lut.stats.total - before
        if ratio == 2.0:
            assert looked_up == pairs == interp.n_new
        else:
            assert looked_up == pairs < interp.n_new

    @pytest.mark.parametrize(
        "field, value",
        [("k", 4.9), ("k", True), ("k", 0), ("dilation", True), ("dilation", 2.5)],
    )
    def test_structural_integers_are_not_truncated(self, field, value):
        for upsampler in (VolutUpsampler, NaiveUpsampler):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                upsampler(**{field: value})

    def test_numpy_integers_are_integers(self):
        for upsampler in (VolutUpsampler, NaiveUpsampler):
            up = upsampler(k=np.int64(4), dilation=np.int32(2))
            assert (up.k, up.dilation) == (4, 2) and type(up.k) is int


class TestComposedStages:
    """Tier-1 twin of the repo benchmark's traced-round digest check
    (``bench/wl_client.py::_traced_round``): the stages called one by one,
    ``encode`` measuring its own radius, equal ``upsample`` byte for byte.
    The composition searches the octree, as the traced round does, and
    ``upsample`` the kd-tree; the (distance, index) tie rule makes them one.
    The composition refines every row, ``upsample`` each distinct parent
    pair once: ×8 and ×12 (ratio − 1 > k·d, so pairs must repeat) show that
    is exact, ×2 and ×1.4 that rows drawn once take the plain path."""

    @staticmethod
    def composed(cloud, lut, ratio, rng):
        from repro.pointcloud import PointCloud
        from repro.spatial import merge_and_prune
        from repro.sr import colorize_by_parent, interpolate

        interp = interpolate(cloud, ratio, k=4, dilation=2, backend="octree", seed=rng)
        colored = colorize_by_parent(cloud, interp)
        new_pos = interp.new_positions
        idx, _ = merge_and_prune(
            new_pos, cloud.positions, interp.parent_a, interp.parent_b,
            interp.neighbor_idx, lut.encoder.rf_size - 1,
        )
        enc = lut.encoder.encode(new_pos, cloud.positions[idx])
        offsets = lut.lookup_normalized(enc.normalized)
        pos = colored.positions.copy()
        pos[interp.n_source :] = new_pos + offsets * enc.radius[:, None]
        return PointCloud(pos, colored.colors)

    @pytest.mark.parametrize(
        "ratio, density",
        [(2.0, 0.5), (8.0, 0.125), (3.3, 0.5), (12.0, 0.125), (1.4, 0.5)],
        ids=["x2", "x8", "x3.3", "x12", "x1.4"],
    )
    def test_upsample_equals_the_composed_stages(self, trained_artifacts, ratio, density):
        from repro.pointcloud import make_video
        from repro.streaming.encoder import decode_frame_compressed, encode_frame_compressed

        video = make_video("haggle", n_points=6_000, n_frames=2, seed=4)
        clouds = [
            decode_frame_compressed(encode_frame_compressed(video.frame(i), density, depth=10))
            for i in range(2)
        ]
        lut = trained_artifacts.lut
        up = VolutUpsampler(lut)  # seed 0, the benchmark's UPSAMPLER_SEED
        rng = np.random.default_rng(0)
        for cloud in clouds:  # two frames: a fractional ratio advances the RNG
            got = up.upsample(cloud, ratio).cloud
            want = self.composed(cloud, lut, ratio, rng)
            assert got.positions.tobytes() == want.positions.tobytes()
            assert got.colors.tobytes() == want.colors.tobytes()


class TestQualityOrdering:
    def test_lut_refinement_improves_geometry(self, trained_artifacts):
        """VoLUT's central quality claim at module level: refined > raw interp."""
        from repro.pointcloud import make_video

        gt = make_video("longdress", n_points=1500, n_frames=1).frame(0)
        low = random_downsample_count(gt, 750, seed=1)
        plain = VolutUpsampler(lut=None, seed=2).upsample(low, 2.0).cloud
        refined = VolutUpsampler(lut=trained_artifacts.lut, seed=2).upsample(low, 2.0).cloud
        assert chamfer_distance(refined, gt) < chamfer_distance(plain, gt)

    def test_upsampled_covers_surface_better_than_sparse(self, trained_artifacts):
        """SR's purpose: the ground-truth surface is closer to the upsampled
        cloud than to the sparse one (coverage direction of Chamfer)."""
        from repro.metrics import p2p_distances
        from repro.pointcloud import make_video

        gt = make_video("longdress", n_points=1500, n_frames=1).frame(0)
        low = random_downsample_count(gt, 500, seed=1)
        up = VolutUpsampler(lut=trained_artifacts.lut, seed=0).upsample(low, 3.0).cloud
        assert p2p_distances(gt, up).mean() < p2p_distances(gt, low).mean()


class TestNaiveUpsampler:
    def test_basic(self, tiny_frame):
        r = NaiveUpsampler().upsample(tiny_frame, 2.0)
        assert len(r.cloud) == 2 * len(tiny_frame)
        assert r.cloud.has_colors


class TestGradPU:
    def test_output_shape(self, tiny_frame, trained_artifacts):
        gp = GradPUUpsampler(
            net=trained_artifacts.net,
            encoder=trained_artifacts.encoder,
            n_steps=3,
        )
        r = gp.upsample(tiny_frame, 2.0)
        assert len(r.cloud) == 2 * len(tiny_frame)
        assert r.cloud.has_colors

    def test_more_steps_cost_more(self, tiny_frame, trained_artifacts):
        """Counted, not timed: 8 steps run 8x the network passes of one
        step, each over the same rows (every new point).  The wall-clock
        form is ``benchmarks/test_fig17_sr_runtime.py::
        test_gradpu_more_steps_cost_more``, a median of repeats."""

        class CountingNet:
            def __init__(self, net):
                self.net, self.rows = net, []

            def forward(self, x):
                self.rows.append(len(x))
                return self.net.forward(x)

        def passes(n_steps):
            net = CountingNet(trained_artifacts.net)
            GradPUUpsampler(
                net=net, encoder=trained_artifacts.encoder, n_steps=n_steps
            ).upsample(tiny_frame, 2.0)
            return net.rows

        one, eight = passes(1), passes(8)
        assert one == [len(tiny_frame)]  # x2 adds one new point per source point
        assert eight == 8 * one

    @staticmethod
    def gradpu(trained_artifacts, **kw):
        return GradPUUpsampler(net=trained_artifacts.net, encoder=trained_artifacts.encoder, **kw)

    def test_no_steps_is_interpolation_colored_by_nearest(self, tiny_frame, trained_artifacts):
        from repro.sr import colorize_by_nearest, interpolate

        got = self.gradpu(trained_artifacts, n_steps=0, seed=3).upsample(tiny_frame, 2.5).cloud
        interp = interpolate(tiny_frame, 2.5, k=4, dilation=1, seed=np.random.default_rng(3))
        want = colorize_by_nearest(tiny_frame, interp, backend="kdtree")
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.colors, want.colors)

    def test_refinement_moves_only_new_points(self, tiny_frame, trained_artifacts):
        out = self.gradpu(trained_artifacts, n_steps=2).upsample(tiny_frame, 2.0).cloud
        plain = self.gradpu(trained_artifacts, n_steps=0).upsample(tiny_frame, 2.0).cloud
        n = len(tiny_frame)
        assert np.array_equal(out.positions[:n], tiny_frame.positions)
        assert not np.array_equal(out.positions[n:], plain.positions[n:])

    def test_deterministic_for_a_seed(self, tiny_frame, trained_artifacts):
        a = self.gradpu(trained_artifacts, n_steps=2, seed=5).upsample(tiny_frame, 1.7).cloud
        b = self.gradpu(trained_artifacts, n_steps=2, seed=5).upsample(tiny_frame, 1.7).cloud
        assert a.positions.tobytes() == b.positions.tobytes()


class TestYuzu:
    def test_fixed_ratio_output(self, tiny_frame):
        model = YuzuSRModel(ratio=3, seed=0)
        r = model.upsample(tiny_frame)
        assert len(r.cloud) == 3 * len(tiny_frame)
        assert (r.cloud.colors[:3] == tiny_frame.colors[0]).all()  # children share parent color
        assert r.times.knn > 0 and r.times.refinement > 0  # refinement = network inference

    def test_duplicates_do_not_keep_a_point_as_its_own_neighbour(self):
        """With exact duplicates the self hit can sit past column 0 (its twin
        ranks first); it must go wherever it is, not the farthest neighbour.
        Each row holds the distances to the k nearest *other* points."""
        from repro.pointcloud import PointCloud

        g = np.random.default_rng(11)
        pos = g.uniform(0, 1, (200, 3))
        pos = np.vstack([pos, pos[:20]])
        model = YuzuSRModel(ratio=2, seed=0)
        targets, neighbors = model._neighborhoods(PointCloud(pos))
        k = model.encoder.rf_size - 1
        assert neighbors.shape == (220, k, 3)
        got = np.linalg.norm(neighbors - targets[:, None], axis=2)
        d = np.linalg.norm(pos[:, None] - pos[None], axis=2)
        np.fill_diagonal(d, np.inf)
        assert np.allclose(got, np.sort(d, axis=1)[:, :k], rtol=0, atol=1e-12)

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            YuzuSRModel(ratio=1)

    @pytest.mark.parametrize("ratio", [2.5, 3.7, True, float("nan")])
    def test_ratio_is_an_integer_not_truncated(self, ratio):
        """A fractional ratio used to build the model of its floor."""
        with pytest.raises(ValueError, match=r"^ratio must be an integer >= 2, got "):
            YuzuSRModel(ratio=ratio)

    def test_numpy_integer_ratio_is_accepted(self):
        model = YuzuSRModel(ratio=np.int64(3))
        assert model.ratio == 3 and type(model.ratio) is int

    @pytest.mark.parametrize("ratio", YUZU_RATIOS)
    def test_each_ratio_gives_ratio_children_per_point(self, tiny_frame, ratio):
        model = YuzuSRModel(ratio=ratio, seed=0)
        out = model.upsample(tiny_frame).cloud
        assert len(out) == ratio * len(tiny_frame)
        # Children are grouped per source point and carry its color.
        want = np.repeat(tiny_frame.colors[:, None], ratio, axis=1)
        assert np.array_equal(out.colors.reshape(-1, ratio, 3), want)

    def test_children_stay_within_the_neighbourhood_radius(self, tiny_frame):
        """The tanh head bounds each offset coordinate by 1 in the
        normalized frame, so a child is at most √3 radii from its parent."""
        model = YuzuSRModel(ratio=4, seed=2)
        enc = model.encoder.encode(*model._neighborhoods(tiny_frame))
        out = model.upsample(tiny_frame).cloud.positions.reshape(-1, 4, 3)
        reach = np.linalg.norm(out - tiny_frame.positions[:, None], axis=2)
        assert (reach <= np.sqrt(3) * enc.radius[:, None] + 1e-12).all()

    def test_seed_fixes_the_weights(self, tiny_frame):
        a = YuzuSRModel(ratio=2, seed=4).upsample(tiny_frame).cloud
        b = YuzuSRModel(ratio=2, seed=4).upsample(tiny_frame).cloud
        c = YuzuSRModel(ratio=2, seed=5).upsample(tiny_frame).cloud
        assert a.positions.tobytes() == b.positions.tobytes()
        assert not np.array_equal(a.positions, c.positions)

    def test_colorless_input_gives_colorless_output(self, tiny_frame):
        from repro.pointcloud import PointCloud

        out = YuzuSRModel(ratio=2, seed=0).upsample(PointCloud(tiny_frame.positions))
        assert not out.cloud.has_colors

    def test_network_shape_follows_encoder_and_ratio(self):
        from repro.sr import PositionEncoder

        m = YuzuSRModel(ratio=3, encoder=PositionEncoder(rf_size=6, bins=16))
        assert m.net.dims == (18, 256, 256, 256, 9)
        # One more child adds one more 3-vector head: 256·3 weights + 3 biases.
        assert YuzuSRModel(ratio=4).net.flat_params.size - YuzuSRModel(
            ratio=3
        ).net.flat_params.size == 256 * 3 + 3
