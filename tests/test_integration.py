"""Cross-module integration tests: the full offline→online VoLUT flow."""

import numpy as np
import pytest

from repro.metrics import chamfer_distance, image_psnr
from repro.pointcloud import make_video, random_downsample_count
from repro.render import render, viewport_trace
from repro.sr import (
    HashedLUT,
    PositionEncoder,
    VolutUpsampler,
    build_lut,
    build_refinement_dataset,
    train_refinement_net,
)


class TestOfflineOnlineFlow:
    """Train on longdress → distill LUT → stream-upsample another video."""

    @pytest.fixture(scope="class")
    def lut_and_encoder(self):
        encoder = PositionEncoder(rf_size=4, bins=32)
        video = make_video("longdress", n_points=1500, n_frames=2)
        frames = [video.frame(i) for i in range(2)]
        ds = build_refinement_dataset(frames, encoder, ratios=(2.0,), seed=0)
        net, losses = train_refinement_net(ds, encoder, hidden=(24, 24), epochs=8)
        assert losses[-1] < losses[0]
        lut = build_lut(net, encoder, ds.X.reshape(len(ds), 4, 3))
        return lut, encoder

    def test_lut_persists_and_reloads(self, lut_and_encoder, tmp_path):
        lut, _ = lut_and_encoder
        p = tmp_path / "volut.npz"
        lut.save(p)
        again = HashedLUT.load(p)
        assert again.n_entries == lut.n_entries

    def test_cross_video_generalization(self, lut_and_encoder):
        """The paper applies the longdress LUT to every test video."""
        lut, _ = lut_and_encoder
        up = VolutUpsampler(lut=lut, seed=0)
        for name in ("loot", "lab"):
            gt = make_video(name, n_points=1500, n_frames=1).frame(0)
            low = random_downsample_count(gt, 750, seed=0)
            result = up.upsample(low, 2.0)
            assert len(result.cloud) == 1500
            assert chamfer_distance(result.cloud, gt) < chamfer_distance(
                low, gt
            ) * 2.0  # sane geometry, no blow-up

    def test_render_quality_improves_with_sr(self, lut_and_encoder):
        """Image-space check of the whole pipeline: SR'd render is closer
        to the ground-truth render than the sparse render is."""
        lut, _ = lut_and_encoder
        gt = make_video("longdress", n_points=1500, n_frames=1).frame(0)
        low = random_downsample_count(gt, 375, seed=0)
        up = VolutUpsampler(lut=lut, seed=0).upsample(low, 4.0).cloud
        cam = viewport_trace(
            "static", 1, center=tuple(gt.centroid()), radius=2.2, width=96, height=96
        )[0]
        img_gt = render(gt, cam)
        img_low = render(low, cam)
        img_up = render(up, cam)
        assert image_psnr(img_up, img_gt) > image_psnr(img_low, img_gt)


class TestEndToEndDeterminism:
    def test_identical_runs(self, trained_artifacts):
        gt = make_video("loot", n_points=1000, n_frames=1).frame(0)
        low = random_downsample_count(gt, 500, seed=3)
        a = VolutUpsampler(lut=trained_artifacts.lut, seed=5).upsample(low, 2.0)
        b = VolutUpsampler(lut=trained_artifacts.lut, seed=5).upsample(low, 2.0)
        assert np.array_equal(a.cloud.positions, b.cloud.positions)
