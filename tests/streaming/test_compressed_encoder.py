"""Compressed wire-format tests (codec-backed transport)."""

import numpy as np
import pytest

from repro.compression.morton import MAX_DEPTH
from repro.compression.octree_codec import octree_decode, octree_encode
from repro.pointcloud import PointCloud, make_video
from repro.pointcloud.datasets import VIDEO_NAMES
from repro.pointcloud.sampling import random_downsample_count
from repro.streaming import decode_frame_compressed, encode_frame_compressed


def _n_keep(frame, density):
    return max(1, int(round(len(frame) * density)))


class TestCompressedFrames:
    def test_roundtrip(self, small_frame):
        payload = encode_frame_compressed(small_frame, 0.5, seed=0)
        back = decode_frame_compressed(payload)
        assert 0 < len(back) <= len(small_frame) // 2 + 1
        assert back.has_colors

    def test_smaller_than_uncompressed(self, small_frame):
        comp = encode_frame_compressed(small_frame, 1.0, seed=0)
        assert len(comp) < small_frame.nbytes()

    def test_density_scales_size(self, small_frame):
        lo = encode_frame_compressed(small_frame, 0.25, seed=0)
        hi = encode_frame_compressed(small_frame, 1.0, seed=0)
        assert len(lo) < len(hi)

    def test_depth_controls_fidelity(self, small_frame):
        from repro.metrics import chamfer_distance

        coarse = decode_frame_compressed(
            encode_frame_compressed(small_frame, 1.0, depth=6, seed=0)
        )
        fine = decode_frame_compressed(
            encode_frame_compressed(small_frame, 1.0, depth=11, seed=0)
        )
        assert chamfer_distance(fine, small_frame) < chamfer_distance(
            coarse, small_frame
        )

    def test_invalid_density(self, small_frame):
        with pytest.raises(ValueError):
            encode_frame_compressed(small_frame, 0.0)

    def test_decoded_frame_feeds_sr(self, small_frame, trained_artifacts):
        """The decoded cloud flows straight into the SR pipeline."""
        from repro.sr import VolutUpsampler

        received = decode_frame_compressed(
            encode_frame_compressed(small_frame, 0.5, seed=0)
        )
        out = VolutUpsampler(lut=trained_artifacts.lut).upsample(received, 2.0)
        assert len(out.cloud) == 2 * len(received)


class TestComposition:
    """The payload is exactly "random downsample, then octree codec"."""

    @pytest.mark.parametrize("depth", [6, 10])
    @pytest.mark.parametrize("density", [0.1, 0.5, 1.0])
    def test_is_downsample_then_codec(self, small_frame, density, depth):
        kept = random_downsample_count(small_frame, _n_keep(small_frame, density), seed=3)
        expected = octree_encode(kept, depth=depth).payload
        assert encode_frame_compressed(small_frame, density, depth=depth, seed=3) == expected

    @pytest.mark.parametrize("density", [0.1, 0.25, 0.5, 1.0])
    def test_keeps_round_density_times_n_points(self, random_cloud, density):
        # At the finest depth the 500 uniform points sit in distinct voxels,
        # so the decoded count is the downsampled count.
        payload = encode_frame_compressed(random_cloud, density, depth=MAX_DEPTH, seed=0)
        assert len(decode_frame_compressed(payload)) == _n_keep(random_cloud, density)

    def test_tiny_density_keeps_one_point(self, small_frame):
        back = decode_frame_compressed(encode_frame_compressed(small_frame, 1e-9, seed=0))
        assert len(back) == 1

    @pytest.mark.parametrize("depth", [6, 8, 10])
    def test_decoded_points_lie_within_a_voxel_of_the_source(self, small_frame, depth):
        from repro.metrics import p2p_distances

        back = decode_frame_compressed(
            encode_frame_compressed(small_frame, 0.5, depth=depth, seed=0)
        )
        lo, hi = small_frame.bounds()
        voxel = np.max(hi - lo) / (1 << depth)
        assert p2p_distances(back, small_frame).max() <= voxel * np.sqrt(3)


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_seed_same_bytes(self, small_frame, seed):
        a = encode_frame_compressed(small_frame, 0.5, seed=seed)
        b = encode_frame_compressed(small_frame, 0.5, seed=seed)
        assert a == b

    def test_seed_moves_the_selection(self, small_frame):
        a = encode_frame_compressed(small_frame, 0.5, seed=0)
        b = encode_frame_compressed(small_frame, 0.5, seed=1)
        assert a != b

    @pytest.mark.parametrize("seed", [1, 99, None])
    def test_full_density_ignores_the_seed(self, small_frame, seed):
        """Density 1 keeps every point, and the codec ignores point order."""
        assert encode_frame_compressed(small_frame, 1.0, seed=seed) == (
            encode_frame_compressed(small_frame, 1.0, seed=0)
        )


class TestValidation:
    @pytest.mark.parametrize("density", [-0.5, 1.0001, np.nan, np.inf, -np.inf])
    def test_density_out_of_range(self, small_frame, density):
        with pytest.raises(ValueError, match="density"):
            encode_frame_compressed(small_frame, density)

    @pytest.mark.parametrize("depth", [0, MAX_DEPTH + 1])
    def test_depth_out_of_range(self, small_frame, depth):
        with pytest.raises(ValueError, match="depth"):
            encode_frame_compressed(small_frame, 0.5, depth=depth)

    @pytest.mark.parametrize("keep", [0.25, 0.5, 0.9])
    def test_truncated_payload_rejected(self, small_frame, keep):
        payload = encode_frame_compressed(small_frame, 1.0, seed=0)
        with pytest.raises(ValueError):
            decode_frame_compressed(payload[: int(len(payload) * keep)])

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_any_bytes_like_decodes(self, small_frame, wrap):
        payload = encode_frame_compressed(small_frame, 0.5, seed=0)
        back = decode_frame_compressed(wrap(payload))
        ref = decode_frame_compressed(payload)
        np.testing.assert_array_equal(back.positions, ref.positions)
        np.testing.assert_array_equal(back.colors, ref.colors)


class TestAttributes:
    def test_colorless_frame_stays_colorless(self):
        pc = PointCloud(np.random.default_rng(0).uniform(0, 1, (200, 3)))
        back = decode_frame_compressed(encode_frame_compressed(pc, 0.5, seed=0))
        assert not back.has_colors
        assert len(back) > 0

    @pytest.mark.parametrize("density", [0.25, 0.5, 1.0])
    def test_smaller_than_the_kept_points_raw(self, small_frame, density):
        kept = random_downsample_count(small_frame, _n_keep(small_frame, density), seed=0)
        assert len(encode_frame_compressed(small_frame, density, seed=0)) < kept.nbytes()

    @pytest.mark.parametrize("video", VIDEO_NAMES)
    def test_every_paper_video_roundtrips(self, video):
        frame = make_video(video, n_points=1500, n_frames=1).frame(0)
        payload = encode_frame_compressed(frame, 0.5, seed=0)
        back = decode_frame_compressed(payload)
        assert 0 < len(back) <= _n_keep(frame, 0.5)
        assert back.has_colors
        assert len(payload) < frame.nbytes() // 2
