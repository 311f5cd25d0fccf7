"""Chunk/video spec tests."""

import math

import pytest

from repro.streaming import ChunkSpec, VideoSpec
from repro.streaming.chunks import CHUNK_HEADER_BYTES


class TestChunkSpec:
    def chunk(self, **kw):
        args = dict(index=0, n_frames=30, points_per_frame=1000, duration=1.0)
        args.update(kw)
        return ChunkSpec(**args)

    def test_bytes_scale_with_density(self):
        c = self.chunk(bytes_per_point=6.0)
        full = c.bytes_at_density(1.0)
        half = c.bytes_at_density(0.5)
        assert full == 30 * 1000 * 6 + CHUNK_HEADER_BYTES
        assert half < full
        assert half == 30 * 500 * 6 + CHUNK_HEADER_BYTES

    def test_points_at_density(self):
        c = self.chunk()
        assert c.points_at_density(1.0) == 1000
        assert c.points_at_density(0.33) == 330

    def test_density_validation(self):
        c = self.chunk()
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                c.bytes_at_density(bad)
            with pytest.raises(ValueError):
                c.points_at_density(bad)

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            self.chunk(n_frames=0)
        with pytest.raises(ValueError):
            self.chunk(duration=0.0)
        with pytest.raises(ValueError):
            self.chunk(bytes_per_point=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_non_finite_duration(self, bad):
        with pytest.raises(ValueError, match="ChunkSpec.duration must be finite"):
            self.chunk(duration=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_non_finite_bytes_per_point(self, bad):
        """inf used to fail only in ``bytes_at_density``, with OverflowError."""
        with pytest.raises(ValueError, match="ChunkSpec.bytes_per_point must be finite"):
            self.chunk(bytes_per_point=bad)


class TestVideoSpec:
    def test_chunking_covers_all_frames(self):
        spec = VideoSpec(name="t", n_frames=95, fps=30, points_per_frame=1000)
        chunks = spec.chunks(1.0)
        assert sum(c.n_frames for c in chunks) == 95
        assert chunks[0].n_frames == 30
        assert chunks[-1].n_frames == 5  # remainder chunk

    def test_a_chunk_longer_than_the_video_is_one_short_chunk(self):
        """Not an error: the whole video is the remainder chunk."""
        spec = VideoSpec(name="t", n_frames=45, fps=30, points_per_frame=1000)
        (chunk,) = spec.chunks(5.0)
        assert chunk.n_frames == 45
        assert chunk.duration == pytest.approx(spec.duration)

    def test_chunk_durations(self):
        spec = VideoSpec(name="t", n_frames=60, fps=30, points_per_frame=1000)
        for c in spec.chunks(0.5):
            assert c.duration == pytest.approx(0.5)

    def test_duration(self):
        spec = VideoSpec(name="t", n_frames=300, fps=30, points_per_frame=1000)
        assert spec.duration == pytest.approx(10.0)

    def test_bytes_per_point_propagates(self):
        spec = VideoSpec(
            name="t", n_frames=30, fps=30, points_per_frame=100, bytes_per_point=15
        )
        c = spec.chunks(1.0)[0]
        assert c.bytes_at_density(1.0) == 30 * 100 * 15 + CHUNK_HEADER_BYTES

    def test_validation(self):
        with pytest.raises(ValueError):
            VideoSpec(name="t", n_frames=0, fps=30, points_per_frame=1)
        spec = VideoSpec(name="t", n_frames=10, fps=30, points_per_frame=1)
        with pytest.raises(ValueError):
            spec.chunks(0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_non_finite_bytes_per_point(self, bad):
        """NaN used to pass and fail only at first use."""
        with pytest.raises(ValueError, match="VideoSpec.bytes_per_point must be finite"):
            VideoSpec(name="t", n_frames=10, fps=30, points_per_frame=1, bytes_per_point=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_non_finite_chunk_length(self, bad):
        spec = VideoSpec(name="t", n_frames=10, fps=30, points_per_frame=1)
        with pytest.raises(ValueError, match="chunk_seconds must be finite"):
            spec.chunks(bad)
