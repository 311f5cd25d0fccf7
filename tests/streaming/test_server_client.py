"""Full-fidelity server/client tests."""

import numpy as np
import pytest

from repro.metrics import QoEModel
from repro.net import lte_trace, stable_trace
from repro.pointcloud import make_video
from repro.sr import VolutUpsampler
from repro.streaming import (
    ContinuousMPC,
    Manifest,
    SRQualityModel,
    StreamingClient,
    VideoServer,
    ZERO_LATENCY,
)


@pytest.fixture(scope="module")
def video():
    v = make_video("loot", n_points=1500, n_frames=15)
    v.loops = 1  # keep sessions short for tests
    return v


@pytest.fixture(scope="module")
def server(video):
    return VideoServer(video, chunk_seconds=0.25)


class TestManifest:
    def test_describes_video(self, server, video):
        m = server.manifest
        assert m.name == "loot"
        assert m.fps == 30
        assert m.n_chunks == 2  # 15 frames / (0.25s * 30fps)
        assert m.points_per_frame == 1500

    def test_validation(self):
        with pytest.raises(ValueError):
            Manifest(name="x", n_chunks=0, chunk_seconds=1, fps=30,
                     points_per_frame=10, min_density=0.1)
        with pytest.raises(ValueError):
            Manifest(name="x", n_chunks=1, chunk_seconds=1, fps=30,
                     points_per_frame=10, min_density=0.0)


class TestServer:
    def test_chunk_payload_decodes(self, server):
        blob = server.get_chunk(0, 0.5)
        frames = VideoServer.decode_chunk_payload(blob)
        assert len(frames) == server.chunk_spec(0).n_frames
        for f in frames:
            assert 0 < len(f) <= 1500

    def test_density_scales_bytes(self, server):
        lo = server.get_chunk(0, 0.25)
        hi = server.get_chunk(0, 1.0)
        assert len(lo) < len(hi)

    def test_cache_returns_identical_payload(self, server):
        a = server.get_chunk(1, 0.5)
        b = server.get_chunk(1, 0.5)
        assert a is b  # cache hit returns the same object

    def test_deterministic_encoding(self, video):
        s1 = VideoServer(video, chunk_seconds=0.25)
        s2 = VideoServer(video, chunk_seconds=0.25)
        assert s1.get_chunk(0, 0.5) == s2.get_chunk(0, 0.5)

    def test_density_bounds_enforced(self, server):
        with pytest.raises(ValueError):
            server.get_chunk(0, 0.01)  # below manifest min (1/8)
        with pytest.raises(IndexError):
            server.get_chunk(99, 0.5)

    def test_uncompressed_mode(self, video):
        srv = VideoServer(video, chunk_seconds=0.25, compressed=False)
        blob = srv.get_chunk(0, 0.5)
        frames = VideoServer.decode_chunk_payload(blob, compressed=False)
        assert len(frames) == srv.chunk_spec(0).n_frames

    def test_truncated_payload_rejected(self, server):
        blob = server.get_chunk(0, 0.5)
        with pytest.raises(ValueError):
            VideoServer.decode_chunk_payload(blob[:10])

    def test_invalid_construction(self, video):
        with pytest.raises(ValueError):
            VideoServer(video, chunk_seconds=0.0)
        with pytest.raises(ValueError):
            VideoServer(video, min_density=0.0)


class TestClient:
    def _client(self, server, trace, artifacts, **kw):
        qm = SRQualityModel()
        return StreamingClient(
            server,
            trace,
            ContinuousMPC(qm, QoEModel(), ZERO_LATENCY),
            VolutUpsampler(lut=artifacts.lut),
            quality_model=qm,
            **kw,
        )

    def test_plays_all_chunks(self, server, trained_artifacts):
        client = self._client(server, stable_trace(50.0), trained_artifacts)
        session = client.play()
        assert session.n_chunks == server.manifest.n_chunks
        assert session.total_bytes > 0

    def test_max_chunks_limits(self, server, trained_artifacts):
        client = self._client(server, stable_trace(50.0), trained_artifacts)
        assert self_play_len(client, 1) == 1

    def test_frames_restored_to_full_density(self, server, trained_artifacts):
        client = self._client(
            server, stable_trace(50.0), trained_artifacts, keep_frames=True
        )
        session = client.play(max_chunks=1)
        chunk = session.chunks[0]
        for frame in chunk.frames:
            # SR restores to ~the manifest density (codec merges a few pts).
            assert len(frame) >= 0.7 * server.manifest.points_per_frame

    def test_tight_link_lowers_density(self, server, trained_artifacts):
        fast = self._client(server, stable_trace(100.0), trained_artifacts)
        slow = self._client(server, lte_trace(0.5, 0.2, seed=1), trained_artifacts)
        d_fast = np.mean([c.density for c in fast.play().chunks])
        d_slow = np.mean([c.density for c in slow.play().chunks])
        assert d_slow <= d_fast

    def test_bytes_match_payloads(self, server, trained_artifacts):
        client = self._client(server, stable_trace(50.0), trained_artifacts)
        session = client.play()
        assert session.total_bytes == sum(
            c.bytes_downloaded for c in session.chunks
        )

    def test_play_is_reentrant(self, server, trained_artifacts):
        """Each play() is a fresh session: the wait for its first chunk
        is start-up delay, never a stall, however often it is called."""
        client = self._client(server, stable_trace(0.05), trained_artifacts)
        manifest = server.manifest
        for _ in range(2):
            first = client.play().chunks[0]
            # The download alone outlasts the whole video, hence any buffer
            # a previous session left behind: a leftover shows as a stall.
            assert first.download_seconds > manifest.n_chunks * manifest.chunk_seconds
            assert first.stall_seconds == 0.0



def self_play_len(client, n):
    return client.play(max_chunks=n).n_chunks
