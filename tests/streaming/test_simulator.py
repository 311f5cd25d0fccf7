"""Streaming-session simulator tests."""

import math

import pytest

from repro.metrics import QoEModel
from repro.net import lte_trace, stable_trace
from repro.streaming import (
    ContinuousMPC,
    SessionConfig,
    SRQualityModel,
    VideoSpec,
    ZERO_LATENCY,
    simulate_session,
)
from repro.streaming.abr import AbrController, Decision


class FixedDensity(AbrController):
    def __init__(self, density, sr_ratio=None):
        self.density = density
        self.sr_ratio = sr_ratio or min(8.0, 1.0 / density)

    def decide(self, ctx):
        return Decision(density=self.density, sr_ratio=self.sr_ratio)


def spec(seconds=30, points=100_000):
    return VideoSpec(
        name="t", n_frames=seconds * 30, fps=30, points_per_frame=points
    )


class TestBasics:
    def test_all_chunks_played(self):
        r = simulate_session(spec(20), stable_trace(100.0), FixedDensity(0.5))
        assert r.n_chunks == 20
        assert len(r.decisions) == 20

    def test_no_stall_with_ample_bandwidth(self):
        r = simulate_session(spec(20), stable_trace(500.0), FixedDensity(0.5))
        assert r.stall_seconds == 0.0

    def test_stalls_when_bandwidth_insufficient(self):
        # full density at 100K pts, 6 B/pt, 30 fps = 144 Mbps > 20 Mbps.
        r = simulate_session(spec(20), stable_trace(20.0), FixedDensity(1.0))
        assert r.stall_seconds > 5.0

    def test_bytes_accounted(self):
        r = simulate_session(spec(10), stable_trace(500.0), FixedDensity(0.5))
        per_chunk = r.records[0].bytes_downloaded
        assert r.total_bytes == sum(rec.bytes_downloaded for rec in r.records)
        assert per_chunk == pytest.approx(30 * 50_000 * 6, rel=0.01)

    def test_quality_uses_model(self):
        qm = SRQualityModel(efficiency=0.9)
        r = simulate_session(
            spec(5), stable_trace(500.0), FixedDensity(0.5), quality_model=qm
        )
        assert r.mean_quality == pytest.approx(qm.quality(0.5), rel=1e-6)

    def test_deterministic(self):
        a = simulate_session(spec(10), lte_trace(50, 15, seed=3), FixedDensity(0.5))
        b = simulate_session(spec(10), lte_trace(50, 15, seed=3), FixedDensity(0.5))
        assert a.qoe == b.qoe and a.total_bytes == b.total_bytes


class TestSRLatencyEffects:
    def test_slow_sr_causes_stalls(self):
        slow = lambda n, s: 0.002 if s > 1 else 0.0  # 60ms/chunk... per frame 2ms
        very_slow = lambda n, s: 0.05 if s > 1 else 0.0  # 1.5s per 1s chunk
        r_ok = simulate_session(
            spec(20), stable_trace(500.0), FixedDensity(0.5), sr_latency=slow
        )
        r_bad = simulate_session(
            spec(20), stable_trace(500.0), FixedDensity(0.5), sr_latency=very_slow
        )
        assert r_ok.stall_seconds == 0.0
        assert r_bad.stall_seconds > 5.0

    def test_sr_overlaps_download(self):
        """Pipelined client: SR at line rate adds no steady-state stall."""
        line_rate = lambda n, s: 1.0 / 30.0 if s > 1 else 0.0
        r = simulate_session(
            spec(20), stable_trace(500.0), FixedDensity(0.5), sr_latency=line_rate
        )
        # At exactly line rate the pipeline keeps up after warm-up.
        assert r.stall_seconds < 3.0

    def test_no_sr_at_full_density(self):
        called = []

        def lat(n, s):
            called.append(s)
            return 0.0

        simulate_session(spec(5), stable_trace(500.0), FixedDensity(1.0, 1.0), sr_latency=lat)
        assert all(s == 1.0 for s in called)


class TestConfig:
    def test_startup_bytes_charged(self):
        cfg = SessionConfig(startup_bytes=50_000_000)
        r = simulate_session(
            spec(10), stable_trace(100.0), FixedDensity(0.5), config=cfg
        )
        r0 = simulate_session(spec(10), stable_trace(100.0), FixedDensity(0.5))
        assert r.total_bytes == r0.total_bytes + 50_000_000

    def test_fetch_fraction_scales_bytes(self):
        cfg = SessionConfig(fetch_fraction=0.5)
        r = simulate_session(
            spec(10), stable_trace(500.0), FixedDensity(1.0, 1.0), config=cfg
        )
        r_full = simulate_session(spec(10), stable_trace(500.0), FixedDensity(1.0, 1.0))
        assert r.total_bytes == pytest.approx(0.5 * r_full.total_bytes, rel=0.01)

    def test_quality_factor_scales_quality(self):
        cfg = SessionConfig(quality_factor=0.7)
        r = simulate_session(
            spec(10), stable_trace(500.0), FixedDensity(1.0, 1.0), config=cfg
        )
        assert r.mean_quality == pytest.approx(0.7, rel=1e-6)

    def test_max_buffer_limits_prefetch(self):
        """With a tiny buffer cap the session can't run ahead of playback."""
        cfg = SessionConfig(max_buffer=2.0)
        r = simulate_session(
            spec(10), stable_trace(1000.0), FixedDensity(0.5), config=cfg
        )
        assert r.stall_seconds == 0.0  # capped, but never starved

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(chunk_seconds=0.0)
        with pytest.raises(ValueError):
            SessionConfig(fetch_fraction=0.0)
        with pytest.raises(ValueError):
            SessionConfig(quality_factor=1.5)
        # NaN used to pass and fail later as "cannot convert float NaN to
        # integer"; a negative startup payload silently undercounted bytes
        for chunk_seconds in (math.nan, math.inf):
            with pytest.raises(ValueError, match=rf"chunk_seconds.*got {chunk_seconds}"):
                SessionConfig(chunk_seconds=chunk_seconds)
        for startup_bytes in (-1, 1.5, math.nan):
            with pytest.raises(ValueError, match=rf"startup_bytes.*got {startup_bytes}"):
                SessionConfig(startup_bytes=startup_bytes)

    @pytest.mark.parametrize("startup, cap", [(12.0, 10.0), (math.nan, 10.0), (1.0, math.inf)])
    def test_unreachable_startup_threshold_is_refused(self, startup, cap):
        """A start-up threshold above the buffer cap (or NaN) never starts
        playback, so every stall was booked as uncharged start-up delay:
        on an 8 Mbps LTE trace such a session read 0 s stall and QoE +29
        where the default config reads 438 s and −847."""
        cfg = SessionConfig(startup_buffer=startup, max_buffer=cap)
        with pytest.raises(ValueError, match=rf"startup_threshold={startup}, max_level={cap}"):
            simulate_session(spec(30), lte_trace(8, 4, seed=2), FixedDensity(0.8), config=cfg)


class TestWithMPC:
    def test_mpc_avoids_stalls_on_stable_link(self):
        qm = SRQualityModel()
        mpc = ContinuousMPC(qm, QoEModel(), ZERO_LATENCY)
        r = simulate_session(spec(30), stable_trace(50.0), mpc, quality_model=qm)
        assert r.stall_seconds < 1.0
        assert 0.2 < r.mean_quality <= 1.0

    def test_mpc_adapts_density_to_bandwidth(self):
        qm = SRQualityModel()
        mpc = ContinuousMPC(qm, QoEModel(), ZERO_LATENCY)
        lo = simulate_session(spec(20), stable_trace(20.0), mpc, quality_model=qm)
        mpc2 = ContinuousMPC(qm, QoEModel(), ZERO_LATENCY)
        hi = simulate_session(spec(20), stable_trace(150.0), mpc2, quality_model=qm)
        assert sum(hi.decisions) > sum(lo.decisions)
