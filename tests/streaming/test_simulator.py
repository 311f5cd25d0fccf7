"""Streaming-session simulator tests."""

import dataclasses
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
        qm = SRQualityModel()
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
        """On a link far faster than playback the session runs ahead only
        until ``MAX_BUFFER`` seconds are buffered, and never starves."""
        from repro.obs import Telemetry
        from repro.streaming import ControlPlane, ControlPolicy, simulate_fleet
        from repro.streaming.cdn import single_link_cdn
        from repro.streaming.simulator import MAX_BUFFER, FleetSession

        telemetry = Telemetry(trace=False, profile=False)
        result = simulate_fleet(
            [FleetSession(spec(30), FixedDensity(0.5))],
            topology=single_link_cdn(stable_trace(1000.0)),
            controller=ControlPlane(ControlPolicy(interval=0.5)),
            telemetry=telemetry,
        )
        levels = [v for _, v in telemetry.metrics.series["fleet.buffer_level"].items()]
        assert MAX_BUFFER - 1.0 <= max(levels) <= MAX_BUFFER
        assert result.sessions[0].stall_seconds == 0.0

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

    @pytest.mark.parametrize(
        "latency, shown",
        [(-0.5, "-15.0"), (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")],
    )
    def test_a_bad_sr_latency_is_refused_naming_chunk_density_and_value(
        self, latency, shown
    ):
        """A negative latency used to be charged as negative SR time,
        hiding stalls, and a NaN one gave a NaN QoE; both now stop the
        session at its first chunk (30 frames × the latency)."""
        with pytest.raises(
            ValueError,
            match=rf"SR seconds of a chunk must be finite and non-negative, "
            rf"got {shown} for chunk 0 at density 0.25$",
        ):
            simulate_session(
                spec(5), stable_trace(50.0), FixedDensity(0.25, 4.0),
                sr_latency=lambda n, r: latency,
            )

    def test_a_zero_sr_latency_is_charged_nothing(self):
        """0 s is the bound's closed end: the session runs, as with
        ``ZERO_LATENCY``."""
        runs = [
            simulate_session(
                spec(5), stable_trace(50.0), FixedDensity(0.25, 4.0), sr_latency=lat
            )
            for lat in (lambda n, r: 0.0, ZERO_LATENCY)
        ]
        assert runs[0].n_chunks == 5
        assert runs[0].stall_seconds == runs[1].stall_seconds
        assert runs[0].qoe == runs[1].qoe


def drive(seconds, elapsed, config=None):
    """Run one session by hand: download ``i`` takes ``elapsed(i)``
    seconds and every decision fetches density 0.5.  Returns the result,
    the contexts the controller was offered and the bytes each download
    asked for."""
    from repro.streaming.simulator import (
        DecisionRequest,
        FleetSession,
        SessionMachine,
    )

    machine = SessionMachine(
        FleetSession(spec(seconds), FixedDensity(0.5), config=config)
    )
    ctxs, nbytes = [], []
    req = machine.pending
    while req is not None:
        if isinstance(req, DecisionRequest):
            ctxs.append(req.ctx)
            req = machine.advance(Decision(density=0.5, sr_ratio=2.0))
        else:
            nbytes.append(req.nbytes)
            req = machine.advance(elapsed(len(nbytes) - 1))
    return machine.result, ctxs, nbytes


class TestSessionLoop:
    """The session's fixed buffer and estimator settings, seen through
    the requests it makes of its driver."""

    def test_the_estimate_is_the_harmonic_mean_of_the_last_window(self):
        from repro.streaming.simulator import (
            ESTIMATOR_WINDOW,
            INITIAL_THROUGHPUT_BPS,
        )

        def harmonic(xs):
            return len(xs) / sum(1.0 / x for x in xs)

        _, ctxs, nbytes = drive(12, lambda i: 0.05 * (i + 1))
        samples = [n * 8.0 / (0.05 * (i + 1)) for i, n in enumerate(nbytes)]
        assert len(ctxs) == 12 > ESTIMATOR_WINDOW + 1
        assert ctxs[0].throughput_bps == INITIAL_THROUGHPUT_BPS
        for i, ctx in enumerate(ctxs[1:], start=1):
            window = samples[max(0, i - ESTIMATOR_WINDOW):i]
            assert ctx.throughput_bps == pytest.approx(harmonic(window), rel=1e-12)
        # the faster early samples have left the window: the whole
        # history would read higher
        assert ctxs[-1].throughput_bps * 1.1 < harmonic(samples[:-1])

    def test_playback_starts_once_the_startup_buffer_is_ready(self):
        """Half-second chunks: playback waits for as many as fill
        ``STARTUP_BUFFER``; that wait is start-up delay, not stall."""
        from repro.streaming.simulator import STARTUP_BUFFER

        cfg = SessionConfig(chunk_seconds=0.5)
        result, _, _ = drive(4, lambda i: 0.1, config=cfg)
        assert result.startup_delay == pytest.approx(
            math.ceil(STARTUP_BUFFER / 0.5) * 0.1
        )
        assert result.stall_seconds == 0.0

    def test_a_request_waits_until_its_chunk_fits_under_the_cap(self):
        """Near-instant downloads run ahead of playback, but no chunk is
        requested before it fits under ``MAX_BUFFER``."""
        from repro.streaming.simulator import MAX_BUFFER

        result, ctxs, _ = drive(30, lambda i: 0.01)
        levels = [c.buffer_level for c in ctxs]
        assert all(level + 1.0 <= MAX_BUFFER + 1e-9 for level in levels)
        assert max(levels) == pytest.approx(MAX_BUFFER - 1.0)
        assert result.stall_seconds == 0.0


class _ByChunksLeft(AbrController):
    """Decides by how many chunks are left, cycling through three
    decisions: a function of the context that repeats every third chunk."""

    CYCLE = (Decision(0.5, 2.0), Decision(0.25, 4.0), Decision(1.0, 1.0))

    def decide(self, ctx):
        return self.CYCLE[len(ctx.next_chunks) % 3]


class TestSessionPrices:
    """A session prices a decision's chunk once per distinct (density, SR
    ratio, frames) and replays it: every chunk of a spec shares its points
    per frame and bytes per point, and a latency model is a pure function
    (``streaming/latency.py``)."""

    def test_each_chunk_is_charged_its_own_price_once_per_key(self):
        from collections import Counter

        from repro.streaming import FleetSession, simulate_fleet, single_link_cdn

        video = VideoSpec("t", n_frames=7 * 30 + 12, fps=30, points_per_frame=100_000)
        chunks = video.chunks(1.0)
        assert [c.n_frames for c in chunks] == [30] * 7 + [12]  # a short tail
        expected = [_ByChunksLeft.CYCLE[(len(chunks) - i) % 3] for i in range(len(chunks))]
        # the tail repeats a whole chunk's decision, so only its frames tell them apart
        assert expected[-1] in expected[:-1]
        keys = {(d.density, d.sr_ratio, c.n_frames) for c, d in zip(chunks, expected)}
        assert len(keys) < len(chunks)

        calls = Counter()

        def counting(n_points_in, sr_ratio):
            calls[n_points_in, sr_ratio] += 1
            return 1e-3 if sr_ratio > 1.0 else 0.0

        cfg = SessionConfig(fetch_fraction=0.55)
        sessions = [
            FleetSession(video, _ByChunksLeft(), counting, config=cfg, join_time=t)
            for t in (0.0, 0.4)
        ]
        result = simulate_fleet(sessions, topology=single_link_cdn(stable_trace(200.0)))
        for r in result.sessions:
            assert r.decisions == [d.density for d in expected]
            assert [rec.bytes_downloaded for rec in r.records] == [
                int(c.bytes_at_density(d.density) * cfg.fetch_fraction)
                for c, d in zip(chunks, expected)
            ]
        assert sum(calls.values()) == len(sessions) * len(keys)


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


class _FiveChunkWindow(AbrController):
    """``controller`` offered at most five chunks per decision — how the
    session used to cap every controller's planning horizon."""

    def __init__(self, controller):
        self.controller = controller

    def decide_batch(self, ctxs):
        return self.controller.decide_batch([
            dataclasses.replace(c, next_chunks=c.next_chunks[:5]) for c in ctxs
        ])

    def decide(self, ctx):
        return self.decide_batch([ctx])[0]


class TestPlanningHorizon:
    def test_every_remaining_chunk_is_offered(self):
        offered = []

        class Recording(FixedDensity):
            def decide(self, ctx):
                offered.append(len(ctx.next_chunks))
                return super().decide(ctx)

        simulate_session(spec(12), stable_trace(500.0), Recording(0.5))
        assert offered == list(range(12, 0, -1))

    def test_the_first_decision_sees_the_initial_estimate(self):
        from repro.streaming.simulator import INITIAL_THROUGHPUT_BPS

        seen = []

        class Recording(FixedDensity):
            def decide(self, ctx):
                seen.append((ctx.throughput_bps, ctx.buffer_level))
                return super().decide(ctx)

        simulate_session(spec(3), stable_trace(500.0), Recording(0.5))
        assert seen[0] == (INITIAL_THROUGHPUT_BPS, 0.0)
        assert seen[1][0] != INITIAL_THROUGHPUT_BPS  # one sample folded in

    def test_the_controller_plans_over_its_own_horizon(self):
        """A horizon-8 MPC used to plan exactly like horizon 5; horizons
        up to 5 decide as they did under the five-chunk window."""
        qm = SRQualityModel()
        trace = lte_trace(20, 8, duration=120.0, seed=4)

        def run(horizon, window=False):
            mpc = ContinuousMPC(qm, QoEModel(), ZERO_LATENCY, horizon=horizon)
            ctrl = _FiveChunkWindow(mpc) if window else mpc
            return simulate_session(spec(40), trace, ctrl, quality_model=qm)

        for horizon in (1, 3, 5):
            assert run(horizon).decisions == run(horizon, window=True).decisions
        assert run(8).decisions != run(8, window=True).decisions
