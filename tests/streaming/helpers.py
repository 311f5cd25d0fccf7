"""Shared fixtures-as-functions for the fleet/population test modules."""

from repro.net import NetworkTrace, lte_trace
from repro.net.traces import LTE_STEP
from repro.obs.events import EV_CHUNK_RETRY, EV_RETRY_HEDGE
from repro.streaming import VideoSpec
from repro.streaming.abr import AbrController, Decision
from repro.streaming.latency import MeasuredSRLatency

from ..golden import digest


class FixedDensity(AbrController):
    """Always fetches the same density — the simplest deterministic ABR."""

    def __init__(self, density, sr_ratio=None):
        self.density = density
        self.sr_ratio = sr_ratio or min(8.0, 1.0 / density)

    def decide(self, ctx):
        return Decision(density=self.density, sr_ratio=self.sr_ratio)


def lte_trace_on_grid(mean_mbps, std_mbps, duration, step, seed):
    """``lte_trace``'s draws for ``duration / step`` samples, spaced
    ``step`` seconds apart instead of ``LTE_STEP``: a trace whose
    boundaries land on fractional floats."""
    coarse = lte_trace(mean_mbps, std_mbps, duration=duration / step * LTE_STEP, seed=seed)
    return NetworkTrace(
        coarse.name, coarse.timestamps / LTE_STEP * step, coarse.bandwidths_bps,
        rtt=coarse.rtt,
    )


def spec(seconds=10, points=100_000, name="t"):
    return VideoSpec(
        name=name, n_frames=seconds * 30, fps=30, points_per_frame=points
    )


def sr_lat():
    return MeasuredSRLatency(0.001, 1e-8, 2e-8)


def session_facts(result) -> dict:
    """What a session reports, for a golden row: floats exact, the
    per-chunk records as one digest."""
    return {
        "qoe": result.qoe, "total_bytes": result.total_bytes,
        "stall_seconds": result.stall_seconds,
        "startup_delay": result.startup_delay, "abandoned": result.abandoned,
        "decisions": result.decisions,
        "records": digest(
            [(c.quality, c.stall, c.bytes_downloaded) for c in result.records]
        ),
    }


def assert_same_run(a, b):
    """Two fleet results are the same run, bit for bit."""
    assert a.report == b.report
    assert a.sessions == b.sessions
    assert a.assignment == b.assignment
    assert a.end_times == b.end_times


def check_byte_conservation(result):
    """Every delivered byte left the origin, hit an edge cache, or rode a
    coalesced fill — exactly once (on ``single_link_cdn``: all from the
    origin)."""
    rep = result.report
    hit_bytes = sum(e.cache.hit_bytes for e in result.topology.edges)
    assert (
        rep.origin_egress_bytes + hit_bytes + rep.coalesced_bytes
        == rep.total_bytes
    )


def check_retry_accounting(rep):
    """The accounting contract every failure path shares: each counted
    failed attempt belongs to a request that eventually completed, so
    the retry counter equals the attempt histogram's weighted sum (no
    `_RetryState` entry outlives the run)."""
    assert rep.chunk_retries == sum(
        (k + 1) * c for k, c in enumerate(rep.retry_attempts)
    )


def check_retry_events(tracer, report, startup_payloads=0):
    """The event stream's retry ledger agrees with the report's.

    Every ``chunk.retry`` names its ``reason`` and the failed-attempt
    count it produced (``attempt``; 0 = re-queued unchanged, nothing
    failed), so: failed attempts sum to ``chunk_retries``; hedges match;
    and every fetch ends in a completion or in exactly one cancelling
    retry — a gray drop delays its own transfer instead of cancelling
    one, and a startup payload (``startup_payloads`` of them) completes
    without a ``chunk.complete``.
    """
    retries = [ev.data for ev in tracer.events if ev.kind == EV_CHUNK_RETRY]
    assert all(
        r["reason"] in ("outage", "timeout", "fill-aborted", "gray-drop")
        for r in retries
    )
    assert sum(1 for r in retries if r["attempt"] > 0) == report.chunk_retries
    counts = tracer.counts()
    assert counts.get(EV_RETRY_HEDGE, 0) == report.requests_hedged
    cancelled = sum(1 for r in retries if r["reason"] != "gray-drop")
    assert counts.get("chunk.fetch", 0) == (
        counts.get("chunk.complete", 0) + startup_payloads + cancelled
    )
