"""Shared fixtures-as-functions for the fleet/population test modules."""

from repro.streaming import VideoSpec
from repro.streaming.abr import AbrController, Decision
from repro.streaming.latency import MeasuredSRLatency


class FixedDensity(AbrController):
    """Always fetches the same density — the simplest deterministic ABR."""

    def __init__(self, density, sr_ratio=None):
        self.density = density
        self.sr_ratio = sr_ratio or min(8.0, 1.0 / density)

    def decide(self, ctx):
        return Decision(density=self.density, sr_ratio=self.sr_ratio)


def spec(seconds=10, points=100_000, name="t"):
    return VideoSpec(
        name=name, n_frames=seconds * 30, fps=30, points_per_frame=points
    )


def sr_lat():
    return MeasuredSRLatency(0.001, 1e-8, 2e-8)


def assert_same_run(a, b):
    """Two fleet results are the same run, bit for bit."""
    assert a.report == b.report
    assert a.sessions == b.sessions
    assert a.assignment == b.assignment
    assert a.end_times == b.end_times


def check_byte_conservation(result):
    """Every delivered byte left the origin, hit an edge cache, or rode a
    coalesced fill — exactly once (on a bare link: all from the origin)."""
    rep = result.report
    if result.topology is None:
        assert rep.origin_egress_bytes == rep.total_bytes
        return
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
