"""Property-based streaming-simulator invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import lte_trace, stable_trace
from repro.streaming import VideoSpec, simulate_session
from repro.streaming.abr import AbrController, Decision


class FixedDensity(AbrController):
    def __init__(self, density):
        self.density = density

    def decide(self, ctx):
        return Decision(density=self.density, sr_ratio=min(8.0, 1.0 / self.density))


def spec(seconds=10, points=50_000):
    return VideoSpec(name="p", n_frames=seconds * 30, fps=30, points_per_frame=points)


@given(
    density=st.floats(0.125, 1.0),
    mbps=st.floats(5.0, 200.0),
    seed=st.integers(0, 50),
)
@settings(max_examples=25, deadline=None)
def test_session_invariants(density, mbps, seed):
    """For any density/bandwidth: bytes add up, stalls are non-negative,
    quality is in [0, 1], and every chunk is played exactly once."""
    trace = lte_trace(mbps, mbps / 4, duration=30, seed=seed)
    r = simulate_session(spec(), trace, FixedDensity(density))
    assert r.n_chunks == 10
    assert r.total_bytes == sum(rec.bytes_downloaded for rec in r.records)
    assert r.stall_seconds >= 0.0
    assert all(0.0 <= rec.quality <= 1.0 for rec in r.records)
    assert all(rec.stall >= 0.0 for rec in r.records)


@given(density=st.floats(0.125, 1.0))
@settings(max_examples=15, deadline=None)
def test_bytes_monotone_in_density(density):
    """More density never costs fewer bytes on the same link."""
    trace = stable_trace(500.0)
    lo = simulate_session(spec(), trace, FixedDensity(density))
    hi = simulate_session(spec(), trace, FixedDensity(min(1.0, density * 1.5)))
    assert hi.total_bytes >= lo.total_bytes


@given(mbps_lo=st.floats(2.0, 20.0), factor=st.floats(2.0, 10.0))
@settings(max_examples=15, deadline=None)
def test_more_bandwidth_never_more_stalls(mbps_lo, factor):
    """A uniformly faster link cannot stall more at fixed density."""
    slow = simulate_session(
        spec(), stable_trace(mbps_lo), FixedDensity(1.0)
    )
    fast = simulate_session(
        spec(), stable_trace(mbps_lo * factor), FixedDensity(1.0)
    )
    assert fast.stall_seconds <= slow.stall_seconds + 1e-9


@given(seed=st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_trace_loops_seamlessly(seed):
    """Sessions longer than the trace keep running (traces loop)."""
    short_trace = lte_trace(50.0, 10.0, duration=5, seed=seed)
    r = simulate_session(spec(seconds=20), short_trace, FixedDensity(0.5))
    assert r.n_chunks == 20


def test_sr_latency_receives_decided_ratio():
    seen = []

    def lat(n, s):
        seen.append((n, s))
        return 0.0

    simulate_session(spec(seconds=3), stable_trace(100.0), FixedDensity(0.25),
                     sr_latency=lat)
    assert all(s == pytest.approx(4.0) for _, s in seen)
    assert all(n == 12_500 for n, _ in seen)
