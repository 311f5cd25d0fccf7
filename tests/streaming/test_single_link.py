"""A bare link is a one-edge CDN: ``single_link_cdn`` serves it.

The golden digests in ``single_link_golden.json`` were recorded from the
dedicated single-link serving mode (``simulate_fleet(trace=…)``, a
one-hop path with no edge) before ``single_link_cdn`` replaced it; every
case here must still reproduce them bit for bit.  The ``-fair`` in a
grid or short-trace case id is part of its golden key: weighted sharing
has left, and its cases with it.
A digest hashes the ``repr`` of one session's QoE, bytes, stall,
start-up delay, decisions, abandonment and per-chunk records, so any
float that moves fails it.

The fold also lets a single link carry what only topologies could:
retry timeouts, gray failures and a control plane.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.metrics import QoEModel
from repro.net import PAPER_LTE_PROFILES, NetworkTrace, lte_trace, stable_trace
from repro.streaming import (
    AbandonPolicy,
    ContinuousMPC,
    ControlPlane,
    ControlPolicy,
    EdgeOutage,
    FaultSchedule,
    FleetSession,
    GrayFailure,
    RetryPolicy,
    SessionConfig,
    SRQualityModel,
    SRResultCache,
    simulate_fleet,
    simulate_session,
    single_link_cdn,
)

from .helpers import (
    FixedDensity,
    assert_same_run,
    check_byte_conservation,
    check_retry_accounting,
    spec,
    sr_lat,
)

GOLDEN = json.loads(
    Path(__file__).with_name("single_link_golden.json").read_text()
)


def digest(result) -> str:
    """Hash of everything a session reports, floats by ``repr``."""
    text = repr((
        result.qoe, result.total_bytes, result.stall_seconds,
        result.startup_delay, result.decisions, result.abandoned,
        [(c.quality, c.stall, c.bytes_downloaded) for c in result.records],
    ))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


# -- fleet cases: id -> () -> (sessions, trace, sr_cache) ------------------


def _mpc_fleet_on_lte():
    qm = SRQualityModel()
    lat = sr_lat()
    ctrl = ContinuousMPC(qm, QoEModel(), lat, n_grid=8, horizon=2)
    sessions = [
        FleetSession(
            spec=spec(8, name=f"v{i % 2}"), controller=ctrl, sr_latency=lat,
            quality_model=qm, join_time=1.5 * i,
            churn=AbandonPolicy(max_total_stall=20.0),
        )
        for i in range(5)
    ]
    return sessions, lte_trace(60, 18, seed=9), SRResultCache()


def _unsorted_joins_with_shared_chunk_keys():
    """Dispatch order != virtual-time order: the late joiner is listed
    first, and both sessions collide on every (video, chunk, density)."""
    sessions = [
        FleetSession(spec=spec(6), controller=FixedDensity(0.5), join_time=60.0),
        FleetSession(spec=spec(6), controller=FixedDensity(0.5)),
    ]
    return sessions, stable_trace(45.0), None


def _grid_case(seed, n, startup_bytes, shared_sr):
    def build():
        qm = SRQualityModel()
        lat = sr_lat()
        ctrl = ContinuousMPC(qm, QoEModel(), lat, n_grid=8, horizon=2)
        config = SessionConfig(startup_bytes=startup_bytes)
        sessions = [
            FleetSession(
                spec=spec(6, name=f"v{i % 2}"), controller=ctrl,
                sr_latency=lat, quality_model=qm, config=config,
                join_time=0.9 * i + 0.1 * seed,
                churn=AbandonPolicy(max_total_stall=4.0) if i % 2 else None,
            )
            for i in range(n)
        ]
        trace = lte_trace(30 + 10 * seed, 14, duration=120, seed=seed)
        return sessions, trace, SRResultCache() if shared_sr else None

    return build


# Short traces whose period the sessions cross many times, on grids with
# no point at half the period: a backhaul whose rate schedule had its own
# boundary there would split fluid advances and move the floats.
SHORT_TRACES = {
    "odd-lte-s0": lambda: lte_trace(40, 14, duration=9, seed=0),
    "odd-lte-s1": lambda: lte_trace(25, 10, duration=7.5, step=0.5, seed=1),
    "irregular": lambda: NetworkTrace(
        "irregular", [0.0, 0.75, 1.875, 3.25, 5.0, 5.25],
        [30e6, 12e6, 45e6, 8e6, 60e6, 20e6], rtt=0.02,
    ),
}


def _short_trace_case(trace_name):
    def build():
        qm = SRQualityModel()
        lat = sr_lat()
        ctrl = ContinuousMPC(qm, QoEModel(), lat, n_grid=8, horizon=2)
        sessions = [
            FleetSession(
                spec=spec(8, name=f"v{i % 2}"), controller=ctrl,
                sr_latency=lat, quality_model=qm, join_time=1.3 * i,
            )
            for i in range(3)
        ]
        return sessions, SHORT_TRACES[trace_name](), None

    return build


def _grid_axes():
    """(seed, n, startup bytes, shared SR) — one viewer has no one to
    share SR results with, so ``n == 1`` runs without an SR cache."""
    for seed in range(6):
        for n in (1, 4, 12):
            for b in (0, 1_500_000):
                for sr in (False, True) if n > 1 else (False,):
                    yield seed, n, b, sr


FLEET_CASES = {
    "mpc_fleet_on_lte": _mpc_fleet_on_lte,
    "unsorted_joins_with_shared_chunk_keys": _unsorted_joins_with_shared_chunk_keys,
    **{
        f"grid-s{seed}-n{n}-b{b}-fair-{'sr' if sr else 'nosr'}":
            _grid_case(seed, n, b, sr)
        for seed, n, b, sr in _grid_axes()
    },
    **{f"short-{name}-fair": _short_trace_case(name) for name in SHORT_TRACES},
}


def _session_case(profile, duration):
    """``simulate_session`` arguments on one paper LTE profile."""

    def build():
        mean, std = PAPER_LTE_PROFILES[profile]
        qm = SRQualityModel()
        lat = sr_lat()
        trace = lte_trace(mean, std, duration=duration, seed=profile)
        controller = ContinuousMPC(qm, QoEModel(), lat, n_grid=12)
        return (spec(20), trace, controller), {
            "sr_latency": lat, "quality_model": qm,
        }

    return build


# key -> () -> (args, kwargs) of ``simulate_session``: the four paper LTE
# profiles on a 120-s trace, and again on an odd-length 9-s one.
SESSION_CASES = {
    **{str(p): _session_case(p, 120) for p in range(len(PAPER_LTE_PROFILES))},
    **{f"odd-{p}": _session_case(p, 9) for p in range(len(PAPER_LTE_PROFILES))},
}


class TestSingleLinkGolden:
    @pytest.mark.parametrize("case", sorted(FLEET_CASES))
    def test_fleet_reproduces_the_single_link_mode(self, case):
        sessions, trace, sr_cache = FLEET_CASES[case]()
        result = simulate_fleet(
            sessions, topology=single_link_cdn(trace), sr_cache=sr_cache
        )
        assert [digest(r) for r in result.sessions] == GOLDEN["fleet"][case]
        check_byte_conservation(result)

    @pytest.mark.parametrize("case", sorted(SESSION_CASES))
    def test_simulate_session_on_paper_lte_profiles(self, case):
        args, kwargs = SESSION_CASES[case]()
        assert digest(simulate_session(*args, **kwargs)) == (
            GOLDEN["session"][case]
        )

    def test_golden_file_holds_exactly_these_cases(self):
        assert sorted(GOLDEN["fleet"]) == sorted(FLEET_CASES)
        assert sorted(GOLDEN["session"]) == sorted(SESSION_CASES)

    def test_report_of_a_single_link_run(self):
        sessions, trace, sr_cache = FLEET_CASES["mpc_fleet_on_lte"]()
        topology = single_link_cdn(trace)
        result = simulate_fleet(sessions, topology=topology, sr_cache=sr_cache)
        rep = result.report
        assert rep.edge_hit_rates == (0.0,)
        assert rep.edge_hit_rate == 0.0
        assert rep.origin_egress_bytes == rep.total_bytes
        assert rep.encode_core_seconds == 0.0
        assert result.topology is topology
        assert result.assignment == [0] * len(sessions)


class TestWhatTheFoldAllows:
    """Resilience and control now ride a bare link: each run is
    deterministic and keeps the byte and retry ledgers."""

    def sessions(self):
        return [
            FleetSession(spec=spec(8, name=f"v{i % 2}"),
                         controller=FixedDensity(0.8), join_time=0.5 * i)
            for i in range(4)
        ]

    def run(self, **fields):
        return simulate_fleet(
            self.sessions(), topology=single_link_cdn(stable_trace(25.0)),
            **fields,
        )

    def check(self, **fields):
        a = self.run(**fields)
        assert_same_run(a, self.run(**fields))
        check_byte_conservation(a)
        check_retry_accounting(a.report)
        return a.report

    def test_finite_retry_timeout(self):
        rep = self.check(retry_policy=RetryPolicy(timeout_s=0.5, max_attempts=3))
        assert rep.requests_timed_out > 0
        assert rep.requests_hedged == 0  # no second edge to hedge to

    def test_gray_failure_on_the_lone_edge(self):
        gray = GrayFailure(edge=0, start=1.0, duration=4.0,
                           capacity_factor=0.5, drop_fraction=0.3)
        rep = self.check(faults=FaultSchedule((gray,)))
        assert rep.gray_degraded_bytes > 0
        assert rep.chunk_retries > 0
        assert rep.faults_injected == 1

    def test_control_plane_ticks(self):
        rep = self.check(controller=ControlPlane(ControlPolicy(interval=1.0)))
        assert rep.control_ticks > 0

    @pytest.mark.parametrize("faults", [None, "gray"])
    def test_many_wraps_of_a_fractional_step_trace(self, faults):
        """Wraps of a 3.2-s trace on a 0.1-s grid land on floats an ulp
        short of a boundary, where the clock used to stand still; a gray
        failure reads the same trace through its degraded wrapper."""
        if faults == "gray":
            gray = GrayFailure(edge=0, start=2.0, duration=20.0,
                               capacity_factor=0.5)
            faults = FaultSchedule((gray,))
        trace = lte_trace(30, 10, duration=3.3, step=0.1, seed=0)
        result = simulate_fleet(
            self.sessions(), topology=single_link_cdn(trace), faults=faults
        )
        check_byte_conservation(result)
        assert all(len(r.records) == 8 for r in result.sessions)

    def test_outage_on_the_lone_edge_is_refused(self):
        outage = EdgeOutage(edge=0, start=1.0, duration=2.0)
        with pytest.raises(ValueError, match="no live edge"):
            self.run(faults=FaultSchedule((outage,)))
