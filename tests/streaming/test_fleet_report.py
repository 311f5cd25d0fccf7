"""FleetReport fields against what the run itself recorded.

``simulate_fleet`` builds its :class:`FleetReport` in one place, after
the loop ends.  Each test here re-derives one group of fields from a
second source — the per-session results, the topology's counters, or
the run's own event stream — on three runs: a churning single link with
a shared SR cache, a popularity-steered CDN with per-edge SR caches and
an encode queue, and a CDN under a degradation, a gray failure and a
retry policy.
"""

import math

import numpy as np
import pytest

from repro.metrics import QoEModel
from repro.net import lte_trace
from repro.obs import Telemetry
from repro.obs.events import (
    EV_CACHE_COALESCE,
    EV_CACHE_HIT,
    EV_CACHE_MISS,
    EV_CACHE_VOID,
    EV_CHUNK_STALL,
    EV_ENCODE_ENQUEUE,
    EV_SESSION_ABANDON,
    EV_SESSION_FINISH,
    EV_SESSION_START,
    ops_from_events,
)
from repro.streaming import (
    AbandonPolicy,
    BackhaulDegradation,
    ContinuousMPC,
    FaultSchedule,
    FleetSession,
    GrayFailure,
    RetryPolicy,
    SRQualityModel,
    simulate_fleet,
    single_link_cdn,
    uniform_cdn,
)
from repro.streaming.cdn import wait_percentile

from .helpers import (
    FixedDensity,
    check_byte_conservation,
    check_retry_accounting,
    check_retry_events,
    spec,
    sr_lat,
)


def mpc_sessions(n, n_videos, gap, churn=None):
    qm = SRQualityModel()
    lat = sr_lat()
    ctrl = ContinuousMPC(qm, QoEModel(), lat, n_grid=8, horizon=2)
    return [
        FleetSession(
            spec=spec(6, name=f"v{i % n_videos}"),
            controller=ctrl,
            sr_latency=lat,
            quality_model=qm,
            join_time=gap * i,
            churn=churn,
        )
        for i in range(n)
    ]


def link_run():
    return mpc_sessions(6, 2, 1.5, AbandonPolicy(max_total_stall=1.0)), dict(
        topology=single_link_cdn(lte_trace(25, 10, seed=3)),
        sr_cache="shared",
    )


def cdn_run():
    return mpc_sessions(9, 3, 1.0), dict(
        topology=uniform_cdn(
            3,
            access_mbps=80.0,
            backhaul_mbps=20.0,
            assignment="popularity",
            n_encode_workers=1,
            encode_seconds=0.2,
        ),
        sr_cache="per-edge",
    )


def faulted_run():
    sessions = [
        FleetSession(
            spec=spec(6, name=f"v{i % 2}"),
            controller=FixedDensity(0.4),
            join_time=0.5 * i,
        )
        for i in range(8)
    ]
    return sessions, dict(
        topology=uniform_cdn(
            2, access_mbps=80.0, backhaul_mbps=4.0, n_encode_workers=4
        ),
        assignment=[i % 2 for i in range(8)],
        faults=FaultSchedule((
            BackhaulDegradation(edge=0, start=2.0, duration=4.0, factor=0.2),
            GrayFailure(
                edge=1, start=1.0, duration=5.0, capacity_factor=0.5,
                drop_fraction=0.3, drop_delay_s=0.5,
            ),
        )),
        retry_policy=RetryPolicy(
            timeout_s=1.0, backoff_base_s=0.1, backoff_cap_s=0.4,
            max_attempts=3,
        ),
    )


RUNS = {"link": link_run, "cdn": cdn_run, "faulted": faulted_run}


@pytest.fixture(scope="module", params=sorted(RUNS))
def run(request):
    """``(result, tracer, fields)`` of one traced fleet run."""
    sessions, fields = RUNS[request.param]()
    tel = Telemetry(metrics=False, profile=False)
    result = simulate_fleet(sessions, telemetry=tel, **fields)
    return result, tel.tracer, fields


def events(tracer, kind):
    return [ev for ev in tracer if ev.kind == kind]


def voided(tracer, what):
    """The ``cache.void`` events retracting a counted ``what``."""
    return [ev for ev in events(tracer, EV_CACHE_VOID) if ev.data["what"] == what]


class TestSessionFields:
    def test_every_session_starts_once_and_ends_once(self, run):
        result, tracer, _ = run
        n = result.report.n_sessions
        assert n == len(result.sessions) == len(result.session_specs)
        assert n == len(result.assignment) == len(result.end_times)
        starts = sorted(ev.session for ev in events(tracer, EV_SESSION_START))
        ends = sorted(
            ev.session
            for kind in (EV_SESSION_FINISH, EV_SESSION_ABANDON)
            for ev in events(tracer, kind)
        )
        assert starts == ends == list(range(n))

    def test_abandonment_counts_the_viewers_that_left(self, run):
        result, tracer, _ = run
        rep = result.report
        left = [i for i, r in enumerate(result.sessions) if r.abandoned]
        assert rep.n_abandoned == len(left)
        assert rep.abandon_rate == len(left) / rep.n_sessions
        assert sorted(
            ev.session for ev in events(tracer, EV_SESSION_ABANDON)
        ) == left

    def test_qoe_statistics_summarise_the_sessions(self, run):
        result, _, _ = run
        rep = result.report
        qoe = [r.qoe for r in result.sessions]
        assert rep.mean_qoe == pytest.approx(math.fsum(qoe) / len(qoe), rel=1e-12)
        assert rep.p5_qoe == np.percentile(qoe, 5)
        assert rep.p95_qoe == np.percentile(qoe, 95)
        assert min(qoe) <= rep.p5_qoe <= rep.p95_qoe <= max(qoe)

    def test_stalls_match_the_stall_events(self, run):
        result, tracer, _ = run
        rep = result.report
        stalls = [r.stall_seconds for r in result.sessions]
        traced = math.fsum(ev.data["seconds"] for ev in events(tracer, EV_CHUNK_STALL))
        assert rep.total_stall_seconds == pytest.approx(math.fsum(stalls), abs=1e-9)
        assert rep.total_stall_seconds == pytest.approx(traced, abs=1e-9)
        watched = math.fsum(r.watched_seconds for r in result.sessions)
        assert rep.stall_ratio == pytest.approx(
            rep.total_stall_seconds / (watched + rep.total_stall_seconds),
            rel=1e-12,
        )
        assert 0.0 <= rep.stall_ratio < 1.0

    def test_bytes_and_quality_sum_the_sessions(self, run):
        result, _, _ = run
        rep = result.report
        assert rep.total_bytes == sum(r.total_bytes for r in result.sessions)
        assert rep.total_bytes == sum(
            rec.bytes_downloaded for r in result.sessions for rec in r.records
        )
        assert rep.mean_quality == pytest.approx(
            math.fsum(r.mean_quality for r in result.sessions)
            / rep.n_sessions,
            rel=1e-12,
        )

    def test_makespan_spans_first_join_to_last_completion(self, run):
        result, _, _ = run
        joins = [s.join_time for s in result.session_specs]
        assert all(end > join for end, join in zip(result.end_times, joins))
        assert result.report.makespan == max(result.end_times) - min(joins)


class TestServingFields:
    def test_delivered_bytes_are_conserved(self, run):
        check_byte_conservation(run[0])

    def test_edge_hit_rates_match_the_cache_events(self, run):
        result, tracer, _ = run
        rep = result.report
        n_edges = len(result.topology.edges)
        hits, misses = [0] * n_edges, [0] * n_edges
        for ev in events(tracer, EV_CACHE_HIT):
            hits[ev.data["edge"]] += 1
        for ev in voided(tracer, "hit"):
            hits[ev.data["edge"]] -= 1
        for ev in events(tracer, EV_CACHE_MISS):
            misses[ev.data["edge"]] += 1
        assert rep.edge_hit_rates == tuple(
            h / (h + m) if h + m else 0.0 for h, m in zip(hits, misses)
        )
        lookups = sum(hits) + sum(misses)
        assert rep.edge_hit_rate == (sum(hits) / lookups if lookups else 0.0)

    def test_coalescing_matches_the_cache_events(self, run):
        result, tracer, _ = run
        attached = events(tracer, EV_CACHE_COALESCE)
        retracted = voided(tracer, "coalesced")
        assert result.report.coalesced_fills == len(attached) - len(retracted)
        assert result.report.coalesced_bytes == sum(
            ev.data["nbytes"] for ev in attached
        ) - sum(ev.data["nbytes"] for ev in retracted)

    def test_sr_hit_rate_reads_the_runs_sr_caches(self, run):
        result, _, fields = run
        rep = result.report
        mode = fields.get("sr_cache")
        if mode == "per-edge":
            caches = [e.sr_cache for e in result.topology.edges]
            assert result.sr_cache is None
            assert rep.sr_edge_hit_rates == tuple(c.hit_rate for c in caches)
        else:
            caches = [result.sr_cache] if mode == "shared" else []
            assert (result.sr_cache is None) == (mode is None)
            assert rep.sr_edge_hit_rates == ()
        hits = sum(c.hits for c in caches)
        lookups = hits + sum(c.misses for c in caches)
        assert rep.cache_hit_rate == (hits / lookups if lookups else 0.0)

    def test_encode_fields_match_the_enqueue_events(self, run):
        result, tracer, _ = run
        rep = result.report
        waits = [ev.data["wait"] for ev in events(tracer, EV_ENCODE_ENQUEUE)]
        assert rep.encode_wait_p50 == wait_percentile(waits, 50.0)
        assert rep.encode_wait_p95 == wait_percentile(waits, 95.0)
        assert rep.encode_wait_p50 <= rep.encode_wait_p95
        assert rep.encode_core_seconds == result.topology.origin.queue.busy_seconds
        assert (rep.encode_core_seconds > 0.0) == bool(waits)


class TestFaultFields:
    def test_counters_match_the_event_fold(self, run):
        result, tracer, fields = run
        rep = result.report
        fold = ops_from_events(tracer)
        assert fold == {
            "sessions_resteered": rep.sessions_resteered,
            "faults_injected": rep.faults_injected,
            "control_ticks": rep.control_ticks,
            "encode_pool_resizes": rep.encode_pool_resizes,
            "requests_timed_out": rep.requests_timed_out,
        }
        faults = fields.get("faults")
        assert rep.faults_injected == (len(faults) if faults else 0)

    def test_retries_balance_the_fetches(self, run):
        result, tracer, _ = run
        check_retry_accounting(result.report)
        check_retry_events(tracer, result.report)

    def test_an_uncontrolled_run_reports_no_control_activity(self, run):
        rep = run[0].report
        assert rep.control_ticks == rep.encode_pool_resizes == 0
