"""Fleet simulator: parity, determinism, conservation, cache, policies."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import QoEModel
from repro.net import NetworkTrace, SharedLink, lte_trace, stable_trace
from repro.net.topology import PathScheduler
from repro.streaming import (
    AbandonPolicy,
    BackhaulDegradation,
    CDNTopology,
    ContinuousMPC,
    EdgeChunkCache,
    EdgeNode,
    FaultSchedule,
    FleetSession,
    GrayFailure,
    OriginServer,
    SessionConfig,
    SRQualityModel,
    SRResultCache,
    simulate_fleet,
    simulate_session,
    single_link_cdn,
    uniform_cdn,
)
from repro.streaming.fleet import _MAX_STALLED_STEPS
from repro.streaming.latency import MeasuredSRLatency

from ..net.drain_scheduler import DrainScheduler
from ..net.reference_scheduler import ReferenceScheduler
from .helpers import (
    FixedDensity,
    assert_same_run,
    check_byte_conservation,
    check_retry_accounting,
    spec,
    sr_lat,
)


class TestSingleSessionParity:
    """``simulate_session`` is a fleet of one, so what is left to pin is
    that a population of one built through the arrival machinery is that
    same fleet, and that a later join on a constant link is a time shift."""

    def assert_identical(self, solo, fleet_result):
        f = fleet_result.sessions[0]
        assert f.qoe == solo.qoe
        assert f.total_bytes == solo.total_bytes
        assert f.stall_seconds == solo.stall_seconds
        assert f.startup_delay == solo.startup_delay
        assert f.mean_quality == solo.mean_quality
        assert f.decisions == solo.decisions
        assert len(f.records) == len(solo.records)
        for a, b in zip(f.records, solo.records):
            assert a.quality == b.quality
            assert a.stall == b.stall
            assert a.bytes_downloaded == b.bytes_downloaded

    def test_single_arrival_population_degenerates_to_simulate_session(self):
        """A population of one (arrival process, catalog, no churn) is
        bit-exact with the plain single-session simulator."""
        from repro.streaming import ContentCatalog, TraceArrivals, build_population

        qm = SRQualityModel()
        lat = sr_lat()
        trace = lte_trace(60, 18, seed=5)
        controller = ContinuousMPC(qm, QoEModel(), lat, n_grid=12)
        sessions = build_population(
            ContentCatalog(videos=(spec(12),)),
            TraceArrivals((0.0,)),
            window=1.0,
            controller=controller,
            sr_latency=lat,
            quality_model=qm,
        )
        assert len(sessions) == 1
        solo = simulate_session(
            spec(12), trace, controller, sr_latency=lat, quality_model=qm
        )
        self.assert_identical(
            solo, simulate_fleet(sessions, topology=single_link_cdn(trace))
        )

    def test_poisson_single_arrival_is_a_time_shift_on_stable_link(self):
        """One Poisson arrival on a constant link sees the same conditions
        as a t=0 session (extends TestJoinTimes to arrival processes)."""
        from repro.streaming import ContentCatalog, PoissonArrivals, build_population

        arrivals = PoissonArrivals(rate_hz=0.05, seed=0)
        sessions = build_population(
            ContentCatalog(videos=(spec(10),)),
            arrivals,
            window=20.0,
            controller=FixedDensity(0.5),
        )
        assert len(sessions) == 1
        assert sessions[0].join_time > 0.0
        solo = simulate_session(spec(10), stable_trace(80.0), FixedDensity(0.5))
        shifted = simulate_fleet(
            sessions, topology=single_link_cdn(stable_trace(80.0))
        ).sessions[0]
        assert shifted.qoe == pytest.approx(solo.qoe, rel=1e-9)
        assert shifted.total_bytes == solo.total_bytes
        assert shifted.decisions == solo.decisions


class TestEngineParityEndToEnd:
    """Production PathScheduler vs the per-flow epoch reference through the
    whole fleet stack (the reference is swapped in for the run), and vs
    the drain-every-step predecessor within a stated bound."""

    def make_sessions(self):
        qm = SRQualityModel()
        lat = sr_lat()
        ctrl = ContinuousMPC(qm, QoEModel(), lat, n_grid=8, horizon=2)
        return [
            FleetSession(
                spec=spec(8, name=f"v{i % 3}"),
                controller=ctrl,
                sr_latency=lat,
                quality_model=qm,
                join_time=0.7 * i,
            )
            for i in range(8)
        ]

    def mpc_fleet(self):
        return simulate_fleet(
            self.make_sessions(),
            topology=single_link_cdn(lte_trace(55, 16, seed=11)),
            sr_cache="shared",
        )

    def cdn_fleet(self):
        """The multi-hop path end to end: backhaul + access hops on LTE
        traces (plain links, capacities kept until a segment ends), one
        backhaul degraded and one edge gray (``DegradedTrace`` links, read
        every step), cold misses gated by encode waits."""
        edges = tuple(
            EdgeNode(
                name=f"edge-{e}",
                backhaul=SharedLink(
                    dataclasses.replace(lte_trace(30, 9, seed=20 + e), rtt=0.02)
                ),
                access=SharedLink(lte_trace(45, 14, seed=30 + e)),
                cache=EdgeChunkCache(capacity_bytes=1 << 30),
            )
            for e in range(3)
        )
        topology = CDNTopology(
            edges=edges,
            origin=OriginServer(n_encode_workers=2, encode_seconds=0.02),
            assignment="static",
        )
        faults = FaultSchedule((
            BackhaulDegradation(edge=0, start=1.5, duration=4.0, factor=0.4),
            GrayFailure(edge=1, start=2.0, duration=5.0,
                        capacity_factor=0.5, drop_fraction=0.2),
        ))
        return simulate_fleet(
            self.make_sessions(), topology=topology, faults=faults,
            sr_cache="per-edge",
        )

    def test_mpc_fleet_scheduler_engines_agree(self, monkeypatch):
        b = self.mpc_fleet()
        monkeypatch.setattr("repro.streaming.fleet.PathScheduler", ReferenceScheduler)
        a = self.mpc_fleet()
        for ra, rb in zip(a.sessions, b.sessions):
            assert ra.qoe == rb.qoe
            assert ra.total_bytes == rb.total_bytes
            assert ra.stall_seconds == rb.stall_seconds
            assert ra.decisions == rb.decisions
        assert a.report.makespan == b.report.makespan

    def test_cdn_fleet_with_gray_failure_and_degradation_engines_agree(
        self, monkeypatch
    ):
        b = self.cdn_fleet()
        monkeypatch.setattr("repro.streaming.fleet.PathScheduler", ReferenceScheduler)
        a = self.cdn_fleet()
        assert_same_run(a, b)
        assert a.report.gray_degraded_bytes > 0

    #: Measured: both fleets complete the same 64 transfers in the same
    #: order with the same decisions; the one-link MPC fleet is bit-equal
    #: and the CDN fleet's completion instants lie at most 6.8e-16 apart
    #: (relative), its end times 3.2e-16.
    DRAIN_RTOL = 1e-12

    @pytest.mark.parametrize("fleet", ["mpc_fleet", "cdn_fleet"])
    def test_the_drain_predecessor_agrees_within_bound(self, monkeypatch, fleet):
        """The drain-every-step loop is the same fluid model: swapped into
        the same fleet it completes the same transfers in the same order,
        the sessions take the same decisions, and every completion instant
        and end time lies within ``DRAIN_RTOL`` of production's."""
        runs = []
        for engine in (PathScheduler, DrainScheduler):
            stream = []

            class Recording(engine):
                def advance(self, now, to_time):
                    done = super().advance(now, to_time)
                    stream.extend(done)
                    return done

            monkeypatch.setattr("repro.streaming.fleet.PathScheduler", Recording)
            runs.append((getattr(self, fleet)(), stream))
        (prod, prod_done), (drain, drain_done) = runs
        assert [c.flow_id for c in prod_done] == [c.flow_id for c in drain_done]
        for got, want in zip(prod_done, drain_done):
            assert got.finish_time == pytest.approx(want.finish_time, rel=self.DRAIN_RTOL)
        assert [r.decisions for r in prod.sessions] == [r.decisions for r in drain.sessions]
        assert prod.end_times == pytest.approx(drain.end_times, rel=self.DRAIN_RTOL)


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        def run():
            qm = SRQualityModel()
            lat = sr_lat()
            sessions = [
                FleetSession(
                    spec=spec(10),
                    controller=ContinuousMPC(qm, QoEModel(), lat, n_grid=8),
                    sr_latency=lat,
                    quality_model=qm,
                    join_time=0.5 * i,
                )
                for i in range(6)
            ]
            return simulate_fleet(
                sessions,
                topology=single_link_cdn(lte_trace(80, 20, seed=11)),
                sr_cache="shared",
            )

        a, b = run(), run()
        assert a.report == b.report
        for ra, rb in zip(a.sessions, b.sessions):
            assert ra.qoe == rb.qoe
            assert ra.decisions == rb.decisions
            assert ra.total_bytes == rb.total_bytes


class TestARunOwnsWhatItMutates:
    """A run builds its links, caches, encode queue and SR caches from
    the spec and writes to nothing it was handed but the telemetry sink,
    so one spec run twice gives equal runs and its objects still read as
    constructed."""

    @staticmethod
    def given_state(topology):
        def link(l):
            return (id(l.trace), type(l.trace), l.delivered_bits)

        def cache(c):
            return (
                len(c), c.used_bytes, c.hits, c.misses, c.hit_bytes,
                c.miss_bytes, c.evictions, c.fills, c.aborted_fills,
                c.coalesced, c.coalesced_bytes,
            )

        origin, queue = topology.origin, topology.origin.queue
        return (
            [
                (link(e.backhaul), link(e.access), cache(e.cache), e.sr_cache)
                for e in topology.edges
            ],
            (
                queue.n_workers, list(queue.waits), queue.busy_seconds,
                origin.n_encoded,
            ),
        )

    def test_a_run_writes_nothing_it_was_given(self):
        from dataclasses import fields, replace

        from repro.obs import Telemetry
        from repro.streaming import (
            ControlPlane, ControlPolicy, FleetSpec, RegionOutage, RetryPolicy,
        )
        from repro.streaming.faults import DegradedTrace

        topology = uniform_cdn(
            4, access_mbps=60.0, backhaul_mbps=20.0, n_regions=2,
            n_encode_workers=1, encode_seconds=0.6,
        )
        plane = ControlPlane(ControlPolicy(interval=1.0))
        spec_ = FleetSpec(
            topology=topology,
            sr_cache="per-edge",
            faults=FaultSchedule((
                RegionOutage("region-0", start=3.0, duration=3.0),
                BackhaulDegradation(edge=2, start=1.0, duration=5.0, factor=0.3),
                GrayFailure(edge=3, start=1.0, duration=6.0,
                            capacity_factor=0.5, drop_fraction=0.3),
            )),
            retry_policy=RetryPolicy(
                timeout_s=1.0, backoff_base_s=0.1, backoff_cap_s=0.4,
                max_attempts=3,
            ),
            controller=plane,
            telemetry=Telemetry(),
        )
        sessions = [
            FleetSession(
                spec=spec(8, name=f"v{i % 3}"), controller=FixedDensity(0.5),
                sr_latency=sr_lat(), join_time=0.4 * i,
            )
            for i in range(12)
        ]
        constructed = self.given_state(topology)
        plane_vars = dict(vars(plane))
        held = [getattr(spec_, f.name) for f in fields(spec_)]

        first = simulate_fleet(sessions, spec=spec_)
        second_spec = replace(spec_, telemetry=Telemetry())
        second = simulate_fleet(sessions, spec=second_spec)

        rep = first.report
        assert rep.encode_pool_resizes > 0 and rep.sessions_resteered > 0
        assert rep.chunk_retries > 0 and rep.gray_degraded_bytes > 0
        assert first.topology.origin.queue.n_workers != 1
        assert isinstance(first.topology.edges[2].backhaul.trace, DegradedTrace)
        assert self.given_state(topology) == constructed
        for edge in topology.edges:
            assert not isinstance(edge.backhaul.trace, DegradedTrace)
            assert not isinstance(edge.access.trace, DegradedTrace)
        assert vars(plane) == plane_vars
        assert all(
            getattr(spec_, f.name) is was for f, was in zip(fields(spec_), held)
        )
        assert_same_run(first, second)
        assert first.report == second.report
        assert [
            (e.t, e.kind, e.data) for e in spec_.telemetry.tracer.events
        ] == [(e.t, e.kind, e.data) for e in second_spec.telemetry.tracer.events]


class TestScenarioGrid:
    """Link/CDN serving x SR-cache mode x churn x start-up payload: every
    combination is seed-deterministic and conserves bytes and retries."""

    def make_sessions(self, n, churn, startup_bytes):
        qm = SRQualityModel()
        lat = sr_lat()
        ctrl = ContinuousMPC(qm, QoEModel(), lat, n_grid=8, horizon=2)
        config = (
            SessionConfig(startup_bytes=startup_bytes)
            if startup_bytes
            else None
        )
        return [
            FleetSession(
                spec=spec(6, name=f"v{i % 3}"),
                controller=ctrl,
                sr_latency=lat,
                quality_model=qm,
                config=config,
                join_time=1.5 * i,
                churn=AbandonPolicy(max_total_stall=20.0) if churn else None,
            )
            for i in range(n)
        ]

    @given(
        n_sessions=st.integers(3, 8),
        mode=st.sampled_from(["link", "cdn-1", "cdn-3"]),
        encode_seconds=st.sampled_from([0.0, 0.05]),
        sr_mode=st.sampled_from(["none", "per-edge", "shared"]),
        churn=st.booleans(),
        startup_bytes=st.sampled_from([0, 200_000]),
    )
    @settings(max_examples=25, deadline=None)
    def test_deterministic_and_conserving(
        self, n_sessions, mode, encode_seconds, sr_mode, churn, startup_bytes
    ):
        def run():
            if mode == "link":
                topology = single_link_cdn(stable_trace(60.0, duration=600.0))
            else:
                topology = uniform_cdn(
                    int(mode.split("-")[1]),
                    access_mbps=80.0,
                    backhaul_mbps=30.0,
                    cache_bytes=1 << 32,
                    assignment="static",
                    n_encode_workers=3,
                    encode_seconds=encode_seconds,
                )
            sr = {
                "none": None,
                "per-edge": "per-edge",
                "shared": "shared",
            }[sr_mode]
            return simulate_fleet(
                self.make_sessions(n_sessions, churn, startup_bytes),
                topology=topology,
                sr_cache=sr,
            )

        a = run()
        assert_same_run(a, run())
        check_byte_conservation(a)
        check_retry_accounting(a.report)


class TestBandwidthConservation:
    def test_fair_share_throughputs_sum_to_capacity(self):
        """Saturated fair-share fleet: delivered bits ≈ capacity × makespan."""
        mbps = 20.0
        n = 4
        trace = stable_trace(mbps, rtt=0.0)
        sessions = [
            FleetSession(spec=spec(8), controller=FixedDensity(1.0, 1.0))
            for _ in range(n)
        ]
        result = simulate_fleet(sessions, topology=single_link_cdn(trace))
        # demand (4 × 144 Mbps) >> capacity, rtt = 0: the link never idles
        # between first request and last completion.
        total_bits = 8.0 * sum(
            rec.bytes_downloaded for r in result.sessions for rec in r.records
        )
        assert total_bits == pytest.approx(mbps * 1e6 * result.report.makespan, rel=1e-9)

    def test_equal_sessions_get_equal_shares(self):
        sessions = [
            FleetSession(spec=spec(8), controller=FixedDensity(1.0, 1.0))
            for _ in range(3)
        ]
        result = simulate_fleet(
            sessions, topology=single_link_cdn(stable_trace(30.0, rtt=0.0))
        )
        ref = result.sessions[0]
        for r in result.sessions[1:]:
            assert r.total_bytes == ref.total_bytes
            assert r.stall_seconds == pytest.approx(ref.stall_seconds, rel=1e-9)

    def test_contention_slows_everyone(self):
        solo = simulate_fleet(
            [FleetSession(spec=spec(10), controller=FixedDensity(1.0, 1.0))],
            topology=single_link_cdn(stable_trace(50.0)),
        )
        crowd = simulate_fleet(
            [FleetSession(spec=spec(10), controller=FixedDensity(1.0, 1.0))
             for _ in range(5)],
            topology=single_link_cdn(stable_trace(50.0)),
        )
        assert crowd.report.stall_ratio > solo.report.stall_ratio
        assert crowd.report.mean_qoe < solo.report.mean_qoe


class TestChunkKey:
    """Edge-cache keys quantize density by the rule SR-cache keys use,
    which lives in one place: the session machine rounds a decision's
    density once and both keys read it."""

    class KeyLog:
        """An SR cache that records the keys it is asked for."""

        def __init__(self):
            self.keys = []

        def acquire(self, key, at_time, cost):
            self.keys.append(key)
            return cost

    def first_chunk(self, density, sr_ratio=2.0):
        """The first chunk's download request under ``density`` and the
        SR-cache key the machine then asks for."""
        from repro.streaming.abr import Decision
        from repro.streaming.simulator import SessionMachine

        log = self.KeyLog()
        machine = SessionMachine(
            FleetSession(
                spec=spec(4, name="v"), controller=FixedDensity(0.5),
                sr_latency=sr_lat(),
            ),
            sr_cache=log,
        )
        req = machine.advance(Decision(density=density, sr_ratio=sr_ratio))
        machine.advance(0.1)
        return req, log.keys[0]

    def test_planner_jitter_collapses_to_one_variant(self):
        from repro.streaming.fleet import _chunk_key

        def key(density):
            return _chunk_key(self.first_chunk(density)[0])

        a, b = key(0.5), key(0.5 + 1e-9)
        assert a == b == ("v", 0, 0.5)
        assert key(0.5004) == a      # rounds down
        assert key(0.5006) != a      # a real new variant

    @pytest.mark.parametrize(
        "density", [1 / 3, 0.1 + 0.2, 0.5 + 1e-9, 0.0005, 0.9995]
    )
    def test_a_jittered_density_keys_both_caches_alike(self, density):
        """The edge-cache and encode-queue key and the SR-result cache key
        carry the same density, rounded once: otherwise one SR result
        maps onto several encoded variants."""
        from repro.streaming.fleet import _chunk_key

        req, sr_key = self.first_chunk(density, sr_ratio=1 / density)
        assert _chunk_key(req)[2] == sr_key[2] == round(density, 3)

    def test_startup_payload_is_not_cacheable(self):
        from repro.streaming.fleet import _chunk_key
        from repro.streaming.simulator import DownloadRequest

        assert _chunk_key(DownloadRequest(start_time=0.0, nbytes=10)) is None


class TestSRCache:
    def test_co_watching_hits(self):
        """A later viewer of the same chunks pays zero SR time."""
        lat = sr_lat()
        sessions = [
            FleetSession(spec=spec(10), controller=FixedDensity(0.5),
                         sr_latency=lat, join_time=0.0),
            FleetSession(spec=spec(10), controller=FixedDensity(0.5),
                         sr_latency=lat, join_time=40.0),
        ]
        result = simulate_fleet(
            sessions, topology=single_link_cdn(stable_trace(200.0)), sr_cache="shared"
        )
        cache = result.sr_cache
        # Session 2 joins after session 1 finished: every chunk hits.
        assert cache.misses == 10
        assert cache.hits == 10
        assert result.report.cache_hit_rate == pytest.approx(0.5)

    def test_accounting_covers_all_sr_work(self):
        lat = sr_lat()
        n, secs = 5, 8
        sessions = [
            FleetSession(spec=spec(secs), controller=FixedDensity(0.5),
                         sr_latency=lat, join_time=2.0 * i)
            for i in range(n)
        ]
        cache = simulate_fleet(
            sessions, topology=single_link_cdn(stable_trace(300.0)), sr_cache="shared"
        ).sr_cache
        assert cache.hits + cache.misses == n * secs

    def test_no_sr_means_no_cache_traffic(self):
        sessions = [
            FleetSession(spec=spec(5), controller=FixedDensity(0.5))
            for _ in range(3)
        ]
        result = simulate_fleet(
            sessions, topology=single_link_cdn(stable_trace(200.0)), sr_cache="shared"
        )
        cache = result.sr_cache
        assert cache.hits == cache.misses == 0
        assert result.report.cache_hit_rate == 0.0

    def test_different_videos_do_not_collide(self):
        lat = sr_lat()
        sessions = [
            FleetSession(spec=spec(5, name="a"), controller=FixedDensity(0.5),
                         sr_latency=lat),
            FleetSession(spec=spec(5, name="b"), controller=FixedDensity(0.5),
                         sr_latency=lat, join_time=30.0),
        ]
        cache = simulate_fleet(
            sessions, topology=single_link_cdn(stable_trace(200.0)), sr_cache="shared"
        ).sr_cache
        assert cache.hits == 0

    def test_cache_improves_qoe_under_slow_sr(self):
        slow = MeasuredSRLatency(0.05, 1e-7, 1e-7)  # 1.5 s of SR per 1 s chunk

        def run(cache):
            sessions = [
                FleetSession(spec=spec(10), controller=FixedDensity(0.5),
                             sr_latency=slow, join_time=20.0 * i)
                for i in range(3)
            ]
            return simulate_fleet(
                sessions, topology=single_link_cdn(stable_trace(500.0)),
                sr_cache=cache,
            )

        with_cache = run("shared")
        without = run(None)
        assert with_cache.report.mean_qoe > without.report.mean_qoe

    def test_lru_eviction(self):
        from repro.streaming.fleet import SR_CACHE_CAPACITY

        cache = SRResultCache()
        for i in range(SR_CACHE_CAPACITY):
            assert cache.acquire(("v", i, 0.5, 2.0), 0.0, 1.0) == 1.0
        assert cache.acquire(("v", 0, 0.5, 2.0), 2.0, 1.0) == 0.0  # refresh chunk 0
        n = SR_CACHE_CAPACITY
        assert cache.acquire(("v", n, 0.5, 2.0), 0.0, 1.0) == 1.0  # evicts chunk 1
        assert cache.acquire(("v", 1, 0.5, 2.0), 5.0, 1.0) == 1.0  # miss again
        assert cache.acquire(("v", 1, 0.5, 2.0), 9.0, 1.0) == 0.0  # now a hit
        assert cache.acquire(("v", 0, 0.5, 2.0), 9.0, 1.0) == 0.0  # kept
        assert len(cache) == SR_CACHE_CAPACITY

    def test_result_not_ready_yet_is_a_miss(self):
        cache = SRResultCache()
        cache.acquire(("v", 0, 0.5, 2.0), 0.0, 10.0)  # ready at t=10
        assert cache.acquire(("v", 0, 0.5, 2.0), 5.0, 3.0) == 3.0  # still computing
        assert cache.acquire(("v", 0, 0.5, 2.0), 9.0, 3.0) == 0.0  # second writer won

    def test_slower_recompute_cannot_delay_an_in_flight_result(self):
        cache = SRResultCache()
        cache.acquire(("v", 0, 0.5, 2.0), 10.0, 2.0)  # A: ready at t=12
        # B misses at t=11 (A not done); B's own copy lands at t=13, which
        # must NOT push the entry's readiness past A's t=12.
        assert cache.acquire(("v", 0, 0.5, 2.0), 11.0, 2.0) == 2.0
        assert cache.acquire(("v", 0, 0.5, 2.0), 12.5, 2.0) == 0.0  # A's result


class TestFairShareOfAFleet:
    """``n`` identical viewers joining together stay in lockstep, so each
    transfer shares the link with ``n - 1`` twins: every viewer sees what
    one viewer alone sees on the same trace at ``1/n`` of the rate."""

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    @pytest.mark.parametrize("kind", ["stable", "lte"])
    def test_each_of_n_twins_gets_one_nth_of_the_link(self, n, kind):
        trace = (
            stable_trace(40.0, rtt=0.02) if kind == "stable"
            else lte_trace(60, 18, duration=60, seed=n)
        )
        sessions = [
            FleetSession(spec=spec(8), controller=FixedDensity(0.6),
                         sr_latency=sr_lat())
            for _ in range(n)
        ]
        result = simulate_fleet(sessions, topology=single_link_cdn(trace))
        first = result.sessions[0]
        assert all(r == first for r in result.sessions)
        nth = NetworkTrace(
            "nth", trace.timestamps, trace.bandwidths_bps / n, rtt=trace.rtt
        )
        solo = simulate_session(
            spec(8), nth, FixedDensity(0.6), sr_latency=sr_lat()
        )
        assert first.total_bytes == solo.total_bytes
        assert first.decisions == solo.decisions
        assert first.stall_seconds == pytest.approx(solo.stall_seconds, rel=1e-9)
        assert first.startup_delay == pytest.approx(solo.startup_delay, rel=1e-9)
        assert first.qoe == pytest.approx(solo.qoe, rel=1e-9)


class TestJoinTimes:
    def test_stagger_on_constant_link_is_a_time_shift(self):
        """On a constant-rate link a late join sees identical conditions."""
        base = simulate_fleet(
            [FleetSession(spec=spec(10), controller=FixedDensity(0.5))],
            topology=single_link_cdn(stable_trace(80.0)),
        ).sessions[0]
        late = simulate_fleet(
            [FleetSession(spec=spec(10), controller=FixedDensity(0.5),
                          join_time=12.5)],
            topology=single_link_cdn(stable_trace(80.0)),
        ).sessions[0]
        assert late.qoe == pytest.approx(base.qoe, rel=1e-9)
        assert late.total_bytes == base.total_bytes
        assert late.stall_seconds == pytest.approx(base.stall_seconds, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetSession(spec=spec(5), controller=FixedDensity(0.5), join_time=-1.0)
        with pytest.raises(ValueError):
            simulate_fleet([], topology=single_link_cdn(stable_trace(50.0)))


class TestScale:
    def test_hundred_concurrent_sessions(self):
        """Acceptance: ≥100 sessions, one process, aggregate report
        emitted — the ``fleet`` experiment's fixed-join viewers of an 8 s
        video on a 400 Mbps link, joining 0.1 s apart so about 80 stream
        at once."""
        from repro.experiments import SMOKE, Scenario

        row = Scenario(100, arrivals="fixed", edges=0, mbps_per_session=4.0)
        scale = dataclasses.replace(SMOKE, stream_seconds=8)
        sessions = [
            dataclasses.replace(s, join_time=0.1 * i)
            for i, s in enumerate(row.population(scale))
        ]
        result = simulate_fleet(
            sessions, topology=row.topology(scale), sr_cache="shared"
        )
        rep = result.report
        assert rep.n_sessions == 100
        assert len(result.sessions) == 100
        assert all(r.n_chunks == 8 for r in result.sessions)
        assert rep.p5_qoe <= rep.mean_qoe <= rep.p95_qoe
        assert 0.0 <= rep.stall_ratio < 1.0
        assert rep.cache_hit_rate > 0.5  # co-watching amortizes SR
        assert rep.total_bytes == sum(r.total_bytes for r in result.sessions)


class TestHostileInput:
    """Non-finite input is refused at the boundary, and a clock that stops
    advancing raises instead of hanging."""

    def pair(self):
        return [
            FleetSession(spec=spec(4), controller=FixedDensity(0.4),
                         sr_latency=sr_lat())
            for _ in range(2)
        ]

    def test_session_rejects_non_finite_join_time(self):
        with pytest.raises(ValueError, match="join_time"):
            FleetSession(spec=spec(4), controller=FixedDensity(0.4),
                         join_time=math.nan)

    def test_nan_trace_is_rejected_before_the_fleet_runs(self):
        with pytest.raises(ValueError, match="bandwidths_bps"):
            NetworkTrace("x", [0, 1], [math.nan, 5e6])

    def test_nan_trace_past_validation_trips_the_watchdog(self):
        trace = NetworkTrace("x", [0, 1], [5e6, 5e6])
        trace._bw_list[0] = math.nan  # what the lookups read
        with pytest.raises(RuntimeError, match="no progress"):
            simulate_fleet(self.pair(), topology=single_link_cdn(trace))

    def test_stuck_clock_trips_the_watchdog(self, monkeypatch):
        monkeypatch.setattr(
            PathScheduler, "next_event", lambda self, now: now
        )
        with pytest.raises(RuntimeError) as err:
            simulate_fleet(
                self.pair(), topology=single_link_cdn(stable_trace(50.0))
            )
        msg = str(err.value)
        assert f"{_MAX_STALLED_STEPS + 1} consecutive steps" in msg
        assert "virtual time 0.0" in msg
        assert "2 flows in flight" in msg
        assert "deferred head None" in msg and "timeout head None" in msg
