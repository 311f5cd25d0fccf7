"""Sharded fleet executor: parity oracle, determinism, partition units.

``shard_fleet(workers=1)`` joins the oracle-parity convention (kNN
backends, vectorized MPC, PathScheduler engines): the hypothesis grid
pins it **bit-exact** against ``simulate_fleet`` across assignment
policies, encode contention, cache configurations, and SR-cache modes.
Multi-worker runs are pinned for seed-determinism and for the
conservation laws that must survive the merge.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import QoEModel
from repro.streaming import (
    AbandonPolicy,
    ContinuousMPC,
    FleetSession,
    SRQualityModel,
    SRResultCache,
    partition_topology,
    shard_fleet,
    simulate_fleet,
    uniform_cdn,
)

from .helpers import FixedDensity, spec, sr_lat


def make_sessions(n, n_videos=3, churn=True):
    """A co-watching MPC fleet; fresh controller per call (fleet idiom:
    one shared controller instance across the sessions of one run)."""
    qm = SRQualityModel()
    lat = sr_lat()
    ctrl = ContinuousMPC(qm, QoEModel(), lat, n_grid=8, horizon=2)
    return [
        FleetSession(
            spec=spec(6, name=f"v{i % n_videos}"),
            controller=ctrl,
            sr_latency=lat,
            quality_model=qm,
            join_time=1.5 * i,
            churn=AbandonPolicy(max_total_stall=20.0) if churn else None,
        )
        for i in range(n)
    ]


def make_topology(
    n_edges, assignment="static", encode_seconds=0.0, cache_bytes=1 << 32
):
    return uniform_cdn(
        n_edges,
        access_mbps=80.0,
        backhaul_mbps=30.0,
        cache_bytes=cache_bytes,
        assignment=assignment,
        n_encode_workers=3,
        encode_seconds=encode_seconds,
    )


def sr_cache_for(mode):
    return {"none": None, "per-edge": "per-edge", "shared": SRResultCache()}[mode]


def assert_sessions_identical(a, b):
    assert len(a.sessions) == len(b.sessions)
    for ra, rb in zip(a.sessions, b.sessions):
        assert ra.qoe == rb.qoe
        assert ra.total_bytes == rb.total_bytes
        assert ra.stall_seconds == rb.stall_seconds
        assert ra.startup_delay == rb.startup_delay
        assert ra.decisions == rb.decisions
        assert ra.abandoned == rb.abandoned


class TestWorkersOneParity:
    """shard_fleet(workers=1) == simulate_fleet, bit for bit."""

    @given(
        n_sessions=st.integers(3, 8),
        n_edges=st.integers(1, 3),
        assignment=st.sampled_from(["static", "least-loaded", "popularity"]),
        encode_seconds=st.sampled_from([0.0, 0.05]),
        cache_bytes=st.sampled_from([0, 1 << 32]),
        sr_mode=st.sampled_from(["none", "per-edge", "shared"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_parity_grid(
        self, n_sessions, n_edges, assignment, encode_seconds, cache_bytes, sr_mode
    ):
        def run(fn):
            return fn(
                make_sessions(n_sessions),
                topology=make_topology(
                    n_edges,
                    assignment=assignment,
                    encode_seconds=encode_seconds,
                    cache_bytes=cache_bytes,
                ),
                sr_cache=sr_cache_for(sr_mode),
            )

        ref = run(simulate_fleet)
        sharded = run(lambda s, **kw: shard_fleet(s, topology=kw.pop("topology"), **kw))
        assert sharded.report == ref.report
        assert_sessions_identical(ref, sharded)
        assert sharded.assignment == ref.assignment
        assert sharded.end_times == ref.end_times

    def test_report_fields_survive_merge(self):
        """The merged report reproduces every CDN aggregate, including
        percentiles that cannot be merged from per-shard summaries."""
        sessions = make_sessions(8)
        topo = make_topology(2, assignment="popularity", encode_seconds=0.2)
        ref = simulate_fleet(
            make_sessions(8), topology=make_topology(
                2, assignment="popularity", encode_seconds=0.2
            ), sr_cache="per-edge",
        ).report
        rep = shard_fleet(sessions, topology=topo, workers=1, sr_cache="per-edge").report
        assert rep == ref
        assert rep.encode_wait_p95 >= rep.encode_wait_p50
        assert len(rep.edge_hit_rates) == 2
        assert len(rep.sr_edge_hit_rates) == 2

    def test_single_shard_runs_inline_against_callers_sr_cache(self):
        cache = SRResultCache()
        result = shard_fleet(
            make_sessions(4), topology=make_topology(2), workers=1, sr_cache=cache
        )
        assert result.sr_cache is cache
        assert cache.hits + cache.misses > 0

    def test_callers_topology_never_mutated(self):
        topo = make_topology(2)
        shard_fleet(make_sessions(5), topology=topo, workers=2)
        assert all(
            e.cache.hits == 0 and e.cache.misses == 0 for e in topo.edges
        )
        assert topo.origin.queue.n_jobs == 0


class TestMultiWorker:
    """Process-parallel runs: determinism, conservation, SR semantics."""

    def run(self, workers, n=12):
        return shard_fleet(
            make_sessions(n),
            topology=make_topology(4, assignment="popularity", encode_seconds=0.05),
            workers=workers,
            sr_cache="per-edge",
        )

    def test_seed_determinism_workers_4(self):
        a, b = self.run(4), self.run(4)
        assert a.report == b.report
        assert_sessions_identical(a, b)
        assert a.assignment == b.assignment

    def test_conservation_survives_merge(self):
        """origin egress + edge hits + coalesced == delivered, summed
        across shards exactly as within one process."""
        sessions = [
            FleetSession(
                spec=spec(6, name=f"v{i % 4}"),
                controller=FixedDensity(0.4),
                join_time=1.0 * i,
            )
            for i in range(16)
        ]
        topo = make_topology(3, assignment="popularity")
        result = shard_fleet(sessions, topology=topo, workers=3)
        rep = result.report
        # hit bytes are not in the report; recover them from conservation
        # on the single-process reference, then compare the sharded run's
        # invariant directly: delivered == egress + (hits + coalesced).
        assert rep.total_bytes > 0
        assert rep.origin_egress_bytes + rep.coalesced_bytes <= rep.total_bytes
        assert rep.n_sessions == 16
        assert all(r is not None for r in result.sessions)

    def test_workers_beyond_edges_capped(self):
        result = shard_fleet(make_sessions(6), topology=make_topology(2), workers=8)
        assert result.report.n_sessions == 6

    def test_empty_shard_tolerated(self):
        """An explicit assignment can starve an edge; its shard must
        contribute zeroed statistics, not crash."""
        sessions = make_sessions(4)
        topo = make_topology(2)
        result = shard_fleet(
            sessions, topology=topo, workers=2, assignment=[0, 0, 0, 0]
        )
        assert result.report.n_sessions == 4
        assert result.report.edge_hit_rates[1] == 0.0

    def test_shared_sr_cache_copied_per_shard(self):
        """A plain SRResultCache cannot span processes: multi-worker runs
        copy it, so the caller's instance stays untouched and the result
        carries None."""
        cache = SRResultCache()
        result = shard_fleet(
            make_sessions(6), topology=make_topology(2), workers=2, sr_cache=cache
        )
        assert result.sr_cache is None
        assert cache.hits == 0 and cache.misses == 0
        assert 0.0 <= result.report.cache_hit_rate <= 1.0


class TestShardedTelemetry:
    """Shard-tagged event streams must merge in virtual-time order with
    nothing lost or invented across the shard boundary."""

    def sessions(self, n=12):
        return [
            FleetSession(
                spec=spec(6, name=f"v{i % 4}"),
                controller=FixedDensity(0.4),
                join_time=1.0 * i,
            )
            for i in range(n)
        ]

    def run(self, workers, telemetry=None, n=12):
        from repro.streaming import BackhaulDegradation, FaultSchedule

        return shard_fleet(
            self.sessions(n),
            topology=make_topology(3, assignment="popularity", encode_seconds=0.05),
            workers=workers,
            faults=FaultSchedule((
                BackhaulDegradation(
                    edge=0, start=2.0, duration=4.0, factor=0.2,
                ),
            )),
            telemetry=telemetry,
        )

    def test_merged_stream_is_virtual_time_ordered(self):
        from repro.obs import Telemetry
        from repro.obs.events import _sort_key

        tel = Telemetry(metrics=False)
        self.run(3, telemetry=tel)
        events = tel.tracer.events
        assert events
        assert {ev.shard for ev in events} == {0, 1, 2}
        keys = [_sort_key(ev) for ev in events]
        assert keys == sorted(keys)

    def test_event_counts_conserved_across_shard_boundary(self):
        """Sharding must neither drop nor duplicate events: every kind's
        count equals the sum of the per-shard streams, session ids cover
        the whole fleet exactly once, and the lifecycle balance (starts
        == finishes + abandons, fetches == completes) holds on the
        merged stream just as it does in one process."""
        from repro.obs import Telemetry
        from repro.obs.events import ops_from_events

        tel = Telemetry(metrics=False)
        result = self.run(3, telemetry=tel, n=12)
        c = tel.tracer.counts()
        by_shard: dict[int, dict[str, int]] = {}
        for ev in tel.tracer:
            by_shard.setdefault(ev.shard, {}).setdefault(ev.kind, 0)
            by_shard[ev.shard][ev.kind] += 1
        for kind, total in c.items():
            assert total == sum(s.get(kind, 0) for s in by_shard.values())
        starts = [ev.session for ev in tel.tracer if ev.kind == "session.start"]
        assert sorted(starts) == list(range(12))
        assert c["session.start"] == 12
        assert c.get("session.finish", 0) + c.get("session.abandon", 0) == 12
        assert c["chunk.fetch"] == c["chunk.complete"]
        assert c["chunk.decision"] == c["chunk.complete"]
        # the degradation is partitioned to exactly one shard's stream
        fold = ops_from_events(tel.tracer)
        assert fold["faults_injected"] == result.report.faults_injected == 1

    def test_edge_ids_globalized(self):
        """Shard-local edge indices must come back as the caller's
        global indices: every edge named in the merged stream exists in
        the topology, and edge 2 (a different shard than edge 0) still
        appears."""
        from repro.obs import Telemetry

        tel = Telemetry(metrics=False)
        self.run(3, telemetry=tel)
        edges = {
            ev.data["edge"]
            for ev in tel.tracer
            if ev.data and "edge" in ev.data
        }
        assert edges <= {0, 1, 2}
        assert len(edges) == 3

    def test_profiler_sums_worker_phase_totals(self):
        from repro.obs import Telemetry

        tel = Telemetry(trace=False, metrics=False)
        self.run(2, telemetry=tel)
        assert tel.profiler.totals.keys() >= {"scheduler", "advance", "planner"}
        assert tel.profiler.total_seconds > 0

    def test_workers_one_report_unchanged_by_telemetry(self):
        from repro.obs import Telemetry

        base = self.run(1)
        traced = self.run(1, telemetry=Telemetry())
        assert traced.report == base.report


class TestShardedFaults:
    """Fault schedules under the sharded executor: degradations shard,
    anything that re-steers viewers across shard boundaries is rejected."""

    def degradation(self, edge=0):
        from repro.streaming import BackhaulDegradation, FaultSchedule

        return FaultSchedule((
            BackhaulDegradation(edge=edge, start=2.0, duration=4.0, factor=0.2),
        ))

    def test_workers_one_degradation_parity(self):
        sessions = make_sessions(6)
        faults = self.degradation()
        ref = simulate_fleet(
            sessions, topology=make_topology(2), faults=faults
        )
        sharded = shard_fleet(
            make_sessions(6), topology=make_topology(2), workers=1, faults=faults
        )
        assert sharded.report == ref.report
        assert_sessions_identical(ref, sharded)
        assert sharded.report.faults_injected == 1

    def test_multiworker_degradations_partitioned_once(self):
        from repro.streaming import BackhaulDegradation, FaultSchedule

        faults = FaultSchedule((
            BackhaulDegradation(edge=0, start=2.0, duration=4.0, factor=0.2),
            BackhaulDegradation(edge=2, start=3.0, duration=4.0, factor=0.5),
        ))
        result = shard_fleet(
            make_sessions(9), topology=make_topology(3), workers=3, faults=faults
        )
        assert result.report.faults_injected == 2
        assert result.report.n_sessions == 9

    def test_outage_rejected_with_guidance(self):
        from repro.streaming import EdgeOutage, FaultSchedule

        faults = FaultSchedule((EdgeOutage(edge=0, start=2.0, duration=2.0),))
        with pytest.raises(ValueError, match="simulate_fleet"):
            shard_fleet(make_sessions(4), topology=make_topology(2), workers=2,
                        faults=faults)

    def test_flash_crowd_rejected(self):
        from repro.streaming import FlashCrowd, FaultSchedule

        faults = FaultSchedule((
            FlashCrowd(spec=spec(6), start=2.0, n_viewers=3),
        ))
        with pytest.raises(ValueError, match="simulate_fleet"):
            shard_fleet(make_sessions(4), topology=make_topology(2), workers=2,
                        faults=faults)

    def test_empty_schedule_is_plain_sharding(self):
        from repro.streaming import FaultSchedule

        a = shard_fleet(make_sessions(5), topology=make_topology(2), workers=2)
        b = shard_fleet(make_sessions(5), topology=make_topology(2), workers=2,
                        faults=FaultSchedule())
        assert a.report == b.report


class TestPartition:
    def sessions(self, n):
        return [
            FleetSession(spec=spec(4, name=f"v{i % 3}"), controller=FixedDensity(0.5))
            for i in range(n)
        ]

    def test_edges_disjoint_and_complete(self):
        topo = make_topology(5)
        plan = partition_topology(topo, self.sessions(20), 3)
        owned = [e for s in plan.shards for e in s.edge_indices]
        assert sorted(owned) == list(range(5))
        assert plan.n_shards == 3

    def test_sessions_follow_their_edges(self):
        topo = make_topology(4)
        sessions = self.sessions(17)
        plan = partition_topology(topo, sessions, 2)
        for shard in plan.shards:
            for sid in shard.session_indices:
                assert plan.assignment[sid] in shard.edge_indices

    def test_encode_pool_divided_min_one_each(self):
        topo = make_topology(4)  # pool of 3 workers
        plan = partition_topology(topo, self.sessions(8), 4)
        shares = [s.n_encode_workers for s in plan.shards]
        assert all(share >= 1 for share in shares)
        # an evenly divisible pool is conserved exactly
        topo8 = uniform_cdn(
            4, access_mbps=10.0, backhaul_mbps=5.0, n_encode_workers=8
        )
        plan8 = partition_topology(topo8, self.sessions(8), 4)
        assert sum(s.n_encode_workers for s in plan8.shards) == 8

    def test_balance_by_viewer_count(self):
        """Greedy balance: no shard holds every viewer when the load is
        splittable."""
        topo = make_topology(4, assignment="least-loaded")
        plan = partition_topology(topo, self.sessions(16), 2)
        loads = [len(s.session_indices) for s in plan.shards]
        assert loads == [8, 8]

    def test_validation(self):
        topo = make_topology(2)
        with pytest.raises(ValueError, match="workers"):
            partition_topology(topo, self.sessions(2), 0)
        with pytest.raises(ValueError, match="at least one session"):
            partition_topology(topo, [], 2)
        with pytest.raises(ValueError, match="assignment"):
            partition_topology(topo, self.sessions(3), 2, assignment=[0])
        with pytest.raises(ValueError, match="edge indices"):
            partition_topology(topo, self.sessions(2), 2, assignment=[0, 9])
        with pytest.raises(ValueError, match="CDNTopology"):
            shard_fleet(self.sessions(2), topology=None, workers=2)
        with pytest.raises(ValueError, match="at least one session"):
            shard_fleet([], topology=topo, workers=2)

    @pytest.mark.parametrize("workers", [2.5, math.nan, math.inf, True])
    def test_workers_must_be_an_integer(self, workers):
        """A float count used to die inside ``range`` (2.5, NaN) or run
        one shard per edge (inf); ``True`` is not a count either."""
        topo = make_topology(4)
        with pytest.raises(ValueError, match=f"got {workers!r}"):
            partition_topology(topo, self.sessions(4), workers)
        with pytest.raises(ValueError, match=f"got {workers!r}"):
            shard_fleet(self.sessions(4), topology=topo, workers=workers)


class TestShardedRegions:
    """Region-scoped outages under the sharded executor: accepted when
    the whole fault domain (plus a fallback edge) lands in one shard,
    rejected with guidance otherwise."""

    def topo(self, n_edges=4, n_regions=2):
        return uniform_cdn(
            n_edges,
            access_mbps=80.0,
            backhaul_mbps=30.0,
            cache_bytes=1 << 32,
            assignment="static",
            n_encode_workers=4,
            encode_seconds=0.0,
            n_regions=n_regions,
        )

    def region_outage(self, region="region-0"):
        from repro.streaming import FaultSchedule, RegionOutage

        return FaultSchedule((
            RegionOutage(region=region, start=3.0, duration=4.0),
        ))

    def test_workers_one_region_outage_parity(self):
        """workers=1 joins the oracle-parity convention for region
        faults too: bit-exact against simulate_fleet."""
        faults = self.region_outage()
        ref = simulate_fleet(
            make_sessions(8), topology=self.topo(), faults=faults,
            assignment=[i % 4 for i in range(8)],
        )
        sharded = shard_fleet(
            make_sessions(8), topology=self.topo(), workers=1, faults=faults,
            assignment=[i % 4 for i in range(8)],
        )
        assert sharded.report == ref.report
        assert_sessions_identical(ref, sharded)
        assert sharded.report.faults_injected == 1
        assert sharded.report.sessions_resteered > 0
        assert sharded.report.region_recovery == ref.report.region_recovery

    def test_contained_region_accepted_and_merged(self):
        """A region outage is legal when one shard owns the whole fault
        domain plus a live fallback edge.  The greedy balance (viewer
        loads 6,1,5,5,0,0 over 6 edges, 2 workers) lands shard 0 on
        edges {0, 1, 4, 5}: region-0 = (0, 1) is wholly contained and
        edges 4-5 survive as in-shard failover targets."""
        topo = uniform_cdn(
            6,
            access_mbps=80.0,
            backhaul_mbps=30.0,
            assignment="static",
            n_encode_workers=4,
            n_regions=3,
        )
        assignment = [0] * 6 + [1] + [2] * 5 + [3] * 5
        faults = self.region_outage()
        result = shard_fleet(
            make_sessions(17), topology=topo, workers=2, faults=faults,
            assignment=assignment,
        )
        rep = result.report
        assert rep.faults_injected == 1
        assert rep.sessions_resteered > 0
        assert rep.n_sessions == 17
        assert all(r is not None for r in result.sessions)
        # Everyone who joined the dark region before the outage ended
        # (join_time = 1.5 * i < 7.0) moved off it; later joiners never
        # saw it and keep their edge.
        assert all(e not in (0, 1) for e in result.assignment[:5])
        # The merged report carries the per-region recovery rows.
        assert [name for name, _, _ in rep.region_recovery]

    def test_spanning_region_rejected(self):
        # 2 workers x 4 edges: each shard owns 2 edges, so a 2-edge
        # region... still fits.  Force a span: 3 workers over 4 edges
        # puts region-0's two edges in different shards.
        faults = self.region_outage()
        with pytest.raises(ValueError, match="spans shards"):
            shard_fleet(
                make_sessions(8), topology=self.topo(), workers=3, faults=faults
            )

    def test_all_dark_shard_rejected(self):
        # Viewer loads 3,2,3,2 over 4 edges / 2 workers make the greedy
        # balance deal shard 0 exactly {0, 1} == region-0: the whole
        # shard would go dark with no in-shard fallback edge.
        faults = self.region_outage()
        assignment = [0] * 3 + [1] * 2 + [2] * 3 + [3] * 2
        with pytest.raises(ValueError, match="fallback"):
            shard_fleet(
                make_sessions(10), topology=self.topo(), workers=2, faults=faults,
                assignment=assignment,
            )

    def test_gray_failure_shards_like_a_degradation(self):
        from repro.streaming import FaultSchedule, GrayFailure

        faults = FaultSchedule((
            GrayFailure(edge=0, start=2.0, duration=4.0,
                        capacity_factor=0.5, drop_fraction=0.3,
                        drop_delay_s=0.5),
        ))
        ref = simulate_fleet(
            make_sessions(8), topology=self.topo(), faults=faults,
            assignment=[i % 4 for i in range(8)],
        )
        sharded = shard_fleet(
            make_sessions(8), topology=self.topo(), workers=2, faults=faults,
            assignment=[i % 4 for i in range(8)],
        )
        assert sharded.report.gray_degraded_bytes == (
            ref.report.gray_degraded_bytes
        )
        assert sharded.report.chunk_retries == ref.report.chunk_retries
        assert sharded.report.n_sessions == 8


class TestShardedRetryPolicy:
    def slow_topo(self):
        return uniform_cdn(
            2,
            access_mbps=80.0,
            backhaul_mbps=4.0,
            assignment="static",
            n_encode_workers=4,
        )

    def policy(self):
        from repro.streaming import RetryPolicy

        return RetryPolicy(
            timeout_s=1.0, backoff_base_s=0.1, backoff_cap_s=0.4,
            max_attempts=3,
        )

    def test_workers_one_retry_parity(self):
        ref = simulate_fleet(
            make_sessions(6), topology=self.slow_topo(),
            retry_policy=self.policy(),
        )
        sharded = shard_fleet(
            make_sessions(6), topology=self.slow_topo(), workers=1,
            retry_policy=self.policy(),
        )
        assert sharded.report == ref.report
        assert_sessions_identical(ref, sharded)
        assert sharded.report.requests_timed_out > 0

    def test_multiworker_retry_counters_merge(self):
        ref = simulate_fleet(
            make_sessions(8), topology=self.slow_topo(),
            retry_policy=self.policy(), assignment=[i % 2 for i in range(8)],
        )
        sharded = shard_fleet(
            make_sessions(8), topology=self.slow_topo(), workers=2,
            retry_policy=self.policy(), assignment=[i % 2 for i in range(8)],
        )
        rep = sharded.report
        assert rep.requests_timed_out == ref.report.requests_timed_out
        assert rep.chunk_retries == ref.report.chunk_retries
        assert rep.retry_attempts == ref.report.retry_attempts
