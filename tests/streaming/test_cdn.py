"""CDN subsystem: degenerate parity, byte conservation, caches, encode, assignment."""

import pytest

from repro.metrics import QoEModel
from repro.net import SharedLink, lte_trace, stable_trace
from repro.streaming import (
    AbandonPolicy,
    CDNTopology,
    ContinuousMPC,
    DiurnalArrivals,
    EdgeChunkCache,
    EdgeNode,
    EncodeQueue,
    OriginServer,
    SessionConfig,
    SRQualityModel,
    SRResultCache,
    assign_sessions,
    simulate_fleet,
    uniform_cdn,
)
from repro.streaming.cdn import wait_percentile

from .helpers import FixedDensity, spec, sr_lat


def degenerate_topology(trace, *, policy="fair"):
    """One edge, unconstrained backhaul, caching and encode disabled.

    The backhaul trace shares the access trace's loop period (so every
    boundary it contributes already exists on the access grid) at a rate
    so high the access share is always the path minimum, with zero RTT —
    the configuration under which a two-hop CDN must be *bit-exact* with
    the bare single-link fleet.
    """
    backhaul = stable_trace(1e6, duration=trace.duration, rtt=0.0)
    edge = EdgeNode(
        name="edge-0",
        backhaul=SharedLink(backhaul, policy=policy),
        access=SharedLink(trace, policy=policy),
        cache=EdgeChunkCache(capacity_bytes=0),
    )
    origin = OriginServer(n_encode_workers=1, encode_seconds=0.0)
    return CDNTopology(edges=(edge,), origin=origin, assignment="static")


class TestDegenerateParity:
    """A one-edge CDN on an unconstrained backhaul == the single-link fleet."""

    def assert_identical(self, a, b):
        assert len(a.sessions) == len(b.sessions)
        for ra, rb in zip(a.sessions, b.sessions):
            assert ra.qoe == rb.qoe
            assert ra.total_bytes == rb.total_bytes
            assert ra.stall_seconds == rb.stall_seconds
            assert ra.startup_delay == rb.startup_delay
            assert ra.decisions == rb.decisions
            assert ra.abandoned == rb.abandoned
            for ca, cb in zip(ra.records, rb.records):
                assert ca.quality == cb.quality
                assert ca.stall == cb.stall
                assert ca.bytes_downloaded == cb.bytes_downloaded

    def make_sessions(self):
        from repro.streaming import FleetSession

        qm = SRQualityModel()
        lat = sr_lat()
        ctrl = ContinuousMPC(qm, QoEModel(), lat, n_grid=8, horizon=2)
        return [
            FleetSession(
                spec=spec(8, name=f"v{i % 2}"),
                controller=ctrl,
                sr_latency=lat,
                quality_model=qm,
                join_time=1.5 * i,
                churn=AbandonPolicy(max_total_stall=20.0),
            )
            for i in range(5)
        ]

    def test_mpc_fleet_on_lte(self):
        trace = lte_trace(60, 18, seed=9)
        flat = simulate_fleet(
            self.make_sessions(), trace=trace, sr_cache=SRResultCache()
        )
        cdn = simulate_fleet(
            self.make_sessions(),
            topology=degenerate_topology(trace),
            sr_cache=SRResultCache(),
        )
        self.assert_identical(flat, cdn)
        assert cdn.report.edge_hit_rate == 0.0
        assert cdn.report.origin_egress_bytes == cdn.report.total_bytes

    def test_unsorted_joins_with_shared_chunk_keys(self):
        """Parity must survive dispatch order != virtual-time order: the
        late joiner is listed *first*, and both sessions collide on every
        (video, chunk, density) key.  A disabled encoder used to record
        the late joiner's future request times as variant ready times,
        gating the t=0 session behind a phantom 60 s encode wait."""
        from repro.streaming import FleetSession

        trace = stable_trace(45.0)

        def sessions():
            return [
                FleetSession(spec=spec(6), controller=FixedDensity(0.5),
                             join_time=60.0),
                FleetSession(spec=spec(6), controller=FixedDensity(0.5)),
            ]

        flat = simulate_fleet(sessions(), trace=trace)
        cdn = simulate_fleet(sessions(), topology=degenerate_topology(trace))
        self.assert_identical(flat, cdn)

    def test_startup_bytes_and_weighted_policy(self):
        from repro.streaming import FleetSession

        trace = stable_trace(45.0)
        cfg = SessionConfig(startup_bytes=2_000_000)

        def sessions():
            return [
                FleetSession(spec=spec(6), controller=FixedDensity(0.5),
                             config=cfg, weight=3.0),
                FleetSession(spec=spec(6), controller=FixedDensity(0.5),
                             config=cfg, join_time=2.0),
            ]

        flat = simulate_fleet(sessions(), trace=trace, policy="weighted")
        cdn = simulate_fleet(
            sessions(),
            topology=degenerate_topology(trace, policy="weighted"),
        )
        self.assert_identical(flat, cdn)


class TestByteConservation:
    """origin egress + edge-cache hit bytes == bytes delivered to viewers."""

    def run_fleet(self, assignment, cache_bytes=1 << 32, n=24):
        from repro.streaming import FleetSession

        topo = uniform_cdn(
            3,
            access_mbps=120.0,
            backhaul_mbps=40.0,
            cache_bytes=cache_bytes,
            assignment=assignment,
            encode_seconds=0.02,
            n_encode_workers=2,
        )
        sessions = [
            FleetSession(
                spec=spec(6, name=f"v{i % 4}"),
                controller=FixedDensity(0.4),
                join_time=1.0 * i,
            )
            for i in range(n)
        ]
        return simulate_fleet(sessions, topology=topo), topo

    @pytest.mark.parametrize("assignment", ["static", "least-loaded", "popularity"])
    def test_conservation(self, assignment):
        """Every byte a viewer gets came over the backhaul once, from the
        edge cache, or by coalescing onto another viewer's fill."""
        result, topo = self.run_fleet(assignment)
        rep = result.report
        hit_bytes = sum(e.cache.hit_bytes for e in topo.edges)
        coalesced = sum(e.cache.coalesced_bytes for e in topo.edges)
        assert rep.coalesced_bytes == coalesced
        assert (
            rep.origin_egress_bytes + hit_bytes + coalesced == rep.total_bytes
        )
        # The backhaul carried exactly one transfer per fill, none for
        # coalesced requests.
        assert sum(e.cache.fills for e in topo.edges) + sum(
            e.cache.coalesced for e in topo.edges
        ) + sum(e.cache.hits for e in topo.edges) == sum(
            e.cache.hits + e.cache.misses for e in topo.edges
        )
        # Per-link fluid accounting agrees at bit granularity.
        backhaul_bits = sum(e.backhaul.delivered_bits for e in topo.edges)
        assert backhaul_bits == pytest.approx(8.0 * rep.origin_egress_bytes)
        access_bits = sum(e.access.delivered_bits for e in topo.edges)
        assert access_bits == pytest.approx(8.0 * rep.total_bytes)

    def test_caching_reduces_origin_egress(self):
        """Co-watching viewers turn origin egress into edge hits."""
        cold, _ = self.run_fleet("popularity", cache_bytes=0)
        warm, _ = self.run_fleet("popularity")
        assert warm.report.edge_hit_rate > 0.2
        assert cold.report.edge_hit_rate == 0.0
        assert (
            warm.report.origin_egress_bytes < cold.report.origin_egress_bytes
        )
        assert warm.report.total_bytes >= cold.report.total_bytes

    def test_late_joiner_hits_chunks_cached_before_its_join(self):
        """Cache lookups happen at request time, not at scheduler start:
        a viewer joining after a co-watcher finished must hit every
        chunk, including its first."""
        from repro.streaming import FleetSession

        topo = uniform_cdn(
            1, access_mbps=200.0, backhaul_mbps=100.0, cache_bytes=1 << 32
        )
        sessions = [
            FleetSession(spec=spec(8), controller=FixedDensity(0.5)),
            FleetSession(spec=spec(8), controller=FixedDensity(0.5),
                         join_time=60.0),
        ]
        simulate_fleet(sessions, topology=topo)
        cache = topo.edges[0].cache
        assert cache.misses == 8   # only the first viewer's pulls
        assert cache.hits == 8     # the late joiner hits everything

    def test_late_joiner_cannot_reserve_encode_workers_early(self):
        """Encode jobs are submitted in virtual-time order: a t=50 joiner
        must not occupy the single worker before a t~0 session's jobs."""
        from repro.streaming import FleetSession

        topo = uniform_cdn(
            1, access_mbps=200.0, backhaul_mbps=100.0, cache_bytes=0,
            n_encode_workers=1, encode_seconds=0.5,
        )
        sessions = [
            FleetSession(spec=spec(8, name="a"), controller=FixedDensity(0.5)),
            FleetSession(spec=spec(8, name="b"), controller=FixedDensity(0.5),
                         join_time=50.0),
        ]
        simulate_fleet(sessions, topology=topo)
        waits = topo.origin.queue.waits
        assert len(waits) == 16
        # Pre-fix, the late joiner's first job reserved the worker at
        # scheduler start and an early job waited ~49.25 virtual seconds.
        assert max(waits) < 1.0

    def test_deferred_release_does_not_reset_solo_flow_progress(self):
        """Enabling the cache only changes *bookkeeping* when no hit is
        possible: two viewers of distinct videos must see identical
        physics with caching on (deferred requests) and off (immediate).
        A deferred release used to land mid-flight and silently restart
        the in-flight solo transfer from its full byte count."""
        from repro.streaming import FleetSession

        def run(cache_bytes):
            topo = uniform_cdn(
                1, access_mbps=40.0, backhaul_mbps=20.0,
                cache_bytes=cache_bytes,
            )
            sessions = [
                FleetSession(spec=spec(8, name="a"),
                             controller=FixedDensity(0.8)),
                FleetSession(spec=spec(8, name="b"),
                             controller=FixedDensity(0.8), join_time=3.0),
            ]
            return simulate_fleet(sessions, topology=topo)

        off, on = run(0), run(1 << 32)
        assert on.report.edge_hit_rate == off.report.edge_hit_rate == 0.0
        for a, b in zip(off.sessions, on.sessions):
            assert a.total_bytes == b.total_bytes
            assert a.stall_seconds == pytest.approx(b.stall_seconds, rel=1e-9)
            assert a.qoe == pytest.approx(b.qoe, rel=1e-9)
        assert on.report.makespan == pytest.approx(
            off.report.makespan, rel=1e-9
        )

    def test_report_percentiles_and_assignment_surface(self):
        result, topo = self.run_fleet("least-loaded")
        rep = result.report
        assert len(rep.edge_hit_rates) == 3
        assert 0.0 <= rep.edge_hit_rate <= 1.0
        assert rep.encode_wait_p50 <= rep.encode_wait_p95
        assert sorted(set(result.assignment)) == [0, 1, 2]
        assert result.topology is topo


class TestRequestCoalescing:
    """Concurrent same-chunk misses collapse onto one backhaul fill."""

    def co_watch_fleet(self, n=6, cache_bytes=1 << 32, join_spacing=0.0):
        from repro.streaming import FleetSession

        topo = uniform_cdn(
            1, access_mbps=120.0, backhaul_mbps=30.0, cache_bytes=cache_bytes
        )
        sessions = [
            FleetSession(
                spec=spec(8),
                controller=FixedDensity(0.5),
                join_time=join_spacing * i,
            )
            for i in range(n)
        ]
        return simulate_fleet(sessions, topology=topo), topo

    def test_concurrent_misses_one_origin_fill(self):
        """Six viewers requesting the same cold chunks at the same instant
        open exactly one backhaul transfer per chunk variant."""
        result, topo = self.co_watch_fleet(n=6)
        cache = topo.edges[0].cache
        rep = result.report
        assert cache.fills == 8          # one per chunk, ever
        assert cache.misses == cache.fills + cache.coalesced
        assert cache.coalesced >= 5      # the five t=0 co-requesters
        assert rep.coalesced_fills == cache.coalesced
        # Origin egress is one copy of each chunk; everyone else's bytes
        # came from coalescing or later cache hits.
        assert rep.origin_egress_bytes * 6 == rep.total_bytes
        backhaul_bits = topo.edges[0].backhaul.delivered_bits
        assert backhaul_bits == pytest.approx(8.0 * rep.origin_egress_bytes)

    def test_coalescing_never_changes_delivered_bytes(self):
        """Collapsing fills changes *who pulls*, not what viewers get."""
        with_coalescing, _ = self.co_watch_fleet(n=5, join_spacing=0.3)
        without, _ = self.co_watch_fleet(n=5, cache_bytes=0, join_spacing=0.3)
        assert [s.total_bytes for s in with_coalescing.sessions] == [
            s.total_bytes for s in without.sessions
        ]
        rep = with_coalescing.report
        assert rep.total_bytes == without.report.total_bytes
        # Coalescing + hits is exactly the origin traffic it saved.
        assert rep.origin_egress_bytes + rep.coalesced_bytes <= rep.total_bytes
        assert rep.origin_egress_bytes < without.report.origin_egress_bytes

    def test_coalesced_waiter_gated_on_fill_completion(self):
        """A viewer that coalesces mid-fill cannot finish the chunk
        before the fill itself lands."""
        from repro.streaming import FleetSession

        topo = uniform_cdn(
            1, access_mbps=200.0, backhaul_mbps=10.0, cache_bytes=1 << 32
        )
        sessions = [
            FleetSession(spec=spec(4), controller=FixedDensity(0.8)),
            FleetSession(
                spec=spec(4), controller=FixedDensity(0.8), join_time=0.05
            ),
        ]
        simulate_fleet(sessions, topology=topo)
        cache = topo.edges[0].cache
        assert cache.coalesced >= 1
        assert cache.fills + cache.coalesced + cache.hits == (
            cache.hits + cache.misses
        )

    def test_zero_capacity_cache_disables_coalescing(self):
        _, topo = self.co_watch_fleet(n=4, cache_bytes=0)
        cache = topo.edges[0].cache
        assert cache.fills == 0 and cache.coalesced == 0
        assert cache.misses == 32        # every request pulls its own copy

    def test_fill_tracking_api(self):
        cache = EdgeChunkCache(capacity_bytes=1000)
        key = ("v", 0, 0.5)
        assert not cache.fill_in_flight(key)
        cache.begin_fill(key)
        assert cache.fill_in_flight(key)
        cache.attach(key, 100)
        assert cache.coalesced == 1 and cache.coalesced_bytes == 100
        cache.insert(key, 100, ready=4.0)
        assert not cache.fill_in_flight(key)
        assert cache.fills == 1
        with pytest.raises(ValueError, match="no fill in flight"):
            cache.attach(("v", 1, 0.5), 50)


class TestEdgeChunkCache:
    def test_hit_requires_resident_fill(self):
        cache = EdgeChunkCache(capacity_bytes=1000)
        key = ("v", 0, 0.5)
        assert not cache.lookup(key, 100, at_time=0.0)   # cold
        cache.insert(key, 100, ready=5.0)
        assert not cache.lookup(key, 100, at_time=4.0)   # still filling
        assert cache.lookup(key, 100, at_time=5.0)       # resident
        assert cache.hits == 1 and cache.misses == 2
        assert cache.hit_bytes == 100 and cache.miss_bytes == 200

    def test_lru_eviction_by_bytes(self):
        cache = EdgeChunkCache(capacity_bytes=250)
        cache.insert(("v", 0, 0.5), 100, ready=0.0)
        cache.insert(("v", 1, 0.5), 100, ready=0.0)
        assert cache.lookup(("v", 0, 0.5), 100, at_time=1.0)  # 0 now MRU
        cache.insert(("v", 2, 0.5), 100, ready=1.0)           # evicts 1
        assert cache.evictions == 1
        assert cache.lookup(("v", 0, 0.5), 100, at_time=2.0)
        assert not cache.lookup(("v", 1, 0.5), 100, at_time=2.0)
        assert cache.used_bytes == 200

    def test_oversized_variant_not_admitted(self):
        cache = EdgeChunkCache(capacity_bytes=50)
        cache.insert(("v", 0, 1.0), 100, ready=0.0)
        assert len(cache) == 0
        assert not cache.lookup(("v", 0, 1.0), 100, at_time=1.0)

    def test_concurrent_fills_keep_earliest(self):
        cache = EdgeChunkCache(capacity_bytes=1000)
        cache.insert(("v", 0, 0.5), 100, ready=8.0)
        cache.insert(("v", 0, 0.5), 100, ready=6.0)   # faster copy wins
        cache.insert(("v", 0, 0.5), 100, ready=9.0)   # slower copy ignored
        assert cache.lookup(("v", 0, 0.5), 100, at_time=6.5)
        assert cache.used_bytes == 100

    def test_zero_capacity_disables(self):
        cache = EdgeChunkCache(capacity_bytes=0)
        cache.insert(("v", 0, 0.5), 10, ready=0.0)
        assert not cache.lookup(("v", 0, 0.5), 10, at_time=99.0)
        with pytest.raises(ValueError):
            EdgeChunkCache(capacity_bytes=-1)

    def test_abort_fill_clears_the_inflight_marker(self):
        cache = EdgeChunkCache(capacity_bytes=1000)
        cache.begin_fill(("v", 0, 0.5))
        cache.abort_fill(("v", 0, 0.5))
        assert cache.aborted_fills == 1
        with pytest.raises(ValueError, match="no fill in flight"):
            cache.attach(("v", 0, 0.5), 100)
        cache.abort_fill(("v", 9, 0.5))  # nothing in flight: no-op
        assert cache.aborted_fills == 1

    def test_drop_all_cold_restarts_but_keeps_history(self):
        cache = EdgeChunkCache(capacity_bytes=1000)
        cache.insert(("v", 0, 0.5), 100, ready=0.0)
        assert cache.lookup(("v", 0, 0.5), 100, at_time=1.0)
        cache.begin_fill(("v", 1, 0.5))
        cache.drop_all()
        assert len(cache) == 0 and cache.used_bytes == 0
        assert cache.aborted_fills == 1  # the pending fill never lands
        assert cache.hits == 1 and cache.fills == 1  # history survives
        assert not cache.lookup(("v", 0, 0.5), 100, at_time=2.0)

    def test_reset_restores_constructed_state(self):
        cache = EdgeChunkCache(capacity_bytes=1000)
        cache.insert(("v", 0, 0.5), 100, ready=0.0)
        cache.lookup(("v", 0, 0.5), 100, at_time=1.0)
        cache.lookup(("v", 1, 0.5), 100, at_time=1.0)
        cache.begin_fill(("v", 1, 0.5))
        cache.reset()
        assert len(cache) == 0 and cache.used_bytes == 0
        assert cache.hits == 0 and cache.misses == 0
        assert cache.fills == 0 and cache.aborted_fills == 0
        assert cache.hit_rate == 0.0


class TestEncodeQueue:
    def test_workers_bound_concurrency(self):
        q = EncodeQueue(n_workers=2)
        assert q.submit(0.0, 1.0) == 1.0
        assert q.submit(0.0, 1.0) == 1.0   # second worker
        assert q.submit(0.0, 1.0) == 2.0   # queues behind the first
        assert q.waits == [0.0, 0.0, 1.0]
        assert q.wait_percentile(0.0) == 0.0
        assert q.wait_percentile(100.0) == 1.0

    def test_zero_cost_bypasses_pool(self):
        q = EncodeQueue(n_workers=1)
        q.submit(0.0, 2.0)
        assert q.submit(1.0, 0.0) == 1.0   # no wait, no job recorded
        assert q.n_jobs == 1

    def test_origin_encodes_each_variant_once(self):
        origin = OriginServer(n_encode_workers=1, encode_seconds=1.0)
        assert origin.variant_ready(("v", 0, 0.5), 0.0) == 1.0
        # Second requester waits for the in-flight encode, no new job.
        assert origin.variant_ready(("v", 0, 0.5), 0.5) == 1.0
        # Long after: variant exists, served immediately.
        assert origin.variant_ready(("v", 0, 0.5), 10.0) == 10.0
        assert origin.n_encoded == 1
        assert origin.queue.n_jobs == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            EncodeQueue(n_workers=0)
        with pytest.raises(ValueError):
            EncodeQueue(1).submit(0.0, -1.0)
        with pytest.raises(ValueError):
            EncodeQueue(1).wait_percentile(101.0)
        with pytest.raises(ValueError):
            OriginServer(encode_seconds=-0.1)
        with pytest.raises(ValueError):
            EncodeQueue(2).resize(0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_encode_time_is_refused_at_construction(self, bad):
        """Both used to build, and the run then died at the first cold miss
        inside ``PathScheduler.add_flow`` ("extra_delay must be finite")."""
        with pytest.raises(ValueError, match=r"encode_seconds must be finite.*got (nan|inf)"):
            OriginServer(encode_seconds=bad)
        with pytest.raises(ValueError, match="encode_seconds must be finite"):
            uniform_cdn(2, access_mbps=50.0, backhaul_mbps=20.0, encode_seconds=bad)

    def test_wait_percentile_half_ranks_round_up(self):
        # Regression: round() is half-to-even, so the p50 of an even
        # sample flipped between the lower and upper neighbor depending
        # on the sample size's parity.  Nearest-rank now rounds half up.
        assert wait_percentile([0.0, 10.0], 50.0) == 10.0
        assert wait_percentile([0.0, 10.0, 20.0, 30.0], 50.0) == 20.0
        assert wait_percentile(
            [0.0, 10.0, 20.0, 30.0, 40.0, 50.0], 50.0
        ) == 30.0
        assert wait_percentile([0.0, 10.0, 20.0], 50.0) == 10.0  # exact rank
        assert wait_percentile([], 95.0) == 0.0

    def test_queue_percentile_shares_the_module_formula(self):
        q = EncodeQueue(n_workers=1)
        for _ in range(4):
            q.submit(0.0, 1.0)
        for pct in (0.0, 50.0, 95.0, 100.0):
            assert q.wait_percentile(pct) == wait_percentile(q.waits, pct)

    def test_resize_grows_and_shrinks_the_pool(self):
        q = EncodeQueue(n_workers=1)
        assert q.submit(0.0, 1.0) == 1.0
        assert q.submit(0.0, 1.0) == 2.0   # queued behind worker 0
        q.resize(2, at_time=0.5)
        assert q.submit(0.5, 1.0) == 1.5   # the new worker starts at 0.5
        q.resize(1, at_time=0.5)
        # Shrinking retires the idlest worker: the survivor is busy
        # until t=2, so the next job queues behind it.
        assert q.submit(0.5, 1.0) == 3.0

    def test_reset_restores_original_pool(self):
        q = EncodeQueue(n_workers=2)
        q.submit(0.0, 5.0)
        q.resize(8)
        q.reset()
        assert q.n_workers == 2
        assert q.waits == []
        assert q.submit(0.0, 1.0) == 1.0   # all workers idle again


class TestTopologyReset:
    def test_reset_restores_serving_state(self):
        topo = uniform_cdn(
            2, access_mbps=50.0, backhaul_mbps=40.0,
            n_encode_workers=2, encode_seconds=0.1,
        )
        edge = topo.edges[0]
        edge.sr_cache = SRResultCache(capacity=8)
        edge.cache.insert(("v", 0, 0.5), 100, ready=0.0)
        edge.cache.lookup(("v", 0, 0.5), 100, at_time=1.0)
        edge.sr_cache.acquire(("v", 0, 0.5, 2), at_time=0.0, cost=0.1)
        edge.backhaul.delivered_bits = 1e6
        edge.access.delivered_bits = 1e6
        topo.origin.variant_ready(("v", 0, 0.5), 0.0)
        topo.reset()
        assert len(edge.cache) == 0 and edge.cache.hits == 0
        assert edge.sr_cache is not None  # stays installed, but cold
        assert edge.sr_cache.misses == 0
        assert edge.backhaul.delivered_bits == 0.0
        assert edge.access.delivered_bits == 0.0
        assert topo.origin.n_encoded == 0
        assert topo.origin.queue.waits == []


class TestAssignment:
    def sessions(self, n=12, videos=3):
        from repro.streaming import FleetSession

        return [
            FleetSession(
                spec=spec(4, name=f"v{i % videos}"),
                controller=FixedDensity(0.5),
                join_time=float(i),
            )
            for i in range(n)
        ]

    def test_static_is_deterministic_and_content_blind(self):
        sessions = self.sessions()
        a = assign_sessions(sessions, 4, "static")
        assert a == assign_sessions(sessions, 4, "static")
        assert all(0 <= e < 4 for e in a)

    def test_least_loaded_balances(self):
        counts = [0, 0, 0]
        for e in assign_sessions(self.sessions(12), 3, "least-loaded"):
            counts[e] += 1
        assert counts == [4, 4, 4]

    def test_popularity_groups_by_video(self):
        sessions = self.sessions(12, videos=3)
        a = assign_sessions(sessions, 4, "popularity")
        by_video = {}
        for s, e in zip(sessions, a):
            by_video.setdefault(s.spec.name, set()).add(e)
        assert all(len(edges) == 1 for edges in by_video.values())

    def test_validation(self):
        with pytest.raises(ValueError, match="assignment"):
            assign_sessions(self.sessions(2), 2, "random")
        with pytest.raises(ValueError, match="n_edges"):
            assign_sessions(self.sessions(2), 0, "static")
        with pytest.raises(ValueError, match="assignment"):
            uniform_cdn(2, access_mbps=10.0, backhaul_mbps=5.0,
                        assignment="nope")
        with pytest.raises(ValueError, match="at least one edge"):
            CDNTopology(edges=())

    def test_trace_and_topology_are_exclusive(self):
        sessions = self.sessions(1)
        topo = uniform_cdn(1, access_mbps=10.0, backhaul_mbps=5.0)
        with pytest.raises(ValueError, match="exactly one"):
            simulate_fleet(sessions)
        with pytest.raises(ValueError, match="exactly one"):
            simulate_fleet(sessions, trace=stable_trace(10.0), topology=topo)

    def test_policy_arg_rejected_with_topology(self):
        """Link policies live on the topology; a stray policy= must not
        be silently ignored."""
        topo = uniform_cdn(1, access_mbps=10.0, backhaul_mbps=5.0)
        with pytest.raises(ValueError, match="topology's links"):
            simulate_fleet(self.sessions(1), policy="weighted", topology=topo)


class TestDiurnalArrivals:
    def test_deterministic_and_in_window(self):
        arr = DiurnalArrivals(mean_rate_hz=2.0, day_seconds=100.0, seed=4)
        a, b = arr.times(100.0), arr.times(100.0)
        assert (a == b).all()
        assert len(a) > 0
        assert (a > 0).all() and (a <= 100.0).all()

    def test_prime_time_concentration(self):
        """With the default curve, the evening half out-draws the night half."""
        arr = DiurnalArrivals(mean_rate_hz=5.0, day_seconds=200.0, seed=0)
        t = arr.times(200.0)
        night = ((t / 200.0 * 24.0) < 6.0).sum()       # 00–06
        evening = ((t / 200.0 * 24.0) >= 18.0).sum()   # 18–24
        assert evening > 2 * night

    def test_rate_follows_curve(self):
        curve = (0.5,) * 12 + (1.5,) * 12
        arr = DiurnalArrivals(
            mean_rate_hz=1.0, curve=curve, day_seconds=24.0
        )
        assert arr.rate_at(0.0) == 0.5
        assert arr.rate_at(12.0) == 1.5
        assert arr.rate_at(24.0) == 0.5    # wraps
        assert arr.rate_at(36.0) == 1.5

    def test_phase_shifts_the_curve(self):
        arr = DiurnalArrivals(
            mean_rate_hz=1.0, day_seconds=24.0, phase_hours=20.0
        )
        mean = sum(arr.curve) / 24.0
        assert arr.rate_at(0.0) == arr.curve[20] / mean

    def test_negative_phase_float_modulo_edge(self):
        """(-1e-18) % 24.0 == 24.0 exactly; the hour index must wrap."""
        arr = DiurnalArrivals(
            mean_rate_hz=1.0, day_seconds=24.0, phase_hours=-1e-18
        )
        mean = sum(arr.curve) / 24.0
        assert arr.rate_at(0.0) == arr.curve[0] / mean
        assert len(arr.times(24.0)) > 0

    def test_curve_normalized_to_mean_rate(self):
        """mean_rate_hz is the daily mean whatever the factors' scale:
        scaling the whole curve leaves the rate function unchanged."""
        curve = DiurnalArrivals(mean_rate_hz=2.0, day_seconds=24.0)
        scaled = DiurnalArrivals(
            mean_rate_hz=2.0,
            curve=tuple(10.0 * c for c in curve.curve),
            day_seconds=24.0,
        )
        for t in (0.0, 6.0, 12.0, 20.5):
            assert scaled.rate_at(t) == pytest.approx(curve.rate_at(t))
        # The time-average of rate_at over the day is mean_rate_hz.
        hours = [curve.rate_at(h + 0.5) for h in range(24)]
        assert sum(hours) / 24.0 == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="mean_rate_hz"):
            DiurnalArrivals(mean_rate_hz=0.0)
        with pytest.raises(ValueError, match="24 hourly"):
            DiurnalArrivals(mean_rate_hz=1.0, curve=(1.0, 2.0))
        with pytest.raises(ValueError, match="non-negative"):
            DiurnalArrivals(mean_rate_hz=1.0, curve=(-1.0,) + (1.0,) * 23)
        with pytest.raises(ValueError, match="day_seconds"):
            DiurnalArrivals(mean_rate_hz=1.0, day_seconds=0.0)
        with pytest.raises(ValueError, match="window"):
            DiurnalArrivals(mean_rate_hz=1.0).times(0.0)
        with pytest.raises(ValueError, match="days"):
            DiurnalArrivals(mean_rate_hz=1.0, days=0.0)
        bad = DiurnalArrivals(
            mean_rate_hz=1.0, day_seconds=10.0, autoscale=lambda day: -1.0
        )
        with pytest.raises(ValueError, match="non-negative multiplier"):
            bad.rate_at(0.0)


class TestMultiDayDiurnal:
    """days= spans several virtual days; autoscale shapes them."""

    def test_days_sets_the_default_window(self):
        arr = DiurnalArrivals(mean_rate_hz=2.0, day_seconds=60.0, days=3.0, seed=1)
        assert arr.span_seconds == 180.0
        t = arr.times()
        assert t.max() > 60.0          # arrivals continue past day one
        assert t.max() <= 180.0
        assert (arr.times() == t).all()  # still deterministic

    def test_multiday_wraps_the_daily_curve(self):
        """Day 2 repeats day 1's shape: same curve hour, same rate."""
        arr = DiurnalArrivals(mean_rate_hz=1.0, day_seconds=24.0, days=2.0)
        for hour in (0.5, 6.5, 20.5):
            assert arr.rate_at(24.0 + hour) == pytest.approx(arr.rate_at(hour))

    def test_autoscale_scales_each_day(self):
        arr = DiurnalArrivals(
            mean_rate_hz=1.0,
            day_seconds=24.0,
            days=3.0,
            autoscale=lambda day: (1.0, 2.0, 0.0)[day],
        )
        base = DiurnalArrivals(mean_rate_hz=1.0, day_seconds=24.0)
        assert arr.rate_at(3.0) == pytest.approx(base.rate_at(3.0))
        assert arr.rate_at(27.0) == pytest.approx(2.0 * base.rate_at(3.0))
        assert arr.rate_at(51.0) == 0.0

    def test_autoscale_growth_shifts_arrival_mass(self):
        """Day-over-day growth concentrates arrivals in later days."""
        grown = DiurnalArrivals(
            mean_rate_hz=4.0, day_seconds=50.0, days=2.0, seed=3,
            autoscale=lambda day: float(1 + 9 * day),
        )
        t = grown.times()
        assert len(t) > 0
        day2 = (t > 50.0).sum()
        assert day2 > 3 * (t <= 50.0).sum()

    def test_all_zero_autoscale_yields_no_arrivals(self):
        arr = DiurnalArrivals(
            mean_rate_hz=1.0, day_seconds=10.0, days=2.0,
            autoscale=lambda day: 0.0,
        )
        assert len(arr.times()) == 0

    def test_day_boundary_candidate_thinned_against_its_own_day(
        self, monkeypatch
    ):
        """Regression: a candidate landing exactly on its day's end was
        thinned against the NEXT day's autoscale — ``int(t // day_seconds)``
        rolls over right at the boundary — so a dark following day
        silently swallowed the boundary arrival.
        """

        class ScriptedRng:
            def __init__(self, seed):
                # First candidate lands exactly on day 0's end; the next
                # draw overshoots every window.
                self._gaps = iter([10.0, 1e12])

            def exponential(self, scale):
                return next(self._gaps)

            def random(self):
                return 0.0  # accept whenever the thinned rate is positive

        monkeypatch.setattr(
            "repro.streaming.population.np.random.default_rng", ScriptedRng
        )
        arr = DiurnalArrivals(
            mean_rate_hz=1.0, curve=(1.0,) * 24, day_seconds=10.0, days=2.0,
            autoscale=lambda day: (1.0, 0.0)[day],
        )
        assert arr.times().tolist() == [10.0]

    def test_autoscale_none_is_unchanged_sampling(self):
        """Adding the hook without using it replays the original stream."""
        plain = DiurnalArrivals(mean_rate_hz=2.0, day_seconds=100.0, seed=4)
        spanned = DiurnalArrivals(
            mean_rate_hz=2.0, day_seconds=100.0, seed=4, days=1.0
        )
        assert (plain.times(100.0) == spanned.times()).all()
