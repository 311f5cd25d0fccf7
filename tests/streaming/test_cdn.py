"""CDN subsystem: byte conservation, caches, encode, assignment."""

import math

import numpy as np
import pytest

from repro.streaming import (
    CDNTopology,
    DiurnalArrivals,
    EdgeChunkCache,
    EncodeQueue,
    OriginServer,
    assign_sessions,
    simulate_fleet,
    uniform_cdn,
)
from repro.streaming.cdn import wait_percentile
from repro.streaming.population import DIURNAL_CURVE

from .helpers import FixedDensity, spec, sr_lat


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
        result = simulate_fleet(sessions, topology=topo)
        return result, result.topology

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
        cache = simulate_fleet(sessions, topology=topo).topology.edges[0].cache
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
        waits = simulate_fleet(sessions, topology=topo).topology.origin.queue.waits
        assert len(waits) == 16
        # Pre-fix, the late joiner's first job reserved the worker at
        # scheduler start and an early job waited ~49.25 virtual seconds.
        assert max(waits) < 1.0

    def test_deferred_release_does_not_reset_solo_flow_progress(self):
        """Enabling the cache only changes *bookkeeping* when no hit is
        possible: two viewers of distinct videos must see identical
        physics with caching on (deferred requests) and off (immediate).
        A deferred release lands while the other viewer's transfer is in
        flight alone; it once restarted that transfer from its full byte
        count."""
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
        result, _ = self.run_fleet("least-loaded")
        rep = result.report
        assert len(rep.edge_hit_rates) == 3
        assert 0.0 <= rep.edge_hit_rate <= 1.0
        assert rep.encode_wait_p50 <= rep.encode_wait_p95
        assert sorted(set(result.assignment)) == [0, 1, 2]

    def test_report_reads_each_edge_and_its_sr_cache(self):
        """Per-edge report fields are each edge's own counters in edge
        order (a viewer-less edge reads 0.0), and per-edge SR caches pool
        into a request-weighted ``cache_hit_rate``."""
        from repro.streaming import FleetSession

        topo = uniform_cdn(
            3, access_mbps=120.0, backhaul_mbps=40.0, encode_seconds=0.02
        )
        sessions = [
            FleetSession(
                spec=spec(6, name=f"v{i % 2}"),
                controller=FixedDensity(0.4),
                sr_latency=sr_lat(),
                join_time=1.0 * i,
            )
            for i in range(8)
        ]
        result = simulate_fleet(
            sessions, topology=topo, sr_cache="per-edge", assignment=[0, 2] * 4
        )
        rep, edges = result.report, result.topology.edges
        assert rep.edge_hit_rates == tuple(e.cache.hit_rate for e in edges)
        assert rep.sr_edge_hit_rates == tuple(e.sr_cache.hit_rate for e in edges)
        assert rep.edge_hit_rates[1] == rep.sr_edge_hit_rates[1] == 0.0
        sr_hits = sum(e.sr_cache.hits for e in edges)
        sr_lookups = sr_hits + sum(e.sr_cache.misses for e in edges)
        assert sr_hits > 0
        assert rep.cache_hit_rate == sr_hits / sr_lookups
        assert rep.coalesced_fills == sum(e.cache.coalesced for e in edges)


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
        result = simulate_fleet(sessions, topology=topo)
        return result, result.topology

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
        cache = simulate_fleet(sessions, topology=topo).topology.edges[0].cache
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

    @pytest.mark.parametrize("bad", [0.5, 0.9, 2.5, True, 0, -1])
    def test_worker_count_must_be_a_whole_count(self, bad):
        """``int(0.5)`` used to build a zero-worker pool whose first cold
        miss died in ``min()`` of an empty sequence."""
        match = rf"n_workers must be an integer >= 1, got {bad!r}"
        with pytest.raises(ValueError, match=match):
            EncodeQueue(bad)
        with pytest.raises(ValueError, match=match):
            EncodeQueue(3).resize(bad)
        with pytest.raises(ValueError, match=match):
            uniform_cdn(
                2, access_mbps=50.0, backhaul_mbps=20.0, n_encode_workers=bad
            )
        assert EncodeQueue(np.int64(2)).n_workers == 2

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
        arr = DiurnalArrivals(mean_rate_hz=1.0, day_seconds=24.0)
        mean = sum(DIURNAL_CURVE) / 24.0
        for t, hour in ((0.0, 0), (12.0, 12), (20.5, 20), (24.0, 0), (36.0, 12)):
            assert arr.rate_at(t) == DIURNAL_CURVE[hour] / mean  # wraps at 24

    def test_curve_normalized_to_mean_rate(self):
        """mean_rate_hz is the daily mean: the time-average of rate_at
        over the day."""
        curve = DiurnalArrivals(mean_rate_hz=2.0, day_seconds=24.0)
        hours = [curve.rate_at(h + 0.5) for h in range(24)]
        assert sum(hours) / 24.0 == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="mean_rate_hz"):
            DiurnalArrivals(mean_rate_hz=0.0)
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mean_rate_hz", math.nan),
            ("mean_rate_hz", math.inf),
            ("day_seconds", math.nan),
            ("day_seconds", math.inf),
            ("days", math.inf),  # ``times()`` never returned
            ("days", math.nan),
        ],
    )
    def test_rejects_a_non_finite_field_by_name(self, field, value):
        """NaN rates and periods used to die late inside ``rate_at``."""
        kwargs = {"mean_rate_hz": 1.0, field: value}
        with pytest.raises(ValueError, match=f"DiurnalArrivals.{field} must be finite"):
            DiurnalArrivals(**kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_non_finite_window(self, bad):
        with pytest.raises(ValueError, match="window must be finite"):
            DiurnalArrivals(mean_rate_hz=1.0).times(bad)


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
            mean_rate_hz=1.0, day_seconds=10.0, days=2.0,
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
