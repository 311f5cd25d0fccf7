"""Fault injection: schedules, degraded traces, outage failover, retries."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.net import stable_trace
from repro.obs import Telemetry, fault_damage
from repro.net.traces import lte_trace
from repro.streaming import (
    BackhaulDegradation,
    CorrelatedFaultGenerator,
    EdgeOutage,
    FaultSchedule,
    FlashCrowd,
    DegradedTrace,
    GrayFailure,
    RegionOutage,
    RetryPolicy,
    SessionConfig,
    flash_crowd_sessions,
    simulate_fleet,
    uniform_cdn,
)

from repro.experiments.common import SMOKE
from repro.experiments.fleet_chaos import chaos_rows
from repro.experiments.scenario import run_scenario

from ..net.windowed_reads import WindowedReads
from .helpers import (
    FixedDensity,
    assert_same_run,
    check_byte_conservation,
    check_retry_accounting,
    check_retry_events,
    spec,
    sr_lat,
)


def fleet(n=8, seconds=20, stagger=0.4):
    return [
        dataclasses.replace(
            base_session(seconds=seconds), join_time=stagger * i
        )
        for i in range(n)
    ]


def base_session(seconds=20):
    from repro.streaming import FleetSession

    return FleetSession(
        spec=spec(seconds=seconds, name="vid"),
        controller=FixedDensity(0.4),
        sr_latency=sr_lat(),
    )


def cdn(n_edges=3, **kw):
    kw.setdefault("access_mbps", 50.0)
    kw.setdefault("backhaul_mbps", 40.0)
    kw.setdefault("n_encode_workers", 2)
    kw.setdefault("encode_seconds", 0.02)
    return uniform_cdn(n_edges, **kw)


class TestEventValidation:
    def test_outage_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="edge"):
            EdgeOutage(edge=-1, start=0.0, duration=1.0)
        with pytest.raises(ValueError, match="start"):
            EdgeOutage(edge=0, start=-1.0, duration=1.0)
        with pytest.raises(ValueError, match="duration"):
            EdgeOutage(edge=0, start=0.0, duration=0.0)

    @pytest.mark.parametrize("event", [EdgeOutage, GrayFailure, BackhaulDegradation])
    @pytest.mark.parametrize("bad", [1.5, 1.0, True, -1])
    def test_edge_must_be_an_integer_index(self, event, bad):
        """On a 3-edge CDN ``edge=1.5`` used to be accepted and darken
        nothing, ``edge=1.0`` died deep in the run with a raw TypeError
        and ``edge=True`` meant edge 1."""
        extra = {"factor": 0.5} if event is BackhaulDegradation else {}
        with pytest.raises(ValueError, match=rf"edge must be an integer >= 0, got {bad!r}"):
            event(edge=bad, start=0.0, duration=1.0, **extra)

    @pytest.mark.parametrize("event", [EdgeOutage, GrayFailure, BackhaulDegradation])
    def test_a_numpy_integer_edge_is_an_index(self, event):
        extra = {"factor": 0.5} if event is BackhaulDegradation else {}
        assert event(edge=np.int64(1), start=0.0, duration=1.0, **extra).edge == 1

    def test_degradation_rejects_zero_factor(self):
        with pytest.raises(ValueError, match="EdgeOutage"):
            BackhaulDegradation(edge=0, start=0.0, duration=1.0, factor=0.0)

    def test_flash_crowd_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="n_viewers"):
            FlashCrowd(spec=spec(), start=0.0, n_viewers=0)
        with pytest.raises(ValueError, match="ramp"):
            FlashCrowd(spec=spec(), start=0.0, n_viewers=1, ramp_seconds=-1.0)

    def test_region_outage_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="region"):
            RegionOutage(region="", start=0.0, duration=1.0)
        with pytest.raises(ValueError, match="start"):
            RegionOutage(region="r", start=-1.0, duration=1.0)
        with pytest.raises(ValueError, match="duration"):
            RegionOutage(region="r", start=0.0, duration=0.0)
        with pytest.raises(ValueError, match="duration"):
            RegionOutage(region="r", start=0.0, duration=-2.0)

    def test_gray_failure_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="capacity_factor"):
            GrayFailure(edge=0, start=0.0, duration=1.0, capacity_factor=0.0)
        with pytest.raises(ValueError, match="capacity_factor"):
            GrayFailure(edge=0, start=0.0, duration=1.0, capacity_factor=1.5)
        with pytest.raises(ValueError, match="drop_fraction"):
            GrayFailure(edge=0, start=0.0, duration=1.0, drop_fraction=1.1)
        with pytest.raises(ValueError, match="drop_delay_s"):
            GrayFailure(edge=0, start=0.0, duration=1.0, drop_delay_s=0.0)
        with pytest.raises(ValueError, match="duration"):
            GrayFailure(edge=0, start=0.0, duration=0.0)

    def test_retry_policy_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="timeout_s"):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ValueError, match="backoff_base_s"):
            RetryPolicy(backoff_base_s=-1.0)
        with pytest.raises(ValueError, match="backoff_cap_s"):
            RetryPolicy(backoff_base_s=2.0, backoff_cap_s=1.0)
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)

    # NaN used to slip through every ``<`` check: a NaN budget never armed
    # a timeout, a NaN cap made every backoff NaN, a NaN base silently
    # backed off by the cap.  Each error names the field and the value.
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_retry_policy_backoff_base_s_must_be_finite(self, bad):
        with pytest.raises(ValueError, match=rf"backoff_base_s.*{bad!r}"):
            RetryPolicy(backoff_base_s=bad, backoff_cap_s=math.inf)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_retry_policy_backoff_cap_s_must_be_finite(self, bad):
        with pytest.raises(ValueError, match=rf"backoff_cap_s.*{bad!r}"):
            RetryPolicy(backoff_cap_s=bad)

    @pytest.mark.parametrize("bad", [math.nan, 2.5, True])
    def test_retry_policy_max_attempts_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match=rf"max_attempts.*{bad!r}"):
            RetryPolicy(timeout_s=0.5, max_attempts=bad)

    def test_retry_backoff_doubles_then_caps(self):
        pol = RetryPolicy(backoff_base_s=0.25, backoff_cap_s=1.0)
        assert [pol.backoff(k) for k in (1, 2, 3, 4)] == [0.25, 0.5, 1.0, 1.0]
        with pytest.raises(ValueError, match="1-based"):
            pol.backoff(0)

    def test_schedule_rejects_unknown_events(self):
        with pytest.raises(TypeError, match="unknown fault event"):
            FaultSchedule(("not a fault",))

    def test_schedule_rejects_out_of_range_edge(self):
        sched = FaultSchedule((EdgeOutage(edge=5, start=1.0, duration=1.0),))
        with pytest.raises(ValueError, match="edge 5"):
            sched.validate_topology(3)

    def test_schedule_rejects_total_darkness(self):
        sched = FaultSchedule((
            EdgeOutage(edge=0, start=1.0, duration=5.0),
            EdgeOutage(edge=1, start=2.0, duration=5.0),
        ))
        with pytest.raises(ValueError, match="no live edge"):
            sched.validate_topology(2)
        sched.validate_topology(3)  # a third edge survives

    def test_schedule_properties(self):
        o = EdgeOutage(edge=0, start=1.0, duration=2.0)
        d = BackhaulDegradation(edge=1, start=1.0, duration=2.0, factor=0.5)
        c = FlashCrowd(spec=spec(), start=3.0, n_viewers=2)
        sched = FaultSchedule((o, d, c))
        assert sched.outages == (o,)
        assert sched.degradations == (d,)
        assert sched.crowds == (c,)
        assert len(sched) == 3 and bool(sched)
        assert not FaultSchedule()

    def test_boundary_times_only_outages(self):
        sched = FaultSchedule((
            EdgeOutage(edge=0, start=4.0, duration=2.0),
            BackhaulDegradation(edge=1, start=1.0, duration=9.0, factor=0.5),
            EdgeOutage(edge=1, start=4.0, duration=3.0),
        ))
        assert sched.boundary_times() == [4.0, 6.0, 7.0]

    def test_boundary_times_include_region_outages(self):
        sched = FaultSchedule((
            RegionOutage(region="r0", start=3.0, duration=2.0),
            GrayFailure(edge=0, start=1.0, duration=9.0),
        ))
        assert sched.boundary_times() == [3.0, 5.0]


def _forged(cls, **fields):
    """Build a fault event bypassing ``__post_init__`` — the schedules
    :meth:`FaultSchedule.validate` defends against in depth."""
    ev = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(ev, name, value)
    return ev


class TestScheduleValidate:
    """Satellite: ``FaultSchedule.validate`` — one test per rejection."""

    def test_rejects_zero_duration(self):
        bad = _forged(EdgeOutage, edge=0, start=1.0, duration=0.0)
        with pytest.raises(ValueError, match="duration must be positive"):
            FaultSchedule((bad,)).validate()

    def test_rejects_negative_duration(self):
        bad = _forged(RegionOutage, region="r", start=1.0, duration=-3.0)
        with pytest.raises(ValueError, match="duration must be positive"):
            FaultSchedule((bad,)).validate()

    def test_rejects_overlapping_same_edge_outages(self):
        sched = FaultSchedule((
            EdgeOutage(edge=0, start=1.0, duration=4.0),
            EdgeOutage(edge=0, start=3.0, duration=4.0),
        ))
        with pytest.raises(ValueError, match="overlapping outages on edge 0"):
            sched.validate()

    def test_rejects_overlapping_same_region_outages(self):
        sched = FaultSchedule((
            RegionOutage(region="r0", start=1.0, duration=4.0),
            RegionOutage(region="r0", start=3.0, duration=4.0),
        ))
        with pytest.raises(ValueError, match="overlapping outages on region"):
            sched.validate()

    def test_touching_windows_are_fine(self):
        FaultSchedule((
            EdgeOutage(edge=0, start=1.0, duration=2.0),
            EdgeOutage(edge=0, start=3.0, duration=2.0),
            RegionOutage(region="r0", start=1.0, duration=2.0),
            RegionOutage(region="r0", start=3.0, duration=2.0),
        )).validate()

    def test_different_edges_may_overlap(self):
        FaultSchedule((
            EdgeOutage(edge=0, start=1.0, duration=4.0),
            EdgeOutage(edge=1, start=3.0, duration=4.0),
        )).validate()

    def test_topology_validation_rejects_unknown_region(self):
        sched = FaultSchedule((
            RegionOutage(region="nowhere", start=1.0, duration=2.0),
        ))
        with pytest.raises(ValueError, match="nowhere"):
            sched.validate_topology(3, {"region-0": (0, 1)})
        with pytest.raises(ValueError, match="no regions"):
            sched.validate_topology(3, None)

    def test_topology_validation_rejects_region_edge_overlap(self):
        """An edge inside a dark region cannot also carry its own
        overlapping EdgeOutage — one edge, one dark window at a time."""
        sched = FaultSchedule((
            RegionOutage(region="region-0", start=1.0, duration=4.0),
            EdgeOutage(edge=0, start=3.0, duration=4.0),
        ))
        with pytest.raises(ValueError, match="resolved outage windows"):
            sched.validate_topology(3, {"region-0": (0, 1)})

    def test_topology_validation_rejects_region_darkness(self):
        sched = FaultSchedule((
            RegionOutage(region="region-0", start=1.0, duration=2.0),
        ))
        with pytest.raises(ValueError, match="no live edge"):
            sched.validate_topology(2, {"region-0": (0, 1)})
        sched.validate_topology(3, {"region-0": (0, 1)})

    def test_edge_outage_spans_resolve_regions(self):
        sched = FaultSchedule((
            EdgeOutage(edge=2, start=1.0, duration=1.0),
            RegionOutage(region="region-0", start=4.0, duration=2.0),
        ))
        spans = sched.edge_outage_spans({"region-0": (0, 1)})
        assert spans == [(0, 4.0, 6.0), (1, 4.0, 6.0), (2, 1.0, 2.0)]


class TestCorrelatedFaultGenerator:
    REGIONS = ["region-0", "region-1", "region-2", "region-3"]

    def test_validation(self):
        with pytest.raises(ValueError, match="cascade_probability"):
            CorrelatedFaultGenerator(cascade_probability=1.5)
        with pytest.raises(ValueError, match="cascade_delay_s"):
            CorrelatedFaultGenerator(cascade_delay_s=-1.0)
        gen = CorrelatedFaultGenerator()
        with pytest.raises(ValueError, match="origin"):
            gen.generate(self.REGIONS, "region-9", start=0.0, duration=5.0)
        with pytest.raises(ValueError, match="duration"):
            gen.generate(self.REGIONS, "region-0", start=0.0, duration=0.0)

    def test_same_seed_replays_exactly(self):
        gen = CorrelatedFaultGenerator(seed=11, cascade_probability=0.6)
        a = gen.generate(self.REGIONS, "region-1", start=2.0, duration=5.0)
        b = gen.generate(self.REGIONS, "region-1", start=2.0, duration=5.0)
        assert a == b

    def test_origin_always_fails_with_the_requested_window(self):
        gen = CorrelatedFaultGenerator(seed=3, cascade_probability=0.0)
        sched = gen.generate(self.REGIONS, "region-2", start=4.0, duration=3.0)
        assert sched.events == (
            RegionOutage(region="region-2", start=4.0, duration=3.0),
        )

    def test_certain_cascade_staggers_by_hop_distance(self):
        gen = CorrelatedFaultGenerator(
            seed=0, cascade_probability=1.0, cascade_delay_s=2.0
        )
        sched = gen.generate(self.REGIONS, "region-0", start=1.0, duration=5.0)
        onsets = {ev.region: ev.start for ev in sched.events}
        assert onsets == {
            "region-0": 1.0, "region-1": 3.0, "region-2": 5.0,
            "region-3": 7.0,
        }

    def test_appending_a_region_never_reshuffles_earlier_draws(self):
        """One draw per non-origin region in declaration order, whether
        or not it fails: growing the region list only appends outcomes."""
        gen = CorrelatedFaultGenerator(seed=5, cascade_probability=0.5)
        small = gen.generate(self.REGIONS[:3], "region-0", 0.0, 4.0)
        large = gen.generate(self.REGIONS, "region-0", 0.0, 4.0)
        small_names = {ev.region for ev in small.events}
        large_names = {ev.region for ev in large.events}
        assert small_names == large_names & set(self.REGIONS[:3])


class TestDegradedTrace:
    def test_scales_inside_window_only(self):
        base = stable_trace(10.0, duration=100.0)
        t = DegradedTrace(base, [(5.0, 10.0, 0.25)])
        assert t.bandwidth_at(2.0) == base.bandwidth_at(2.0)
        assert t.bandwidth_at(7.0) == pytest.approx(0.25 * base.bandwidth_at(7.0))
        assert t.bandwidth_at(10.0) == base.bandwidth_at(10.0)  # end exclusive
        assert t.rtt == base.rtt

    def test_overlapping_windows_compose(self):
        base = stable_trace(10.0, duration=100.0)
        t = DegradedTrace(base, [(0.0, 10.0, 0.5), (5.0, 15.0, 0.5)])
        assert t.bandwidth_at(7.0) == pytest.approx(0.25 * base.bandwidth_at(7.0))

    def test_time_to_next_change_caps_at_window_boundaries(self):
        base = stable_trace(10.0, duration=100.0)
        t = DegradedTrace(base, [(5.0, 10.0, 0.25)])
        assert t.time_to_next_change(2.0) == pytest.approx(3.0)
        assert t.time_to_next_change(6.0) == pytest.approx(4.0)
        # A varying base keeps its own (nearer) boundaries.
        lte = lte_trace()
        tv = DegradedTrace(lte, [(1e6, 2e6, 0.5)])
        assert tv.time_to_next_change(0.0) == lte.time_to_next_change(0.0)

    def test_rejects_bad_windows(self):
        base = stable_trace(10.0, duration=100.0)
        with pytest.raises(ValueError, match="start < end"):
            DegradedTrace(base, [(5.0, 5.0, 0.5)])
        with pytest.raises(ValueError, match="factor"):
            DegradedTrace(base, [(0.0, 5.0, 0.0)])

    def test_exact_shared_boundary_hands_off_cleanly(self):
        """Satellite: two windows meeting at one instant compose with no
        gap and no double-count — the shared boundary belongs to the
        *second* window (half-open ``[start, end)`` throughout)."""
        base = stable_trace(10.0, duration=100.0)
        t = DegradedTrace(base, [(2.0, 5.0, 0.5), (5.0, 8.0, 0.25)])
        bw = base.bandwidth_at(0.0)
        assert t.bandwidth_at(5.0 - 1e-9) == pytest.approx(0.5 * bw)
        assert t.bandwidth_at(5.0) == pytest.approx(0.25 * bw)
        assert t.bandwidth_at(8.0) == base.bandwidth_at(8.0)
        # The integration must stop exactly at the hand-off instant.
        assert t.time_to_next_change(2.0) == pytest.approx(3.0)
        assert t.time_to_next_change(5.0) == pytest.approx(3.0)

    def test_nested_windows_compose_at_both_boundaries(self):
        base = stable_trace(10.0, duration=100.0)
        t = DegradedTrace(base, [(0.0, 10.0, 0.5), (4.0, 6.0, 0.5)])
        bw = base.bandwidth_at(0.0)
        assert t.bandwidth_at(4.0 - 1e-9) == pytest.approx(0.5 * bw)
        assert t.bandwidth_at(4.0) == pytest.approx(0.25 * bw)
        assert t.bandwidth_at(6.0 - 1e-9) == pytest.approx(0.25 * bw)
        assert t.bandwidth_at(6.0) == pytest.approx(0.5 * bw)

    def test_windowed_byte_conservation(self):
        """Integrating the degraded trace over windows that exactly tile
        ``[0, 10)`` conserves bytes against the closed-form sum — the
        segment-exact contract the scheduler relies on at boundaries."""
        base = stable_trace(8.0, duration=100.0)  # constant 8 Mbit/s
        t = DegradedTrace(base, [(2.0, 5.0, 0.5), (5.0, 8.0, 0.25)])
        # Piecewise-exact integration by stepping time_to_next_change.
        now, total_bits = 0.0, 0.0
        while now < 10.0:
            dt = min(t.time_to_next_change(now), 10.0 - now)
            total_bits += t.bandwidth_at(now) * dt
            now += dt
        bw = base.bandwidth_at(0.0)
        expected = bw * (2.0 + 0.5 * 3.0 + 0.25 * 3.0 + 2.0)
        assert total_bits == pytest.approx(expected)


class TestFlashCrowds:
    def test_sessions_clone_template_onto_crowd_content(self):
        template = base_session()
        crowd = FlashCrowd(
            spec=spec(seconds=30, name="hot"), start=10.0, n_viewers=4,
            ramp_seconds=2.0,
        )
        out = flash_crowd_sessions(crowd, template)
        assert len(out) == 4
        assert [s.join_time for s in out] == [10.0, 10.5, 11.0, 11.5]
        assert all(s.spec.name == "hot" for s in out)
        assert all(s.controller is template.controller for s in out)

    def test_expand_population(self):
        sessions = fleet(3)
        crowd = FlashCrowd(spec=spec(name="hot"), start=5.0, n_viewers=2)
        out = FaultSchedule((crowd,)).expand_population(sessions)
        assert len(out) == 5
        assert out[:3] == sessions
        # No crowds: a plain copy.
        assert FaultSchedule().expand_population(sessions) == sessions
        with pytest.raises(ValueError, match="template"):
            FaultSchedule((crowd,)).expand_population([])


class TestOutageEndToEnd:
    def test_outage_resteers_and_recovers(self):
        sessions = fleet(9)
        sched = FaultSchedule((EdgeOutage(edge=0, start=4.0, duration=6.0),))
        result = simulate_fleet(
            sessions, topology=cdn(), assignment=[i % 3 for i in range(9)],
            faults=sched,
        )
        rep = result.report
        assert rep.faults_injected == 1
        assert rep.sessions_resteered > 0
        # Every viewer moved off the dead edge and every session finished.
        assert all(e != 0 for e in result.assignment)
        assert all(r is not None for r in result.sessions)

    def test_outage_run_is_deterministic(self):
        sessions = fleet(9)
        sched = FaultSchedule((EdgeOutage(edge=0, start=4.0, duration=6.0),))
        a = simulate_fleet(sessions, topology=cdn(), faults=sched)
        b = simulate_fleet(sessions, topology=cdn(), faults=sched)
        assert a.report == b.report
        assert a.sessions == b.sessions

    def test_outage_slows_the_fleet(self):
        sessions = fleet(9)
        base = simulate_fleet(
            sessions, topology=cdn(), assignment=[i % 3 for i in range(9)]
        ).report
        hit = simulate_fleet(
            sessions, topology=cdn(), assignment=[i % 3 for i in range(9)],
            faults=FaultSchedule((EdgeOutage(edge=0, start=4.0, duration=6.0),)),
        ).report
        assert hit.mean_qoe <= base.mean_qoe


class TestDegradationEndToEnd:
    def test_degradation_perturbs_and_restores(self):
        sessions = fleet(6)
        topo = cdn()
        base = simulate_fleet(sessions, topology=topo).report
        sched = FaultSchedule((
            BackhaulDegradation(edge=0, start=2.0, duration=6.0, factor=0.1),
        ))
        hit = simulate_fleet(sessions, topology=topo, faults=sched).report
        assert hit != base
        assert hit.faults_injected == 1
        # The given links never wore the wrapper: a re-run without faults
        # matches the baseline.
        for edge in topo.edges:
            assert not isinstance(edge.backhaul.trace, DegradedTrace)
        again = simulate_fleet(sessions, topology=topo).report
        assert again == base


class TestWindowedReadsInAFleet:
    """The chaos rows' gray edge and backhaul brownouts put a
    ``DegradedTrace`` under the run's links; the scheduler reads one at
    activation and where a segment or window boundary passes, as it reads a
    plain link, not at every fleet step (the gray row took 442 each of
    ``bandwidth_at`` and ``time_to_next_change`` before)."""

    def test_a_windowed_link_costs_reads_per_boundary(self, monkeypatch):
        counter = WindowedReads(monkeypatch)
        scale = dataclasses.replace(SMOKE, stream_seconds=12)
        seen = 0
        for name, row in chaos_rows(40):
            if name not in ("gray-edge", "backhaul-degr", "retry-timeout"):
                continue
            result = run_scenario(row, scale).result
            for edge in result.topology.edges:
                for trace in (edge.access.trace, edge.backhaul.trace):
                    if not isinstance(trace, DegradedTrace):
                        continue
                    seen += 1
                    reads, bound = counter.reads[id(trace)], counter.bound(trace)
                    assert reads["segment"] <= bound, (name, reads, bound)
                    # a driver wake (a request, a timeout, a control tick)
                    # between the step a boundary falls due and the step
                    # that crosses it evaluates the boundary again
                    evaluations = reads["bandwidth_at"] + reads["time_to_next_change"]
                    assert evaluations <= 2 * bound, (name, reads, bound)
        assert seen == 3


class TestDisabledModeParity:
    def test_empty_schedule_is_bit_exact(self):
        sessions = fleet(6)
        topo = cdn()
        a = simulate_fleet(sessions, topology=topo)
        b = simulate_fleet(sessions, topology=topo, faults=FaultSchedule())
        assert a.report == b.report
        assert a.sessions == b.sessions
        assert a.end_times == b.end_times

    def test_topology_reuse_is_bit_exact(self):
        # Regression: simulate_fleet used to warm-start from the previous
        # run's caches/encode state when handed the same topology object.
        sessions = fleet(6)
        topo = cdn()
        a = simulate_fleet(sessions, topology=topo, sr_cache="per-edge")
        b = simulate_fleet(sessions, topology=topo, sr_cache="per-edge")
        assert a.report == b.report
        assert a.sessions == b.sessions

    def test_fault_metrics_default_to_zero(self):
        rep = simulate_fleet(fleet(3), topology=cdn()).report
        assert rep.sessions_resteered == 0
        assert rep.faults_injected == 0
        assert rep.control_ticks == 0
        assert rep.encode_pool_resizes == 0
        assert rep.chunk_retries == 0
        assert rep.requests_timed_out == 0
        assert rep.requests_hedged == 0
        assert rep.gray_degraded_bytes == 0
        assert rep.retry_attempts == ()

    def test_default_retry_policy_is_bit_exact(self):
        """``RetryPolicy()`` (infinite timeout, no hedge) on a fault-free
        run arms nothing: bit-exact with the bare run."""
        sessions = fleet(6)
        topo = cdn()
        a = simulate_fleet(sessions, topology=topo)
        b = simulate_fleet(sessions, topology=topo, retry_policy=RetryPolicy())
        assert a.report == b.report
        assert a.sessions == b.sessions
        assert a.end_times == b.end_times


class TestOutageAccounting:
    """Regression tests for chaos-path accounting (PR 7 satellites)."""

    def test_byte_conservation_under_outage(self):
        """Flows cancelled mid-transfer by an outage used to leave their
        full origin-egress charge on the books even though the retry was
        billed again on another edge.  With the credit-back, conservation
        holds on fault runs exactly as it does fault-free."""
        sessions = fleet(9)
        topo = cdn()
        sched = FaultSchedule((EdgeOutage(edge=0, start=4.0, duration=6.0),))
        result = simulate_fleet(
            sessions,
            topology=topo,
            assignment=[i % 3 for i in range(9)],
            faults=sched,
        )
        rep = result.report
        assert rep.sessions_resteered > 0
        hit_bytes = sum(e.cache.hit_bytes for e in result.topology.edges)
        coalesced = sum(e.cache.coalesced_bytes for e in result.topology.edges)
        assert rep.coalesced_bytes == coalesced
        assert (
            rep.origin_egress_bytes + hit_bytes + coalesced == rep.total_bytes
        )

    def test_late_joiner_keeps_assignment_after_outage_ends(self):
        """_evacuate used to fail over *every* viewer assigned to the dark
        edge, including ones whose join_time is after the outage ends.
        Those viewers never see the outage and must keep their edge."""
        sessions = [
            dataclasses.replace(base_session(seconds=8), join_time=t)
            for t in (0.0, 1.0, 5.0, 12.0)
        ]
        sched = FaultSchedule((EdgeOutage(edge=0, start=4.0, duration=6.0),))
        result = simulate_fleet(
            sessions,
            topology=cdn(),
            assignment=[0, 1, 0, 0],
            faults=sched,
        )
        # Joined before/during the outage window: moved off edge 0.
        assert result.assignment[0] != 0
        assert result.assignment[2] != 0
        # Joined at t=12, after the outage ended at t=10: stays put.
        assert result.assignment[3] == 0
        assert result.report.sessions_resteered == 2
        assert all(r is not None for r in result.sessions)

    def test_chained_outages_extend_the_failover_window(self):
        """Back-to-back outage spans on one edge behave as a single dark
        window: a viewer joining during the *second* span is re-steered
        by the first span's evacuation pass."""
        sessions = [
            dataclasses.replace(base_session(seconds=8), join_time=t)
            for t in (0.0, 8.0, 12.0)
        ]
        sched = FaultSchedule((
            EdgeOutage(edge=0, start=4.0, duration=3.0),
            EdgeOutage(edge=0, start=7.0, duration=3.0),
        ))
        result = simulate_fleet(
            sessions,
            topology=cdn(),
            assignment=[0, 0, 0],
            faults=sched,
        )
        # t=0 and t=8 joiners fall inside the chained [4, 10) window.
        assert result.assignment[0] != 0
        assert result.assignment[1] != 0
        # t=12 joiner arrives after the chain ends.
        assert result.assignment[2] == 0
        assert all(r is not None for r in result.sessions)


class TestGrayFailureEndToEnd:
    def test_drop_draw_is_deterministic_per_request(self):
        g = GrayFailure(edge=0, start=0.0, duration=10.0, drop_fraction=0.5)
        draws = [g.drops(sid, 1.25) for sid in range(200)]
        assert draws == [g.drops(sid, 1.25) for sid in range(200)]
        assert any(draws) and not all(draws)
        never = GrayFailure(edge=0, start=0.0, duration=10.0)
        assert not any(never.drops(sid, 1.25) for sid in range(50))
        always = GrayFailure(
            edge=0, start=0.0, duration=10.0, drop_fraction=1.0
        )
        assert all(always.drops(sid, 1.25) for sid in range(50))

    def test_covers_is_half_open(self):
        g = GrayFailure(edge=0, start=2.0, duration=3.0)
        assert not g.covers(2.0 - 1e-9)
        assert g.covers(2.0)
        assert g.covers(5.0 - 1e-9)
        assert not g.covers(5.0)

    def test_brownout_degrades_without_resteering(self):
        sessions = fleet(9)
        assignment = [i % 3 for i in range(9)]
        topo = cdn()
        base = simulate_fleet(
            sessions, topology=topo, assignment=assignment
        ).report
        sched = FaultSchedule((
            GrayFailure(edge=0, start=2.0, duration=10.0,
                        capacity_factor=0.3),
        ))
        hit = simulate_fleet(
            sessions, topology=cdn(), assignment=assignment, faults=sched
        ).report
        assert hit.faults_injected == 1
        assert hit.sessions_resteered == 0  # browned out, not dark
        assert hit.gray_degraded_bytes > 0
        assert hit != base

    def test_drops_count_as_retries_and_bytes_conserve(self):
        topo = cdn()
        sched = FaultSchedule((
            GrayFailure(edge=0, start=1.0, duration=14.0,
                        capacity_factor=0.8, drop_fraction=0.5,
                        drop_delay_s=0.5),
        ))
        result = simulate_fleet(
            fleet(9), topology=topo,
            assignment=[i % 3 for i in range(9)], faults=sched,
        )
        rep = result.report
        assert rep.chunk_retries > 0
        assert rep.requests_timed_out == 0
        assert sum(rep.retry_attempts) > 0
        check_retry_accounting(rep)
        hit_bytes = sum(e.cache.hit_bytes for e in result.topology.edges)
        coalesced = sum(e.cache.coalesced_bytes for e in result.topology.edges)
        assert (
            rep.origin_egress_bytes + hit_bytes + coalesced
            == rep.total_bytes
        )
        assert all(r is not None for r in result.sessions)

    def test_gray_composes_with_backhaul_degradation(self):
        """A gray capacity window (access link) and a backhaul
        degradation on the same edge stack without breaking byte
        conservation — distinct links, one DegradedTrace mechanism."""
        topo = cdn()
        sched = FaultSchedule((
            GrayFailure(edge=0, start=2.0, duration=8.0,
                        capacity_factor=0.5),
            BackhaulDegradation(edge=0, start=4.0, duration=8.0,
                                factor=0.5),
        ))
        result = simulate_fleet(
            fleet(6), topology=topo,
            assignment=[i % 3 for i in range(6)], faults=sched,
        )
        rep = result.report
        assert rep.faults_injected == 2
        hit_bytes = sum(e.cache.hit_bytes for e in result.topology.edges)
        coalesced = sum(e.cache.coalesced_bytes for e in result.topology.edges)
        assert (
            rep.origin_egress_bytes + hit_bytes + coalesced
            == rep.total_bytes
        )
        # Both windows ride the run's own links; the given ones never
        # wear a wrapper.
        ran = result.topology.edges[0]
        assert isinstance(ran.access.trace, DegradedTrace)
        assert isinstance(ran.backhaul.trace, DegradedTrace)
        for edge in topo.edges:
            assert not isinstance(edge.access.trace, DegradedTrace)
            assert not isinstance(edge.backhaul.trace, DegradedTrace)


class TestRegionOutageEndToEnd:
    def test_region_members_evacuate_together(self):
        # 3 edges, 2 regions: region-0 = (0, 1), region-1 = (2,).
        topo = cdn(n_regions=2)
        sched = FaultSchedule((
            RegionOutage(region="region-0", start=4.0, duration=6.0),
        ))
        result = simulate_fleet(
            fleet(9), topology=topo,
            assignment=[i % 3 for i in range(9)], faults=sched,
        )
        rep = result.report
        assert rep.faults_injected == 1  # one incident, two edges dark
        assert rep.sessions_resteered == 6  # everyone on edges 0 and 1
        assert all(e == 2 for e in result.assignment)
        assert all(r is not None for r in result.sessions)

    def test_per_region_recovery_metrics_reported(self):
        """Each region's audience (the sessions its edges host at the
        start) read against the fault-free twin."""
        topo = cdn(n_regions=2)
        sched = FaultSchedule((
            RegionOutage(region="region-0", start=4.0, duration=6.0),
        ))
        home = [i % 3 for i in range(9)]
        hit, twin = (
            simulate_fleet(
                fleet(9), topology=topo, assignment=home, faults=faults
            )
            for faults in (sched, None)
        )
        dips = {}
        for name, members in sorted(topo.regions.items()):
            ids = [sid for sid, e in enumerate(home) if e in members]
            dip, recover = fault_damage(hit, twin, 4.0, ids)
            assert dip >= 0.0
            assert recover >= 0.0
            dips[name] = dip
        assert list(dips) == ["region-0", "region-1"]
        # The dark region's audience hurts at least as much as the
        # bystander region absorbing its refugees.
        assert dips["region-0"] >= dips["region-1"]
        assert dips["region-0"] > 0.0

    def test_region_outage_requires_declared_region(self):
        sched = FaultSchedule((
            RegionOutage(region="region-0", start=4.0, duration=6.0),
        ))
        with pytest.raises(ValueError, match="region-0"):
            simulate_fleet(fleet(3), topology=cdn(), faults=sched)


class TestRetryTimeouts:
    def sessions(self, n=6):
        return fleet(n)

    def slow_cdn(self):
        # A starved backhaul makes cold fetches slow enough that a short
        # client timeout fires while the cache is still warming.
        return cdn(backhaul_mbps=4.0)

    def test_timeouts_fire_and_requests_still_complete(self):
        pol = RetryPolicy(
            timeout_s=1.0, backoff_base_s=0.1, backoff_cap_s=0.4,
            max_attempts=3,
        )
        result = simulate_fleet(
            self.sessions(), topology=self.slow_cdn(),
            assignment=[i % 3 for i in range(6)], retry_policy=pol,
        )
        rep = result.report
        assert rep.requests_timed_out > 0
        assert rep.chunk_retries >= rep.requests_timed_out
        assert sum(rep.retry_attempts) > 0
        check_retry_accounting(rep)
        assert all(r is not None for r in result.sessions)

    def test_max_attempts_bounds_the_fight(self):
        pol = RetryPolicy(timeout_s=1.0, backoff_base_s=0.1, max_attempts=2)
        rep = simulate_fleet(
            self.sessions(), topology=self.slow_cdn(),
            assignment=[i % 3 for i in range(6)], retry_policy=pol,
        ).report
        assert rep.requests_timed_out > 0
        # At most max_attempts - 1 failed attempts per request: the
        # final attempt runs untimed.
        assert len(rep.retry_attempts) <= pol.max_attempts - 1

    def test_hedge_moves_sessions_and_counts(self):
        pol = RetryPolicy(timeout_s=1.0, backoff_base_s=0.1, hedge=True)
        result = simulate_fleet(
            self.sessions(), topology=self.slow_cdn(),
            assignment=[i % 3 for i in range(6)], retry_policy=pol,
        )
        rep = result.report
        assert rep.requests_hedged > 0
        assert rep.sessions_resteered >= rep.requests_hedged
        check_retry_accounting(rep)
        assert all(r is not None for r in result.sessions)

    def test_timeouts_are_deterministic(self):
        pol = RetryPolicy(timeout_s=1.0, backoff_base_s=0.1)
        a = simulate_fleet(
            self.sessions(), topology=self.slow_cdn(), retry_policy=pol
        )
        b = simulate_fleet(
            self.sessions(), topology=self.slow_cdn(), retry_policy=pol
        )
        assert a.report == b.report
        assert a.sessions == b.sessions
        assert a.end_times == b.end_times


class TestRetryOffsetAccounting:
    """Satellite: the old ``retry_offset`` dict's audit, pinned against
    the folded `_RetryState` accounting (see its docstring)."""

    def outage(self):
        return FaultSchedule((EdgeOutage(edge=0, start=4.0, duration=6.0),))

    def test_evacuation_retries_are_counted_and_settled(self):
        result = simulate_fleet(
            fleet(9), topology=cdn(),
            assignment=[i % 3 for i in range(9)], faults=self.outage(),
        )
        rep = result.report
        assert rep.sessions_resteered > 0
        assert rep.chunk_retries > 0
        check_retry_accounting(rep)
        assert all(r is not None for r in result.sessions)

    def test_chained_outages_telescope_into_one_window(self):
        """A viewer whose retry is re-killed by the chained second span
        accumulates both gaps into one offset entry; the fleet lands
        where a single merged window would put it (the extra scheduler
        sync at the inner boundary reassociates float sums, so the
        comparison is approx, not bit-exact)."""
        sessions = fleet(9)
        assignment = [i % 3 for i in range(9)]
        chained = simulate_fleet(
            sessions, topology=cdn(), assignment=assignment,
            faults=FaultSchedule((
                EdgeOutage(edge=0, start=4.0, duration=3.0),
                EdgeOutage(edge=0, start=7.0, duration=3.0),
            )),
        )
        merged = simulate_fleet(
            sessions, topology=cdn(), assignment=assignment,
            faults=FaultSchedule((
                EdgeOutage(edge=0, start=4.0, duration=6.0),
            )),
        )
        assert chained.assignment == merged.assignment
        assert chained.end_times == pytest.approx(merged.end_times)
        assert chained.report.sessions_resteered == (
            merged.report.sessions_resteered
        )
        assert chained.report.chunk_retries == merged.report.chunk_retries
        assert chained.report.mean_qoe == pytest.approx(
            merged.report.mean_qoe
        )
        for ca, me in zip(chained.sessions, merged.sessions):
            assert ca.total_bytes == me.total_bytes
            assert ca.stall_seconds == pytest.approx(me.stall_seconds)
            assert ca.qoe == pytest.approx(me.qoe)
        check_retry_accounting(chained.report)

    def test_abandoning_session_settles_its_account(self):
        """A session that abandons at its completing attempt has already
        consumed its sunk-time entry — the histogram equality cannot see
        a leak, and the run must not crash on the dangling state."""
        from repro.streaming import AbandonPolicy, FleetSession

        sessions = [
            FleetSession(
                spec=spec(seconds=20, name="vid"),
                controller=FixedDensity(0.4),
                sr_latency=sr_lat(),
                join_time=0.4 * i,
                churn=AbandonPolicy(max_total_stall=0.5),
            )
            for i in range(9)
        ]
        result = simulate_fleet(
            sessions, topology=cdn(backhaul_mbps=6.0),
            assignment=[i % 3 for i in range(9)], faults=self.outage(),
        )
        rep = result.report
        assert any(r.abandoned for r in result.sessions)
        check_retry_accounting(rep)
        assert all(r is not None for r in result.sessions)


class TestFaultScenarioGrid:
    """Fault kinds x retry policies x fleet size: every combination is
    seed-deterministic and conserves bytes and retry attempts."""

    FAULTS = {
        "none": None,
        "edge": FaultSchedule((
            EdgeOutage(edge=0, start=3.0, duration=5.0),
        )),
        "region": FaultSchedule((
            RegionOutage(region="region-0", start=3.0, duration=5.0),
        )),
        "gray": FaultSchedule((
            GrayFailure(edge=0, start=2.0, duration=8.0,
                        capacity_factor=0.5),
        )),
        "gray-drop": FaultSchedule((
            GrayFailure(edge=0, start=2.0, duration=8.0,
                        capacity_factor=0.8, drop_fraction=0.4,
                        drop_delay_s=0.5),
        )),
    }
    RETRIES = {
        "none": None,
        "timeout": RetryPolicy(
            timeout_s=1.5, backoff_base_s=0.25, backoff_cap_s=1.0,
            max_attempts=3,
        ),
        "hedge": RetryPolicy(
            timeout_s=1.5, backoff_base_s=0.25, backoff_cap_s=1.0,
            max_attempts=3, hedge=True,
        ),
    }

    @given(
        fault=st.sampled_from(sorted(FAULTS)),
        retry=st.sampled_from(sorted(RETRIES)),
        n=st.integers(5, 8),
        late=st.booleans(),
    )
    # the cases the retry-event ledger got wrong before it had one writer
    @example(fault="edge", retry="none", n=5, late=True)
    @example(fault="region", retry="timeout", n=6, late=True)
    @example(fault="gray-drop", retry="none", n=5, late=False)
    @settings(max_examples=15, deadline=None)
    def test_deterministic_and_conserving(self, fault, retry, n, late):
        sessions = fleet(n)
        assignment = [i % 3 for i in range(n)]
        if late:
            # Two startup-payload viewers on edge 0 joining after its
            # outage ends: their first transfer is already in the
            # scheduler, future-dated, when the edge goes dark.
            for sid, join in ((n - 2, 10.0), (n - 1, 12.0)):
                sessions[sid] = dataclasses.replace(
                    sessions[sid], join_time=join,
                    config=SessionConfig(startup_bytes=200_000),
                )
                assignment[sid] = 0

        def run(telemetry=None):
            return simulate_fleet(
                sessions, topology=cdn(n_regions=2),
                assignment=assignment,
                faults=self.FAULTS[fault],
                retry_policy=self.RETRIES[retry],
                telemetry=telemetry,
            )

        tel = Telemetry(metrics=False, profile=False)
        a = run(tel)
        assert_same_run(a, run())
        check_byte_conservation(a)
        check_retry_accounting(a.report)
        check_retry_events(tel.tracer, a.report, startup_payloads=2 * late)


class TestInertTimeout:
    """A retry deadline that never fires leaves the run as it is without
    one: ``timeout_s=inf`` arms nothing, so a finite timeout under which no
    request timed out must give the same run, bit for bit.  It holds only
    while a stale deadline (its attempt completed or was re-issued) wakes
    nothing: a wake splits a fluid drain and adds a control instant."""

    @given(
        fault=st.sampled_from(sorted(TestFaultScenarioGrid.FAULTS)),
        n=st.integers(3, 8),
        stagger=st.floats(0.0, 1.5),
        hedge=st.booleans(),
        timeout_s=st.floats(1.0, 12.0),
    )
    # No deadline fires here, and waking for the stale ones moves session
    # 5's chunk records.
    @example(fault="none", n=6, stagger=0.4, hedge=False, timeout_s=5.0)
    @settings(max_examples=15, deadline=None)
    def test_a_timer_that_never_fires_is_inert(
        self, fault, n, stagger, hedge, timeout_s
    ):
        policy = RetryPolicy(
            timeout_s=timeout_s, backoff_base_s=0.25, backoff_cap_s=1.0,
            max_attempts=3, hedge=hedge,
        )

        def run(retry_policy):
            return simulate_fleet(
                fleet(n, stagger=stagger), topology=cdn(n_regions=2),
                faults=TestFaultScenarioGrid.FAULTS[fault],
                retry_policy=retry_policy,
            )

        timed = run(policy)
        assume(timed.report.requests_timed_out == 0)
        assert_same_run(timed, run(dataclasses.replace(policy, timeout_s=math.inf)))


class TestInertInstant:
    """An instant at which no rate changes changes no bit.  A factor-1
    backhaul degradation, or a factor-1 gray window that drops nothing,
    only adds the window's two edges as instants; the scheduler rebases a
    flow's bits only when its rate changes, so the run must equal the
    fault-free one bit for bit, and its damage against that twin reads
    exactly none, fleet-wide and per region.  Report fields that describe
    the fault itself are left out: its count and its gray bytes."""

    FAULT_FIELDS = ("faults_injected", "gray_degraded_bytes")

    @staticmethod
    def no_op(kind, edge, start, duration):
        if kind == "degradation":
            return BackhaulDegradation(
                edge=edge, start=start, duration=duration, factor=1.0
            )
        return GrayFailure(
            edge=edge, start=start, duration=duration, capacity_factor=1.0
        )

    @given(
        kind=st.sampled_from(["degradation", "gray"]),
        n=st.integers(3, 8),
        stagger=st.floats(0.0, 1.5),
        n_edges=st.integers(2, 4),
        edge=st.integers(0, 3),
        start=st.floats(0.0, 10.0),
        duration=st.floats(0.5, 10.0),
    )
    # Under the drain-every-step scheduler the window's two instants moved
    # session 5's stall records here by an ulp (2.4161228799999996 s
    # against 2.4161228800000014 s).  Both no-op windows here also read
    # dip 4.95 / recovery inf while damage was measured against the
    # faulted run's own pre-fault health.
    @example(kind="degradation", n=6, stagger=0.4, n_edges=3, edge=0,
             start=2.0, duration=8.0)
    @example(kind="gray", n=6, stagger=0.4, n_edges=3, edge=0,
             start=2.0, duration=8.0)
    @settings(max_examples=15, deadline=None)
    def test_a_fault_that_changes_no_rate_is_inert(
        self, kind, n, stagger, n_edges, edge, start, duration
    ):
        def run(faults):
            return simulate_fleet(
                fleet(n, stagger=stagger),
                topology=cdn(n_edges, n_regions=2), faults=faults,
            )

        def facts(report):
            d = dataclasses.asdict(report)
            for name in self.FAULT_FIELDS:
                del d[name]
            return d

        event = self.no_op(kind, edge % n_edges, start, duration)
        faulted, clean = run(FaultSchedule((event,))), run(None)
        assert faulted.sessions == clean.sessions
        assert faulted.end_times == clean.end_times
        assert faulted.assignment == clean.assignment
        assert facts(faulted.report) == facts(clean.report)
        topo = faulted.topology
        home = topo.assign(faulted.session_specs)
        audiences = [range(n)] + [
            [sid for sid, e in enumerate(home) if e in members]
            for members in topo.regions.values()
        ]
        for ids in audiences:
            assert fault_damage(faulted, clean, start, ids) == (0.0, 0.0)
