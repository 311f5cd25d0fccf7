"""Control plane: policies, tick actions, autoscaler, recovery metrics, parity."""

import dataclasses
import math

import pytest

from repro.streaming import (
    BackhaulDegradation,
    ControlPlane,
    ControlPolicy,
    FaultSchedule,
    FleetView,
    QoEArrivalAutoscaler,
    RecoveryTracker,
    simulate_fleet,
    uniform_cdn,
)

from .helpers import FixedDensity, spec, sr_lat


def fleet(n=8, seconds=20, stagger=0.4):
    from repro.streaming import FleetSession

    return [
        FleetSession(
            spec=spec(seconds=seconds, name="vid"),
            controller=FixedDensity(0.4),
            sr_latency=sr_lat(),
            join_time=stagger * i,
        )
        for i in range(n)
    ]


def cdn(n_edges=3, **kw):
    kw.setdefault("access_mbps", 50.0)
    kw.setdefault("backhaul_mbps", 40.0)
    kw.setdefault("n_encode_workers", 4)
    kw.setdefault("encode_seconds", 0.02)
    return uniform_cdn(n_edges, **kw)


def view(**kw):
    kw.setdefault("now", 5.0)
    kw.setdefault("edge_load", (1, 1, 1))
    kw.setdefault("edge_down", (False, False, False))
    kw.setdefault("sessions_by_edge", {0: (0,), 1: (1,), 2: (2,)})
    kw.setdefault("encode_waits", ())
    kw.setdefault("encode_workers", 4)
    kw.setdefault("health", None)
    return FleetView(**kw)


class TestControlPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="interval"):
            ControlPolicy(interval=0.0)
        with pytest.raises(ValueError, match="encode_wait_low"):
            ControlPolicy(encode_wait_low=1.0, encode_wait_high=0.5)
        with pytest.raises(ValueError, match="min_encode_workers"):
            ControlPolicy(min_encode_workers=0)
        with pytest.raises(ValueError, match="max_encode_workers"):
            ControlPolicy(min_encode_workers=4, max_encode_workers=2)
        with pytest.raises(ValueError, match="saturation_factor"):
            ControlPolicy(saturation_factor=1.0)
        with pytest.raises(ValueError, match="max_resteers"):
            ControlPolicy(max_resteers_per_tick=-1)

    # NaN used to slip through every ``<`` check (a NaN interval failed
    # mid-run, NaN thresholds switched levers off) and counts took 2.5.
    # Each error names the field and the value.
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_interval_must_be_finite(self, bad):
        with pytest.raises(ValueError, match=rf"interval.*{bad!r}"):
            ControlPolicy(interval=bad)

    def test_encode_wait_high_rejects_nan(self):
        with pytest.raises(ValueError, match=r"encode_wait_high.*nan"):
            ControlPolicy(encode_wait_high=math.nan)

    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    def test_encode_wait_low_rejects_nan_and_negative(self, bad):
        with pytest.raises(ValueError, match=rf"encode_wait_low.*{bad!r}"):
            ControlPolicy(encode_wait_low=bad)

    def test_saturation_factor_rejects_nan(self):
        with pytest.raises(ValueError, match=r"saturation_factor.*nan"):
            ControlPolicy(saturation_factor=math.nan)

    @pytest.mark.parametrize("bad", [math.nan, 2.5, True])
    def test_min_encode_workers_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match=rf"min_encode_workers.*{bad!r}"):
            ControlPolicy(min_encode_workers=bad)

    @pytest.mark.parametrize("bad", [math.nan, 2.5, True])
    def test_max_encode_workers_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match=rf"max_encode_workers.*{bad!r}"):
            ControlPolicy(max_encode_workers=bad)

    @pytest.mark.parametrize("bad", [math.nan, 2.5, True])
    def test_max_resteers_per_tick_must_be_an_integer(self, bad):
        with pytest.raises(
            ValueError, match=rf"max_resteers_per_tick.*{bad!r}"
        ):
            ControlPolicy(max_resteers_per_tick=bad)

    def test_inf_thresholds_stay_legal(self):
        """``inf`` is the documented way to switch a lever off."""
        pol = ControlPolicy(
            encode_wait_high=math.inf, encode_wait_low=math.inf,
            saturation_factor=math.inf,
        )
        assert pol.saturation_factor == math.inf


class TestControlPlaneTick:
    def test_grows_encode_pool_on_high_wait(self):
        plane = ControlPlane(ControlPolicy(encode_wait_high=0.5))
        actions = plane.tick(
            view(encode_waits=(1.0, 2.0, 3.0), encode_workers=4)
        )
        assert actions.encode_workers == 8
        assert plane.encode_resizes == 1
        assert plane.ticks == 1

    def test_shrinks_idle_encode_pool(self):
        plane = ControlPlane(ControlPolicy(encode_wait_low=0.01))
        actions = plane.tick(
            view(encode_waits=(0.0, 0.0, 0.0), encode_workers=8)
        )
        assert actions.encode_workers == 4

    def test_respects_pool_bounds(self):
        plane = ControlPlane(
            ControlPolicy(min_encode_workers=2, max_encode_workers=8)
        )
        assert plane.tick(
            view(encode_waits=(9.0,), encode_workers=8)
        ).encode_workers is None
        assert plane.tick(
            view(encode_waits=(0.0,), encode_workers=2)
        ).encode_workers is None

    def test_resteers_off_saturated_edge(self):
        plane = ControlPlane(ControlPolicy(saturation_factor=2.0))
        actions = plane.tick(view(
            edge_load=(9, 1, 2),
            sessions_by_edge={0: (0, 1, 2, 3, 4, 5, 6, 7, 8), 1: (9,), 2: (10, 11)},
        ))
        assert actions.resteer
        # Lowest session ids move first, to the least-loaded live edge.
        assert actions.resteer[0] == (0, 1)
        assert plane.resteered == len(actions.resteer)

    def test_never_steers_to_a_dark_edge(self):
        # With one edge dark only two are live, so the threshold (factor x
        # live-mean) needs a factor < 2 to be reachable at all.
        plane = ControlPlane(ControlPolicy(saturation_factor=1.5))
        actions = plane.tick(view(
            edge_load=(9, 0, 2),
            edge_down=(False, True, False),
            sessions_by_edge={0: tuple(range(9)), 2: (10, 11)},
        ))
        assert actions.resteer
        assert all(target == 2 for _, target in actions.resteer)

    def test_resteer_budget(self):
        plane = ControlPlane(
            ControlPolicy(saturation_factor=2.0, max_resteers_per_tick=2)
        )
        actions = plane.tick(view(
            edge_load=(20, 1, 1),
            sessions_by_edge={0: tuple(range(20)), 1: (20,), 2: (21,)},
        ))
        assert len(actions.resteer) == 2

    def test_inf_thresholds_never_act(self):
        plane = ControlPlane(ControlPolicy(
            encode_wait_high=math.inf, encode_wait_low=0.0,
            saturation_factor=math.inf,
        ))
        actions = plane.tick(view(
            edge_load=(50, 0, 0),
            sessions_by_edge={0: tuple(range(50))},
            encode_waits=(100.0,) * 20,
            encode_workers=4,
        ))
        assert not actions

    def test_small_fleet_saturation_matches_docstring(self):
        """The docstring promises "load exceeds factor x mean (and >= 2)".
        An absolute ``max(..., 2.0)`` floor used to creep in instead,
        silently disabling re-steering for small fleets: load 2 vs mean 1
        exceeds 1.5 x mean and meets the >= 2 guard, so it must act."""
        plane = ControlPlane(ControlPolicy(saturation_factor=1.5))
        actions = plane.tick(view(
            edge_load=(2, 0, 0),
            sessions_by_edge={0: (0, 1)},
        ))
        assert actions.resteer == [(0, 1)]

    def test_single_session_edge_is_never_saturated(self):
        """The >= 2 guard: one viewer on an otherwise idle fleet is not a
        hotspot, no matter how aggressive the factor."""
        plane = ControlPlane(ControlPolicy(saturation_factor=1.1))
        actions = plane.tick(view(
            edge_load=(1, 0, 0),
            sessions_by_edge={0: (0,)},
        ))
        assert not actions.resteer


class TestQoEArrivalAutoscaler:
    def test_unhealthy_day_scales_next_day_down(self):
        auto = QoEArrivalAutoscaler(day_seconds=100.0, target_health=0.5)
        for t in range(0, 100, 10):
            auto.observe(float(t), -2.0)
        auto.finish()
        assert auto(0) == 1.0
        assert auto(1) == pytest.approx(0.75)
        assert auto.day_health(0) is None  # consumed by finish()

    def test_healthy_day_relaxes_back_capped_at_max(self):
        auto = QoEArrivalAutoscaler(day_seconds=100.0, target_health=0.5)
        auto.observe(50.0, 3.0)
        auto.finish()
        assert auto(1) == 1.0  # capped at max_scale

    def test_rolling_days_plan_while_running(self):
        auto = QoEArrivalAutoscaler(day_seconds=10.0, target_health=0.5)
        auto.observe(5.0, -1.0)
        assert auto(1) == 1.0  # day 0 still open
        auto.observe(15.0, 2.0)  # first day-1 sample closes day 0
        assert auto(1) == pytest.approx(0.75)
        assert auto.day_health(1) == pytest.approx(2.0)

    def test_floor(self):
        auto = QoEArrivalAutoscaler(
            day_seconds=10.0, target_health=0.5, min_scale=0.7
        )
        auto.observe(5.0, -9.0)
        auto.finish()
        assert auto(1) == pytest.approx(0.75)
        # A second terrible day keeps shrinking but never below the floor.
        auto._scales[5] = 0.8
        auto.observe(55.0, -9.0)
        auto.finish()
        assert auto(6) == pytest.approx(0.7)

    def test_validation(self):
        with pytest.raises(ValueError, match="day_seconds"):
            QoEArrivalAutoscaler(day_seconds=0.0)
        with pytest.raises(ValueError, match="step"):
            QoEArrivalAutoscaler(day_seconds=1.0, step=1.0)
        with pytest.raises(ValueError, match="min_scale"):
            QoEArrivalAutoscaler(day_seconds=1.0, min_scale=0.0)


class TestRecoveryTracker:
    def test_dip_and_recovery(self):
        tr = RecoveryTracker(fault_start=10.0, tolerance=0.1)
        for t, h in [(2.0, 4.0), (6.0, 4.2), (12.0, 1.0), (16.0, 2.0),
                     (20.0, 4.1), (24.0, 4.2)]:
            tr.sample(t, h)
        assert tr.baseline == pytest.approx(4.1)
        dip, recover = tr.metrics()
        assert dip == pytest.approx(3.1)
        assert recover == pytest.approx(10.0)  # healthy again at t=20

    def test_never_recovers_is_inf(self):
        tr = RecoveryTracker(fault_start=10.0)
        for t, h in [(5.0, 4.0), (12.0, 1.0), (20.0, 1.5)]:
            tr.sample(t, h)
        dip, recover = tr.metrics()
        assert dip == pytest.approx(3.0)
        assert math.isinf(recover)

    def test_no_dip_is_zero(self):
        tr = RecoveryTracker(fault_start=10.0, tolerance=0.5)
        for t, h in [(5.0, 4.0), (12.0, 3.8), (20.0, 4.0)]:
            tr.sample(t, h)
        assert tr.metrics() == (pytest.approx(0.2), 0.0)

    def test_no_post_fault_samples(self):
        tr = RecoveryTracker(fault_start=10.0)
        tr.sample(5.0, 4.0)
        assert tr.metrics() == (0.0, 0.0)

    def test_fault_at_time_zero_uses_first_sample_as_baseline(self):
        """A fault starting at t=0 leaves no pre-fault samples.  The
        baseline used to collapse to 0.0, so any recovery (health >=
        -tolerance) registered instantly and the dip was clamped to 0.
        The first post-onset sample now anchors the baseline instead."""
        tr = RecoveryTracker(fault_start=0.0)
        for t, h in [(0.5, 1.0), (1.5, 0.2), (2.5, 1.0)]:
            tr.sample(t, h)
        assert tr.baseline == pytest.approx(1.0)
        dip, recover = tr.metrics()
        assert dip == pytest.approx(0.8)
        assert recover == pytest.approx(2.5)

    def test_fault_at_time_zero_no_samples(self):
        tr = RecoveryTracker(fault_start=0.0)
        assert tr.baseline == 0.0
        assert tr.metrics() == (0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="fault_start"):
            RecoveryTracker(fault_start=-1.0)
        with pytest.raises(ValueError, match="tolerance"):
            RecoveryTracker(fault_start=0.0, tolerance=-0.1)

    def test_disjoint_fault_windows_track_the_deepest_dip(self):
        """Two separated faults, the second one worse: the dip is the
        global post-onset floor and recovery is dated from *that* floor,
        not from the first window's shallower dip."""
        tr = RecoveryTracker(fault_start=10.0, tolerance=0.1)
        for t, h in [
            (2.0, 4.0), (6.0, 4.0),        # baseline 4.0
            (12.0, 3.0), (16.0, 4.0),      # window 1: shallow dip, recovers
            (30.0, 1.0), (34.0, 2.0),      # window 2: deeper dip...
            (38.0, 4.0),                   # ...recovered at t=38
        ]:
            tr.sample(t, h)
        dip, recover = tr.metrics()
        assert dip == pytest.approx(3.0)
        # dated from the second window's floor (t=30), not the interim
        # recovery at t=16
        assert recover == pytest.approx(28.0)

    def test_interim_recovery_does_not_mask_a_terminal_dip(self):
        """Health recovers between windows but the run ends inside the
        second window still degraded — time_to_recover must be inf even
        though a within-tolerance sample exists after the onset."""
        tr = RecoveryTracker(fault_start=10.0, tolerance=0.1)
        for t, h in [
            (5.0, 4.0),
            (12.0, 2.5), (16.0, 4.0),      # first dip, full recovery
            (30.0, 0.5), (34.0, 1.0),      # second dip, run ends degraded
        ]:
            tr.sample(t, h)
        dip, recover = tr.metrics()
        assert dip == pytest.approx(3.5)
        assert math.isinf(recover)

    def test_fleet_run_never_recovering_reports_inf(self):
        """End-to-end: a crushing brownout covering the whole tail of
        the run (no live edge to fail over to) leaves no recovered
        sample, so the report carries inf."""
        sessions = fleet(6, seconds=20)
        ends = simulate_fleet(sessions, topology=cdn()).end_times
        horizon = max(ends)
        degr = FaultSchedule(tuple(
            BackhaulDegradation(
                edge=e, start=0.3 * horizon, duration=100 * horizon,
                factor=0.01,
            )
            for e in range(3)
        ))
        rep = simulate_fleet(
            sessions, topology=cdn(), faults=degr
        ).report
        assert rep.qoe_dip_depth > 0
        assert math.isinf(rep.time_to_recover_s)


class TestFleetViewMetricsSource:
    """The controller's FleetView and the metrics registry sample the
    same instants from the same live state."""

    def test_view_and_registry_agree(self):
        from repro.obs import Telemetry

        tel = Telemetry(trace=False, profile=False)
        controller = ControlPlane(ControlPolicy(interval=1.0))
        result = simulate_fleet(
            fleet(8), topology=cdn(), controller=controller, telemetry=tel,
        )
        rep = result.report
        series = tel.metrics.series
        assert rep.control_ticks > 0
        # one sample per control tick, on the tick instants
        assert len(series["fleet.active_sessions"]) == rep.control_ticks
        assert len(series["fleet.buffer_level"]) == rep.control_ticks
        for e in range(3):
            assert len(series[f"edge.load.{e}"]) == rep.control_ticks
        # the registry's per-edge loads partition the active sessions —
        # exactly the FleetView invariant (edge_load sums to live count)
        loads = [series[f"edge.load.{e}"].items() for e in range(3)]
        for i, (t, active) in enumerate(
            series["fleet.active_sessions"].items()
        ):
            assert sum(loads[e][i][1] for e in range(3)) == active
        # the health series feeds the same sampler the recovery tracker
        # and the controller's view read
        assert len(series["fleet.health"]) >= rep.control_ticks - 1


class TestNoOpControllerParity:
    def test_noop_controller_is_bit_exact_modulo_ticks(self):
        sessions = fleet(6)
        topo = cdn()
        base = simulate_fleet(sessions, topology=topo)
        noop = ControlPlane(ControlPolicy(
            interval=2.0, encode_wait_high=math.inf, encode_wait_low=0.0,
            saturation_factor=math.inf,
        ))
        ctrl = simulate_fleet(sessions, topology=topo, controller=noop)
        assert ctrl.report.control_ticks > 0
        assert dataclasses.replace(ctrl.report, control_ticks=0) == base.report
        assert ctrl.sessions == base.sessions
        assert ctrl.end_times == base.end_times


class TestClosedLoopEndToEnd:
    def test_starved_encode_pool_is_grown(self):
        from repro.streaming import FleetSession

        # Distinct content per viewer: nothing coalesces, so one slow
        # encode worker backs up and the controller must grow the pool.
        sessions = [
            FleetSession(
                spec=spec(seconds=20, name=f"vid{i}"),
                controller=FixedDensity(0.4),
                sr_latency=sr_lat(),
                join_time=0.2 * i,
            )
            for i in range(10)
        ]
        topo = cdn(n_encode_workers=1, encode_seconds=0.5)
        plane = ControlPlane(ControlPolicy(interval=1.0))
        rep = simulate_fleet(
            sessions, topology=topo, controller=plane
        ).report
        assert rep.encode_pool_resizes > 0
        assert any("encode pool 1 -> 2" in line for line in plane.log)
        assert rep.control_ticks == plane.ticks

    def test_counters_are_per_run_deltas(self):
        sessions = fleet(4)
        plane = ControlPlane(ControlPolicy(interval=2.0))
        a = simulate_fleet(sessions, topology=cdn(), controller=plane).report
        b = simulate_fleet(sessions, topology=cdn(), controller=plane).report
        assert a.control_ticks == b.control_ticks > 0


class _RecordingTracer:
    def __init__(self):
        self.events = []

    def emit(self, t, kind, **data):
        self.events.append((t, kind, data))


class TestGracefulDegradation:
    """The dark-region levers: quality cap and SR disable, pulled when a
    whole fault domain is dark and released when it returns."""

    def test_cap_validation(self):
        with pytest.raises(ValueError, match="quality_cap_when_dark"):
            ControlPolicy(quality_cap_when_dark=0.0)
        with pytest.raises(ValueError, match="quality_cap_when_dark"):
            ControlPolicy(quality_cap_when_dark=1.5)
        ControlPolicy(quality_cap_when_dark=1.0)

    def test_levers_pull_once_and_release(self):
        plane = ControlPlane(ControlPolicy(
            quality_cap_when_dark=0.5, disable_sr_when_dark=True,
        ))
        on = plane.tick(view(regions_dark=("region-0",)))
        assert on.quality_cap == 0.5
        assert on.sr_enabled is False
        assert bool(on)
        assert plane.degrades == 1
        # Still dark: the state machine holds, no repeated pull.
        again = plane.tick(view(regions_dark=("region-0",)))
        assert again.quality_cap is None and again.sr_enabled is None
        assert plane.degrades == 1
        # Region back: both levers release.
        off = plane.tick(view())
        assert off.quality_cap == math.inf
        assert off.sr_enabled is True
        assert plane.degrades == 2
        assert any("degraded mode ON" in line for line in plane.log)
        assert any("degraded mode OFF" in line for line in plane.log)

    def test_single_lever_configurations(self):
        cap_only = ControlPlane(ControlPolicy(quality_cap_when_dark=0.4))
        on = cap_only.tick(view(regions_dark=("region-1",)))
        assert on.quality_cap == 0.4
        assert on.sr_enabled is None
        sr_only = ControlPlane(ControlPolicy(disable_sr_when_dark=True))
        on = sr_only.tick(view(regions_dark=("region-1",)))
        assert on.quality_cap is None
        assert on.sr_enabled is False

    def test_no_levers_never_acts(self):
        plane = ControlPlane(ControlPolicy())
        actions = plane.tick(view(regions_dark=("region-0",)))
        assert actions.quality_cap is None and actions.sr_enabled is None
        assert plane.degrades == 0

    def test_degrade_flips_are_traced(self):
        from repro.obs.events import EV_CONTROL_DEGRADE

        plane = ControlPlane(ControlPolicy(quality_cap_when_dark=0.5))
        plane.tracer = _RecordingTracer()
        plane.tick(view(regions_dark=("region-0", "region-1")))
        plane.tick(view())
        flips = [
            (kind, data) for _, kind, data in plane.tracer.events
            if kind == EV_CONTROL_DEGRADE
        ]
        assert len(flips) == 2
        assert flips[0][1]["state"] == "on"
        assert flips[0][1]["regions"] == "region-0,region-1"
        assert flips[1][1]["state"] == "off"

    def test_degraded_fleet_caps_quality_and_recovers(self):
        """End to end: a dark region makes the degrade controller cap
        density, so the brownout fleet ships fewer bytes than the same
        outage without the lever — and the cap lifts once the region
        returns (late chunks are full-density again)."""
        from repro.streaming import FaultSchedule, RegionOutage

        sessions = fleet(9)
        topo = lambda: cdn(n_regions=2)  # region-0=(0,1), region-1=(2,)
        # The window must be long enough that sessions make ABR
        # decisions *while* dark (a chunk takes ~10 virtual seconds
        # here), or the cap never touches a decision.
        faults = FaultSchedule((
            RegionOutage(region="region-0", start=3.0, duration=40.0),
        ))
        plain = simulate_fleet(
            fleet(9), topology=topo(), faults=faults,
            assignment=[i % 3 for i in range(9)],
        )
        degraded = simulate_fleet(
            fleet(9), topology=topo(), faults=faults,
            assignment=[i % 3 for i in range(9)],
            controller=ControlPlane(ControlPolicy(
                interval=1.0, encode_wait_high=math.inf,
                encode_wait_low=0.0, saturation_factor=math.inf,
                quality_cap_when_dark=0.2, disable_sr_when_dark=True,
            )),
        )
        # FixedDensity(0.4) decisions clamp to 0.2 while the region is
        # dark, so the degraded run ships strictly fewer bytes.
        assert degraded.report.total_bytes < plain.report.total_bytes
        assert all(r is not None for r in degraded.sessions)
