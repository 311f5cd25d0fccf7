"""Control plane: policies, tick actions, autoscaler, fault damage, parity."""

import dataclasses
import math
from types import SimpleNamespace

import pytest

from repro.experiments import SMOKE, Scenario
from repro.metrics.qoe import ChunkRecord
from repro.obs import Telemetry, fault_damage
from repro.obs.damage import DAMAGE_GRID_S, RECOVERY_TOLERANCE
from repro.obs.events import EV_CONTROL_RESIZE, EV_CONTROL_TICK
from repro.streaming import (
    BackhaulDegradation,
    ControlPlane,
    ControlPolicy,
    FaultSchedule,
    FleetView,
    QoEArrivalAutoscaler,
    RegionOutage,
    simulate_fleet,
    uniform_cdn,
)
from repro.streaming.control import (
    AUTOSCALE_MIN_SCALE,
    AUTOSCALE_TARGET_HEALTH,
    ENCODE_WAIT_HIGH,
    ENCODE_WAIT_LOW,
    MAX_ENCODE_WORKERS,
    MAX_RESTEERS_PER_TICK,
    MIN_ENCODE_WORKERS,
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

    # NaN used to slip through every ``<`` check (a NaN interval failed
    # mid-run).  The error names the field and the value.
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_interval_must_be_finite(self, bad):
        with pytest.raises(ValueError, match=rf"interval.*{bad!r}"):
            ControlPolicy(interval=bad)


class TestControlPlaneTick:
    def test_grows_encode_pool_on_high_wait(self):
        plane = ControlPlane()
        actions = plane.tick(
            view(encode_waits=(1.0, 2.0, 3.0), encode_workers=4)
        )
        assert actions.encode_workers == 8

    def test_shrinks_idle_encode_pool(self):
        plane = ControlPlane()
        actions = plane.tick(
            view(encode_waits=(0.0, 0.0, 0.0), encode_workers=8)
        )
        assert actions.encode_workers == 4

    def test_respects_pool_bounds(self):
        plane = ControlPlane()
        assert plane.tick(
            view(encode_waits=(9.0,), encode_workers=MAX_ENCODE_WORKERS)
        ).encode_workers is None
        assert plane.tick(
            view(encode_waits=(0.0,), encode_workers=MIN_ENCODE_WORKERS)
        ).encode_workers is None
        # a doubling or halving stops at the bound
        assert plane.tick(
            view(encode_waits=(9.0,), encode_workers=MAX_ENCODE_WORKERS - 1)
        ).encode_workers == MAX_ENCODE_WORKERS

    def test_resteers_off_saturated_edge(self):
        plane = ControlPlane()
        actions = plane.tick(view(
            edge_load=(9, 1, 2),
            sessions_by_edge={0: (0, 1, 2, 3, 4, 5, 6, 7, 8), 1: (9,), 2: (10, 11)},
        ))
        assert actions.resteer
        # Lowest session ids move first, to the least-loaded live edge.
        assert actions.resteer[0] == (0, 1)
        # Only the saturated edge's viewers move, within the tick budget.
        assert {sid for sid, _ in actions.resteer} <= set(range(9))
        assert len(actions.resteer) <= MAX_RESTEERS_PER_TICK

    def test_never_steers_to_a_dark_edge(self):
        # The dark edge is the emptiest, so a rule that forgot it was dark
        # would pick it first.
        plane = ControlPlane()
        actions = plane.tick(view(
            edge_load=(12, 0, 1, 1),
            edge_down=(False, True, False, False),
            sessions_by_edge={0: tuple(range(12)), 2: (12,), 3: (13,)},
        ))
        assert actions.resteer
        assert all(target in (2, 3) for _, target in actions.resteer)

    def test_resteer_budget(self):
        # 40 vs a live mean of 14: twelve moves would bring edge 0 down
        # to 2 x the mean, the budget allows fewer.
        plane = ControlPlane()
        actions = plane.tick(view(
            edge_load=(40, 1, 1),
            sessions_by_edge={0: tuple(range(40)), 1: (40,), 2: (41,)},
        ))
        assert len(actions.resteer) == MAX_RESTEERS_PER_TICK < 12

    def test_no_lever_acts_between_the_thresholds(self):
        """Waits between the shrink and grow thresholds, balanced edges
        and no dark region: the tick returns no action."""
        plane = ControlPlane(ControlPolicy())
        actions = plane.tick(view(
            edge_load=(5, 4, 5),
            sessions_by_edge={0: tuple(range(5)), 1: tuple(range(5, 9)),
                              2: tuple(range(9, 14))},
            encode_waits=(0.05, 0.1, 0.2),
            encode_workers=4,
        ))
        assert not actions

    @pytest.mark.parametrize(
        "threshold, resized",
        [(ENCODE_WAIT_HIGH, 8), (ENCODE_WAIT_LOW, 2)],
        ids=["grow", "shrink"],
    )
    def test_a_p95_wait_at_a_threshold_resizes_nothing(self, threshold, resized):
        """Both thresholds are strict: a p95 wait exactly at one leaves
        the pool alone, and a hair past it moves the pool."""
        plane = ControlPlane()
        at = plane.tick(view(encode_waits=(threshold,) * 3, encode_workers=4))
        assert at.encode_workers is None
        past = threshold * (1.01 if resized > 4 else 0.99)
        moved = plane.tick(view(encode_waits=(past,) * 3, encode_workers=4))
        assert moved.encode_workers == resized

    def test_small_fleet_saturation_matches_docstring(self):
        """The docstring promises "load exceeds factor x mean (and >= 2)".
        An absolute ``max(..., 2.0)`` floor used to creep in instead,
        silently disabling re-steering for small fleets: load 2 vs mean
        2/3 exceeds 2 x mean and meets the >= 2 guard, so it must act."""
        plane = ControlPlane()
        actions = plane.tick(view(
            edge_load=(2, 0, 0),
            sessions_by_edge={0: (0, 1)},
        ))
        assert actions.resteer == [(0, 1)]

    def test_single_session_edge_is_never_saturated(self):
        """The >= 2 guard: one viewer on an otherwise idle fleet is not a
        hotspot, no matter how aggressive the factor."""
        plane = ControlPlane()
        actions = plane.tick(view(
            edge_load=(1, 0, 0),
            sessions_by_edge={0: (0,)},
        ))
        assert not actions.resteer


class TestQoEArrivalAutoscaler:
    def test_unhealthy_day_scales_next_day_down(self):
        auto = QoEArrivalAutoscaler(day_seconds=100.0)
        for t in range(0, 100, 10):
            auto.observe(float(t), -2.0)
        auto.finish()
        assert auto(0) == 1.0
        assert auto(1) == pytest.approx(0.75)
        auto.finish()  # day 0 was consumed: a second close plans nothing
        assert auto(1) == pytest.approx(0.75)

    def test_healthy_day_relaxes_back_capped_at_max(self):
        auto = QoEArrivalAutoscaler(day_seconds=100.0)
        auto.observe(50.0, 3.0)
        auto.finish()
        assert auto(1) == 1.0  # capped at max_scale

    def test_a_healthy_day_relaxes_by_the_step(self):
        auto = QoEArrivalAutoscaler(day_seconds=10.0)
        auto.observe(5.0, -1.0)   # day 0 unhealthy: day 1 at 0.75
        auto.observe(15.0, 2.0)   # day 1 healthy: day 2 at 0.75 x 1.25
        auto.finish()
        assert auto(2) == pytest.approx(0.9375)

    def test_a_day_at_the_target_health_counts_as_healthy(self):
        auto = QoEArrivalAutoscaler(day_seconds=10.0)
        auto.observe(5.0, AUTOSCALE_TARGET_HEALTH - 0.01)  # day 1 at 0.75
        auto.observe(15.0, AUTOSCALE_TARGET_HEALTH)  # relaxes, not cut
        auto.finish()
        assert auto(1) == pytest.approx(0.75)
        assert auto(2) == pytest.approx(0.9375)

    def test_rolling_days_plan_while_running(self):
        auto = QoEArrivalAutoscaler(day_seconds=10.0)
        auto.observe(5.0, -1.0)
        assert auto(1) == 1.0  # day 0 still open
        auto.observe(15.0, 2.0)  # first day-1 sample closes day 0
        assert auto(1) == pytest.approx(0.75)
        auto.finish()  # day 1 holds the healthy sample: day 2 relaxes
        assert auto(2) == pytest.approx(0.9375)

    def test_floor(self):
        # Terrible days keep shrinking the next day's load but never
        # below the floor: 1 -> 0.75 -> ... -> 0.3164 -> floor.
        auto = QoEArrivalAutoscaler(day_seconds=10.0)
        for day in range(5):
            auto.observe(10.0 * day + 5.0, -9.0)
        auto.finish()
        assert [auto(d) for d in range(1, 5)] == pytest.approx(
            [0.75, 0.5625, 0.421875, 0.31640625]
        )
        assert auto(5) == AUTOSCALE_MIN_SCALE > 0.31640625 * 0.75

    def test_validation(self):
        with pytest.raises(ValueError, match="day_seconds"):
            QoEArrivalAutoscaler(day_seconds=0.0)


def run_of(*sessions):
    """A fleet result whose session ``i`` lands one stall-free chunk of
    health ``h`` mid-cell in cell ``k`` for each ``(k, h)`` of
    ``sessions[i]`` (a chunk that does not stall scores its quality)."""
    return SimpleNamespace(sessions=[
        SimpleNamespace(
            records=[ChunkRecord(quality=h) for _, h in cells],
            landed=[(k + 0.5) * DAMAGE_GRID_S for k, _ in cells],
        )
        for cells in sessions
    ])


def healths(*values):
    """One session, cell ``k`` at health ``values[k]``."""
    return run_of(list(enumerate(values)))


class TestFaultDamage:
    """The recovery rule over the per-cell gap, twin minus faulted: the
    dip is the deepest cell, recovery is dated at the end of the first
    cell at or after it back within ``RECOVERY_TOLERANCE``."""

    G = DAMAGE_GRID_S

    def test_dip_and_recovery(self):
        twin = healths(*[4.0] * 6)
        hit = healths(4.0, 4.0, 1.0, 2.0, 3.95, 4.0)
        dip, recover = fault_damage(hit, twin, 2 * self.G, [0])
        assert dip == pytest.approx(3.0)
        # back within tolerance in cell 4, which ends 3 cells after onset
        assert recover == pytest.approx(3 * self.G)

    def test_recovery_is_dated_at_the_edge_of_the_tolerance_band(self):
        """The gap need only close to within ``RECOVERY_TOLERANCE``; a
        cell just outside that band is not yet recovered."""
        edge = 1.0 - RECOVERY_TOLERANCE
        twin = healths(*[1.0] * 5)
        hit = healths(1.0, 0.2, edge - 0.01, edge, 1.0)
        dip, recover = fault_damage(hit, twin, self.G, [0])
        assert dip == pytest.approx(0.8)
        assert recover == pytest.approx(3 * self.G)  # the end of cell 3

    def test_never_recovers_is_inf(self):
        twin = healths(4.0, 4.0, 4.0)
        hit = healths(4.0, 1.0, 1.5)
        dip, recover = fault_damage(hit, twin, self.G, [0])
        assert dip == pytest.approx(3.0)
        assert math.isinf(recover)

    def test_no_dip_is_zero(self):
        twin = healths(4.0, 4.0, 4.0)
        hit = healths(4.0, 3.95, 4.0)
        assert fault_damage(hit, twin, self.G, [0]) == (
            pytest.approx(0.05), 0.0
        )

    def test_no_post_fault_cells(self):
        twin, hit = healths(4.0), healths(1.0)
        assert fault_damage(hit, twin, self.G, [0]) == (0.0, 0.0)

    @pytest.mark.parametrize("onset", [-1.0, math.nan, math.inf])
    def test_validation(self, onset):
        run = healths(1.0)
        with pytest.raises(ValueError, match="onset"):
            fault_damage(run, run, onset, [0])

    def test_disjoint_fault_windows_track_the_deepest_dip(self):
        """Two separated faults, the second one worse: the dip is the
        deepest post-onset gap and recovery is dated from *that* cell,
        not from the first window's shallower dip."""
        twin = healths(*[4.0] * 9)
        hit = healths(
            4.0, 4.0,            # before onset
            3.0, 4.0,            # window 1: shallow dip, recovers
            4.0, 4.0,
            1.0, 2.0,            # window 2: deeper dip...
            4.0,                 # ...recovered in cell 8
        )
        dip, recover = fault_damage(hit, twin, 2 * self.G, [0])
        assert dip == pytest.approx(3.0)
        # dated from the second window's floor, not the interim recovery
        assert recover == pytest.approx(7 * self.G)

    def test_interim_recovery_does_not_mask_a_terminal_dip(self):
        """The gap closes between windows but the run ends inside the
        second window still degraded — time to recover is inf even though
        a within-tolerance cell exists after the onset."""
        twin = healths(*[4.0] * 6)
        hit = healths(4.0, 1.5, 4.0, 4.0, 0.5, 1.0)
        dip, recover = fault_damage(hit, twin, self.G, [0])
        assert dip == pytest.approx(3.5)
        assert math.isinf(recover)

    def test_a_run_against_itself_reads_no_damage(self):
        run = healths(4.0, 1.0, 2.0, -3.0)
        assert fault_damage(run, run, 0.0, [0]) == (0.0, 0.0)

    def test_cells_before_the_onset_cell_are_not_compared(self):
        twin = healths(4.0, 4.0, 4.0)
        hit = healths(0.0, 4.0, 4.0)
        assert fault_damage(hit, twin, self.G, [0]) == (0.0, 0.0)
        # the cell holding the onset is compared whole; cell 1 closes
        # the gap, 1.5 cells after the onset
        assert fault_damage(hit, twin, 0.5 * self.G, [0]) == (4.0, 1.5 * self.G)

    def test_cells_only_one_run_lands_in_are_not_compared(self):
        """A cell the twin lands nothing in (the faulted run draining past
        the twin's end) has nothing to be measured against."""
        twin = healths(4.0, 4.0)
        hit = healths(4.0, 4.0, -10.0, -10.0)
        assert fault_damage(hit, twin, self.G, [0]) == (0.0, 0.0)

    def test_health_is_pooled_over_the_folded_sessions(self):
        """Cell health is the mean over every folded session's chunks;
        only the given ids fold, and an id the twin lacks (a flash crowd's
        viewer) folds from the faulted run alone."""
        twin = run_of([(1, 4.0)], [(1, 4.0)])
        hit = run_of([(1, 3.0)], [(1, 1.0)], [(1, -10.0)])
        assert fault_damage(hit, twin, 0.0, [0, 1]) == (2.0, math.inf)
        assert fault_damage(hit, twin, 0.0, [0]) == (1.0, math.inf)
        assert fault_damage(hit, twin, 0.0, [0, 1, 2]) == (6.0, math.inf)

    def test_a_stall_weighs_on_health(self):
        twin = healths(1.0, 1.0)
        hit = healths(1.0, 1.0)
        hit.sessions[0].records[1] = ChunkRecord(quality=1.0, stall=0.5)
        # 1.0 - 2 x 0.5: the stall weight is the default QoE gamma
        assert fault_damage(hit, twin, 0.0, [0]) == (1.0, math.inf)

    def test_fleet_run_never_recovering_reports_inf(self):
        """End-to-end: a crushing brownout covering the whole tail of
        the run (no live edge to fail over to) never closes the gap to
        the fault-free twin, so recovery reads inf."""
        sessions = fleet(6, seconds=20)
        twin = simulate_fleet(sessions, topology=cdn())
        horizon = max(twin.end_times)
        degr = FaultSchedule(tuple(
            BackhaulDegradation(
                edge=e, start=0.3 * horizon, duration=100 * horizon,
                factor=0.01,
            )
            for e in range(3)
        ))
        hit = simulate_fleet(sessions, topology=cdn(), faults=degr)
        dip, recover = fault_damage(
            hit, twin, 0.3 * horizon, range(len(sessions))
        )
        assert dip > 0
        assert math.isinf(recover)


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
        # the health series is the sampler the controller's view reads
        assert len(series["fleet.health"]) >= rep.control_ticks - 1


class TestNoOpControllerParity:
    def test_noop_controller_is_bit_exact_modulo_ticks(self):
        """A plane at the constants on a fleet where no lever can act —
        one encode worker (the pool's floor, and its waits stay under the
        grow threshold), edges balanced by the assignment — must not
        perturb the run: ticking only observes."""
        sessions = fleet(6)
        topo = cdn(n_encode_workers=1)
        base = simulate_fleet(sessions, topology=topo)
        noop = ControlPlane(ControlPolicy(interval=2.0))
        ctrl = simulate_fleet(sessions, topology=topo, controller=noop)
        assert ctrl.report.control_ticks > 0
        assert ctrl.report.encode_pool_resizes == 0
        assert ctrl.report.sessions_resteered == 0
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
        telemetry = Telemetry(trace=True, metrics=False)
        rep = simulate_fleet(
            sessions, topology=topo, controller=plane, telemetry=telemetry
        ).report
        events = telemetry.tracer.events
        resizes = [e.data for e in events if e.kind == EV_CONTROL_RESIZE]
        assert rep.encode_pool_resizes == len(resizes) > 0
        assert resizes[0] == {"workers_from": 1, "workers_to": 2}
        assert rep.control_ticks == sum(
            e.kind == EV_CONTROL_TICK for e in events
        )

    def test_counters_are_per_run_deltas(self):
        sessions = fleet(4)
        plane = ControlPlane(ControlPolicy(interval=2.0))
        a = simulate_fleet(sessions, topology=cdn(), controller=plane).report
        b = simulate_fleet(sessions, topology=cdn(), controller=plane).report
        assert a.control_ticks == b.control_ticks > 0


#: the dark-region scenario of :class:`TestAReusedPlane`
_DARK_POLICY = ControlPolicy(
    interval=5.0, quality_cap_when_dark=0.5, disable_sr_when_dark=True,
)
_WINDOW = float(SMOKE.stream_seconds)


def _dark_region_run(plane, start, duration=100 * _WINDOW):
    """24 viewers on a 2-region CDN whose region-0 goes dark at ``start``;
    the report and the run's ``control.*`` events."""
    telemetry = Telemetry(trace=True, metrics=False)
    row = Scenario(24, assignment="least-loaded", regions=2)
    result = simulate_fleet(
        row.population(SMOKE),
        topology=row.topology(SMOKE),
        faults=FaultSchedule((RegionOutage("region-0", start, duration),)),
        controller=plane,
        telemetry=telemetry,
    )
    control = [
        (e.t, e.kind, e.data) for e in telemetry.tracer.events
        if e.kind.startswith("control.")
    ]
    return result.report, control


class TestAReusedPlane:
    """A plane keeps no record of a run, so a run it served before
    cannot change the next one."""

    # At 0.0 the first run ends degraded and a plane that remembered it
    # never degraded again (mean_quality 0.8047, not 0.2544); at half a
    # window the remembered state released levers nobody had pulled.
    @pytest.mark.parametrize("start_fraction", [0.0, 0.5])
    def test_second_run_equals_a_fresh_planes(self, start_fraction):
        start = start_fraction * _WINDOW
        plane = ControlPlane(_DARK_POLICY)
        first = _dark_region_run(plane, start)
        second = _dark_region_run(plane, start)
        fresh = _dark_region_run(ControlPlane(_DARK_POLICY), start)
        assert second == fresh
        assert first == fresh
        degrades = [d for _, kind, d in fresh[1] if kind == "control.degrade"]
        assert [d["state"] for d in degrades] == ["on"]

    def test_the_fleet_shows_the_plane_its_lever_state(self):
        """``FleetView.degraded`` is off until the pull, on while the
        region stays dark, and off again after the release."""
        plane = ControlPlane(_DARK_POLICY)
        seen = []
        tick = plane.tick

        def recording(view, tracer):
            actions = tick(view, tracer)
            seen.append((bool(view.regions_dark), view.degraded, actions))
            return actions

        plane.tick = recording
        _dark_region_run(plane, 0.3 * _WINDOW, duration=0.2 * _WINDOW)
        states = [(dark, degraded) for dark, degraded, _ in seen]
        pull = states.index((True, False))
        release = states.index((False, True))
        assert pull < release
        assert seen[pull][2].quality_cap == 0.5
        assert seen[release][2].quality_cap == math.inf
        assert set(states[:pull]) == {(False, False)}
        assert set(states[pull + 1:release]) == {(True, True)}
        assert set(states[release + 1:]) == {(False, False)}


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

    def test_pulls_when_dark_and_not_degraded(self):
        plane = ControlPlane(ControlPolicy(
            quality_cap_when_dark=0.5, disable_sr_when_dark=True,
        ))
        on = plane.tick(view(regions_dark=("region-0",), degraded=False))
        assert on.quality_cap == 0.5
        assert on.sr_enabled is False
        assert bool(on)

    def test_holds_when_dark_and_already_degraded(self):
        """The run's lever state, not the plane's memory, says the levers
        are pulled: no repeated pull."""
        plane = ControlPlane(ControlPolicy(
            quality_cap_when_dark=0.5, disable_sr_when_dark=True,
        ))
        again = plane.tick(view(regions_dark=("region-0",), degraded=True))
        assert again.quality_cap is None and again.sr_enabled is None
        assert not again

    def test_releases_when_the_region_is_back(self):
        plane = ControlPlane(ControlPolicy(
            quality_cap_when_dark=0.5, disable_sr_when_dark=True,
        ))
        off = plane.tick(view(degraded=True))
        assert off.quality_cap == math.inf
        assert off.sr_enabled is True

    def test_nothing_to_release_on_a_healthy_run(self):
        """A run that never degraded sees no release, whatever the plane
        did in an earlier run."""
        plane = ControlPlane(ControlPolicy(
            quality_cap_when_dark=0.5, disable_sr_when_dark=True,
        ))
        plane.tick(view(regions_dark=("region-0",)))
        calm = plane.tick(view(degraded=False))
        assert calm.quality_cap is None and calm.sr_enabled is None

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
        for degraded in (False, True):
            actions = plane.tick(
                view(regions_dark=("region-0",), degraded=degraded)
            )
            assert actions.quality_cap is None and actions.sr_enabled is None

    def test_degrade_flips_are_traced(self):
        from repro.obs.events import EV_CONTROL_DEGRADE

        plane = ControlPlane(ControlPolicy(quality_cap_when_dark=0.5))
        tracer = _RecordingTracer()
        plane.tick(view(regions_dark=("region-0", "region-1")), tracer)
        plane.tick(view(degraded=True), tracer)
        flips = [
            (kind, data) for _, kind, data in tracer.events
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
                interval=1.0, quality_cap_when_dark=0.2,
                disable_sr_when_dark=True,
            )),
        )
        # FixedDensity(0.4) decisions clamp to 0.2 while the region is
        # dark, so the degraded run ships strictly fewer bytes.
        assert degraded.report.total_bytes < plain.report.total_bytes
        assert all(r is not None for r in degraded.sessions)
