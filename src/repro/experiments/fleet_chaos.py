"""Closed-loop control plane under fault injection — chaos scenarios.

The fleet-cdn experiment measures a healthy CDN; operations are about
the unhealthy days.  This experiment runs the same Zipf-skewed VoLUT
population through :func:`~repro.streaming.fleet.simulate_fleet` with
first-class fault events (:mod:`repro.streaming.faults`) and the
closed-loop control plane (:mod:`repro.streaming.control`), and reports
the recovery story an SRE reads after an incident:

* ``resteer`` — sessions moved to another edge (outage failover, retry
  hedging, plus the controller's saturation re-steering);
* ``dip`` / ``recover_s`` — QoE-per-chunk drop against the fault-free
  twin (the same run with ``faults=None``) and the virtual seconds until
  health is back within tolerance of it (``inf`` renders when the run
  never recovers in-window), read by :func:`~repro.obs.damage.fault_damage`;
* ``retries`` / ``timeouts`` — client-resilience attempts re-issued and
  attempts a :class:`~repro.streaming.faults.RetryPolicy` virtual-time
  timeout cancelled;
* ``resizes`` — encode-pool scaling actions (the slow-encode row starves
  the pool so the controller must grow it);
* the ``qoe-autoscale`` row closes the arrival loop: a degraded day-1
  run feeds a :class:`~repro.streaming.control.QoEArrivalAutoscaler`,
  whose learned scale then thins day-2 arrivals through the existing
  ``DiurnalArrivals.autoscale`` hook.

The ``region-outage`` scenario groups the edges into two fault domains,
generates a correlated failure with
:class:`~repro.streaming.faults.CorrelatedFaultGenerator`, attaches a
retry policy, and notes each region's dip/recovery, folding its
audience by home edge; ``gray-edge``
browns one edge out (half capacity, a tenth of requests dropped)
without ever taking it dark — the failure mode a liveness probe misses.

Every scenario is paired with the controller off/on where the contrast
is interesting; fault-free controller-on runs are bit-exact with the
plain simulator on everything but the tick counter (the parity test in
``tests/streaming/test_control.py`` enforces it).
"""

from __future__ import annotations

from ..obs import Telemetry
from ..obs.damage import fault_damage
from ..obs.events import ops_from_events
from ..obs.export import write_trace
from ..streaming.control import ControlPlane, ControlPolicy, QoEArrivalAutoscaler
from ..streaming.faults import (
    BackhaulDegradation,
    CorrelatedFaultGenerator,
    EdgeOutage,
    FaultSchedule,
    FlashCrowd,
    GrayFailure,
    RetryPolicy,
)
from ..streaming.fleet import simulate_fleet
from ..streaming.population import DiurnalArrivals
from .common import SMOKE, ResultTable, Scale
from .fleet_cdn import make_cdn
from .workloads import make_population

__all__ = ["run_fleet_chaos"]


def check_conservation(tracer, rep) -> None:
    """The chaos conservation law: report counters == event-stream fold."""
    fold = ops_from_events(tracer)
    actual = {
        "sessions_resteered": rep.sessions_resteered,
        "faults_injected": rep.faults_injected,
        "control_ticks": rep.control_ticks,
        "encode_pool_resizes": rep.encode_pool_resizes,
        "requests_timed_out": rep.requests_timed_out,
    }
    if fold != actual:
        raise RuntimeError(
            f"trace/report conservation violated: fold={fold} "
            f"report={actual}"
        )


def run_fleet_chaos(
    scale: Scale = SMOKE,
    n_sessions: int = 200,
    skew: float = 1.2,
    n_edges: int = 4,
    mbps_per_session: float = 6.0,
    control_interval: float = 5.0,
    trace_out: str | None = None,
    abr: str = "continuous-mpc",
    regional: bool = False,
) -> ResultTable:
    """Fault scenarios with the control plane off vs on.

    ``trace_out`` re-runs the edge-outage controller-on scenario with a
    :class:`~repro.obs.Telemetry` tracer, verifies the conservation law
    (the report's ops counters must equal the
    :func:`~repro.obs.events.ops_from_events` fold over the stream), and
    writes the events as Chrome trace-event JSON (Perfetto-loadable;
    a ``.jsonl`` suffix switches to the JSONL event log).

    ``regional`` restricts the run to the correlated region-outage
    scenario (plus its fault-free baseline) — the nightly regional smoke:
    with ``trace_out`` the traced run is the regional one, conservation
    law included.
    """
    window = float(scale.stream_seconds)
    table = ResultTable(
        title="Chaos: faults and the closed-loop control plane",
        columns=[
            "scenario",
            "ctrl",
            "resteer",
            "ticks",
            "resizes",
            "dip",
            "recover_s",
            "retries",
            "timeouts",
            "enc_p95_s",
            "mean_qoe",
            "stall_ratio",
        ],
        notes=(
            f"{n_sessions} viewers, Zipf skew {skew:g}, {n_edges} edges, "
            f"{mbps_per_session:g} Mbps/viewer, control interval "
            f"{control_interval:g}s; outage kills edge 0 for a quarter of "
            "the window, dip/recover_s are QoE-per-chunk depth against the "
            "fault-free twin and virtual seconds back to tolerance."
        ),
    )
    sessions = make_population(scale, n_sessions, skew=skew, abr=abr)

    def row(scenario: str, ctrl: str, rep, dmg=(0.0, 0.0)) -> None:
        dip, recover = dmg
        table.add(
            scenario=scenario,
            ctrl=ctrl,
            resteer=rep.sessions_resteered,
            ticks=rep.control_ticks,
            resizes=rep.encode_pool_resizes,
            dip=round(dip, 2),
            recover_s=round(recover, 1),
            retries=rep.chunk_retries,
            timeouts=rep.requests_timed_out,
            enc_p95_s=round(rep.encode_wait_p95, 3),
            mean_qoe=round(rep.mean_qoe, 2),
            stall_ratio=round(rep.stall_ratio, 4),
        )

    # fault-free runs by configuration: each is the twin of every faulted
    # run of its configuration, and a baseline row's run is reused as one
    fault_free: dict[tuple, object] = {}

    def run(fleet, *, assignment="least-loaded", faults=None, ctrl=False,
            n_encode_workers=8, encode_seconds=0.05, telemetry=None,
            retry=None, n_regions=None, degrade=False, autoscaler=None):
        key = (id(fleet), assignment, ctrl, n_encode_workers, encode_seconds,
               retry, n_regions, degrade, autoscaler)
        if faults is None and key in fault_free:
            return fault_free[key]
        # provisioned for the configured audience, not the fleet at hand:
        # a flash crowd must arrive at the CDN its twin runs on
        topo = make_cdn(
            scale, n_sessions, n_edges=n_edges,
            mbps_per_session=mbps_per_session, assignment=assignment,
            n_encode_workers=n_encode_workers, encode_seconds=encode_seconds,
            n_regions=n_regions,
        )
        result = simulate_fleet(
            fleet, topology=topo,
            sr_cache="shared",
            faults=faults,
            retry_policy=retry,
            controller=(
                ControlPlane(ControlPolicy(
                    interval=control_interval,
                    quality_cap_when_dark=0.5 if degrade else None,
                    disable_sr_when_dark=degrade,
                ), autoscaler=autoscaler)
                if ctrl
                else None
            ),
            telemetry=telemetry,
        )
        if faults is None:
            fault_free[key] = result
        return result

    def damage(result, twin, faults, ids):
        """``(dip, recover_s)`` of sessions ``ids`` against the twin."""
        onset = min(ev.start for ev in faults.events)
        return fault_damage(result, twin, onset, ids)

    def faulted(fleet, faults, *, twin_fleet=None, **kw):
        """The faulted run, its twin (the same call with ``faults=None``,
        over ``twin_fleet`` when given) and the damage between them.  The
        observers (a tracer, an autoscaler) watch the faulted run only;
        they do not change the run they watch."""
        result = run(fleet, faults=faults, **kw)
        kw.pop("telemetry", None)
        kw.pop("autoscaler", None)
        twin = run(fleet if twin_fleet is None else twin_fleet, **kw)
        return result, twin, damage(
            result, twin, faults, range(len(result.sessions))
        )

    def regional_rows() -> None:
        # Correlated regional failure: the edges split into two fault
        # domains, region-0 fails outright and the generator decides —
        # seeded, deterministically — whether the failure cascades into
        # region-1 after a propagation delay.  Clients fight back with a
        # finite timeout and capped backoff; the controller's graceful-
        # degradation levers (quality cap, SR off) engage while a whole
        # region is dark.
        gen = CorrelatedFaultGenerator(
            seed=7, cascade_probability=0.4, cascade_delay_s=5.0
        )
        schedule = gen.generate(
            ["region-0", "region-1"], origin="region-0",
            start=0.4 * window, duration=0.2 * window,
        )
        retry = RetryPolicy(
            timeout_s=8.0, backoff_base_s=0.25, backoff_cap_s=2.0,
            max_attempts=4,
        )
        for ctrl in ("off", "on"):
            telemetry = Telemetry(metrics=False, profile=False) if (
                regional and trace_out and ctrl == "on"
            ) else None
            result, twin, dmg = faulted(
                sessions, schedule, ctrl=ctrl == "on",
                retry=retry, n_regions=2, degrade=True,
                telemetry=telemetry,
            )
            rep = result.report
            if rep.sessions_resteered == 0:
                raise RuntimeError(
                    "region-outage scenario re-steered no sessions — "
                    "regional failover is broken"
                )
            row("region-outage", ctrl, rep, dmg)
            if ctrl == "on":
                # each region's audience: the sessions its edges host at
                # the start, wherever failover sends them afterwards
                topo = result.topology
                home = topo.assign(result.session_specs)
                per_region = []
                for name in sorted(topo.regions):
                    members = topo.regions[name]
                    ids = [s for s, e in enumerate(home) if e in members]
                    dip, rec = damage(result, twin, schedule, ids)
                    per_region.append(
                        f"{name}: dip {dip:.2f} recover {rec:.1f}s"
                    )
                table.notes += (
                    f" region-outage/on recovery: {', '.join(per_region)}."
                )
            if telemetry is not None:
                check_conservation(telemetry.tracer, rep)
                n = write_trace(telemetry.tracer, trace_out)
                table.notes += (
                    f" region-outage/on trace: {n} events -> {trace_out}."
                )

    if regional:
        # Nightly regional smoke: baseline + the correlated regional
        # scenario only (the full matrix runs in the default mode).
        row("baseline", "off", run(sessions).report)
        regional_rows()
        return table

    # (a) fault-free reference, controller off then on — the default
    # policy still acts on a healthy fleet (shrinks the idle encode pool,
    # trims hot-spot edges), so the pair shows the controller's footprint
    # without faults.
    row("baseline", "off", run(sessions).report)
    row("baseline", "on", run(sessions, ctrl=True).report)

    # (b) edge outage mid-run: failover re-steering with and without the
    # control plane rebalancing afterwards.
    outage = FaultSchedule(
        (EdgeOutage(edge=0, start=0.4 * window, duration=0.25 * window),)
    )
    for ctrl in ("off", "on"):
        telemetry = Telemetry(metrics=False, profile=False) if (
            trace_out and ctrl == "on"
        ) else None
        result, _, dmg = faulted(
            sessions, outage, ctrl=ctrl == "on", telemetry=telemetry
        )
        rep = result.report
        if rep.sessions_resteered == 0:
            # The nightly smoke runs this experiment for exactly this
            # guarantee: a dead edge's viewers must fail over.
            raise RuntimeError(
                "edge-outage scenario re-steered no sessions — failover "
                "is broken"
            )
        row("edge-outage", ctrl, rep, dmg)
        if telemetry is not None:
            check_conservation(telemetry.tracer, rep)
            n = write_trace(telemetry.tracer, trace_out)
            table.notes += (
                f" edge-outage/on trace: {n} events -> {trace_out}."
            )

    # (b') correlated regional failure with client retries.
    regional_rows()

    # (b'') gray failure: edge 0 at half capacity dropping 10% of its
    # requests for a quarter of the window — never dark, so no failover;
    # the retry layer absorbs the drops.
    gray = FaultSchedule(
        (GrayFailure(
            edge=0, start=0.4 * window, duration=0.25 * window,
            capacity_factor=0.5, drop_fraction=0.1, drop_delay_s=1.0,
        ),)
    )
    result, _, dmg = faulted(
        sessions, gray, ctrl=True,
        retry=RetryPolicy(timeout_s=10.0, backoff_base_s=0.25),
    )
    rep = result.report
    row("gray-edge", "on", rep, dmg)
    if rep.gray_degraded_bytes:
        table.notes += (
            f" gray-edge served {rep.gray_degraded_bytes >> 20} MiB "
            "through the brownout"
        )
        if rep.retry_attempts:
            hist = "/".join(str(c) for c in rep.retry_attempts)
            table.notes += f"; retry-attempt histogram {hist}"
        table.notes += "."

    # (c) backhaul brownout: edge 0 at 20% capacity for a third of the window.
    degr = FaultSchedule(
        (BackhaulDegradation(
            edge=0, start=0.3 * window, duration=window / 3.0, factor=0.2,
        ),)
    )
    result, _, dmg = faulted(sessions, degr, ctrl=True)
    row("backhaul-degr", "on", result.report, dmg)

    # (c') the same brownout with an impatient client: a tight virtual-time
    # timeout cancels stalled downloads and hedges the re-issue to the
    # least-loaded live edge, so the timeouts column is exercised too.
    result, _, dmg = faulted(
        sessions, degr, ctrl=True,
        retry=RetryPolicy(
            timeout_s=1.5, backoff_base_s=0.25, backoff_cap_s=1.0,
            max_attempts=3, hedge=True,
        ),
    )
    rep = result.report
    row("retry-timeout", "on", rep, dmg)
    if rep.requests_timed_out == 0:
        raise RuntimeError(
            "retry-timeout scenario cancelled no requests — the "
            "virtual-time timeout path is broken"
        )

    # (d) flash crowd: +25% viewers piling onto one video over a 5s ramp;
    # its twin is the population without the crowd.
    crowd = FaultSchedule(
        (FlashCrowd(
            spec=sessions[0].spec, start=0.3 * window,
            n_viewers=max(1, len(sessions) // 4), ramp_seconds=5.0,
        ),)
    )
    result, _, dmg = faulted(
        crowd.expand_population(sessions), crowd, twin_fleet=sessions,
        ctrl=True,
    )
    row("flash-crowd", "on", result.report, dmg)

    # (e) starved encode pool (one worker, 10x slower transcode): the
    # controller has to grow the pool on encode-wait p95.  No fault, so
    # no damage.
    row(
        "slow-encode", "on",
        run(
            sessions, ctrl=True, n_encode_workers=1, encode_seconds=0.5
        ).report,
    )

    # (f) close the arrival loop: a brownout day feeds the QoE autoscaler,
    # whose learned scale thins the next day's arrivals through the
    # DiurnalArrivals.autoscale hook.
    autoscaler = QoEArrivalAutoscaler(day_seconds=window)
    day1 = make_population(scale, n_sessions, skew=skew, diurnal=True, abr=abr)
    result, _, dmg = faulted(day1, degr, ctrl=True, autoscaler=autoscaler)
    rate = 1.2 * n_sessions / window
    scaled = DiurnalArrivals(
        mean_rate_hz=rate, day_seconds=window, days=2.0,
        autoscale=autoscaler,
    ).times()
    day2 = int((scaled >= window).sum())
    row(f"qoe-autoscale d2x{autoscaler(1):.2f} n{day2}", "on",
        result.report, dmg)
    return table
