"""Closed-loop control plane under fault injection — chaos scenarios.

The fleet-cdn experiment measures a healthy CDN; operations are about
the unhealthy days.  This experiment runs the same Zipf-skewed VoLUT
population with first-class fault events (:mod:`repro.streaming.faults`)
and the closed-loop control plane (:mod:`repro.streaming.control`), and
reports the recovery story an SRE reads after an incident:

* ``resteer`` — sessions moved to another edge (outage failover, retry
  hedging, plus the controller's saturation re-steering);
* ``dip`` / ``recover_s`` — QoE-per-chunk drop against the fault-free
  twin (the same row with ``faults=None``) and the virtual seconds until
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
audience by home edge; ``gray-edge`` browns one edge out (half
capacity, a tenth of requests dropped) without ever taking it dark — the
failure mode a liveness probe misses.

Every scenario is paired with the controller off/on where the contrast
is interesting; fault-free controller-on runs are bit-exact with the
plain simulator on everything but the tick counter (the parity test in
``tests/streaming/test_control.py`` enforces it).
"""

from __future__ import annotations

from dataclasses import replace

from ..obs import Telemetry
from ..obs.damage import fault_damage
from ..obs.export import write_trace
from ..streaming.control import ControlPolicy
from ..streaming.faults import (
    BackhaulDegradation,
    CorrelatedFaultGenerator,
    EdgeOutage,
    FaultSchedule,
    FlashCrowd,
    GrayFailure,
    RetryPolicy,
)
from ..streaming.population import DiurnalArrivals
from .common import SMOKE, ResultTable, Scale
from .scenario import (
    ARRIVAL_PADDING,
    STARVED_ENCODE_POOL,
    Scenario,
    ScenarioReport,
    add_row,
    run_scenario,
)

__all__ = ["run_fleet_chaos", "chaos_rows"]

COLUMNS = [
    "scenario", "ctrl", "resteer", "ticks", "resizes", "dip", "recover_s",
    "retries", "timeouts", "enc_p95_s", "mean_qoe", "stall_ratio",
]

#: the regional row's clients: a finite timeout and capped backoff
REGIONAL_RETRY = RetryPolicy(
    timeout_s=8.0, backoff_base_s=0.25, backoff_cap_s=2.0, max_attempts=4,
)
#: the gray edge's clients retry its drops
GRAY_RETRY = RetryPolicy(timeout_s=10.0, backoff_base_s=0.25)
#: an impatient client: a tight timeout hedges re-issues to the
#: least-loaded live edge, so the timeouts column is exercised
IMPATIENT_RETRY = RetryPolicy(
    timeout_s=1.5, backoff_base_s=0.25, backoff_cap_s=1.0, max_attempts=3,
    hedge=True,
)

#: scenario -> (the report counter it must move, what is broken if not);
#: the nightly smokes run this experiment for these guarantees
MUST_MOVE = {
    "edge-outage": ("sessions_resteered", "failover is broken"),
    "region-outage": ("sessions_resteered", "regional failover is broken"),
    "retry-timeout": (
        "requests_timed_out", "the virtual-time timeout path is broken",
    ),
}


def edge_outage(window: float, fleet) -> FaultSchedule:
    """Edge 0 dark for a quarter of the window."""
    return FaultSchedule(
        (EdgeOutage(edge=0, start=0.4 * window, duration=0.25 * window),)
    )


def region_outage(window: float, fleet) -> FaultSchedule:
    """Region-0 fails outright; the seeded generator decides whether the
    failure cascades into region-1 after a propagation delay."""
    gen = CorrelatedFaultGenerator(
        seed=7, cascade_probability=0.4, cascade_delay_s=5.0
    )
    return gen.generate(
        ["region-0", "region-1"], origin="region-0",
        start=0.4 * window, duration=0.2 * window,
    )


def gray_edge(window: float, fleet) -> FaultSchedule:
    """Edge 0 at half capacity dropping a tenth of its requests for a
    quarter of the window — never dark, so no failover."""
    return FaultSchedule((GrayFailure(
        edge=0, start=0.4 * window, duration=0.25 * window,
        capacity_factor=0.5, drop_fraction=0.1, drop_delay_s=1.0,
    ),))


def brownout(window: float, fleet) -> FaultSchedule:
    """Edge 0's backhaul at 20 % capacity for a third of the window."""
    return FaultSchedule((BackhaulDegradation(
        edge=0, start=0.3 * window, duration=window / 3.0, factor=0.2,
    ),))


def flash_crowd(window: float, fleet) -> FaultSchedule:
    """A quarter more viewers piling onto the first viewer's video over a
    5 s ramp; the twin is the population without them."""
    return FaultSchedule((FlashCrowd(
        spec=fleet[0].spec, start=0.3 * window,
        n_viewers=max(1, len(fleet) // 4), ramp_seconds=5.0,
    ),))


def chaos_rows(
    n_sessions: int = 200,
    skew: float = 1.2,
    n_edges: int = 4,
    mbps_per_session: float = 6.0,
    control_interval: float = 5.0,
    abr: str = "continuous-mpc",
    regional: bool = False,
) -> list[tuple[str, Scenario]]:
    """``(scenario, row)`` pairs; ``regional`` keeps the baseline and the
    correlated region-outage pair only."""
    base = Scenario(
        n_sessions, skew=skew, abr=abr, edges=n_edges,
        mbps_per_session=mbps_per_session, assignment="least-loaded",
    )
    on = ControlPolicy(interval=control_interval)
    # while a whole region is dark the controller caps quality and turns
    # SR off
    dark = ControlPolicy(
        interval=control_interval, quality_cap_when_dark=0.5,
        disable_sr_when_dark=True,
    )
    region = replace(
        base, faults=region_outage, retry=REGIONAL_RETRY, regions=2
    )
    regional_pair = [
        ("region-outage", region), ("region-outage", replace(region, control=dark)),
    ]
    if regional:
        return [("baseline", base), *regional_pair]
    return [
        ("baseline", base),
        ("baseline", replace(base, control=on)),
        ("edge-outage", replace(base, faults=edge_outage)),
        ("edge-outage", replace(base, faults=edge_outage, control=on)),
        *regional_pair,
        ("gray-edge", replace(base, faults=gray_edge, retry=GRAY_RETRY, control=on)),
        ("backhaul-degr", replace(base, faults=brownout, control=on)),
        ("retry-timeout", replace(
            base, faults=brownout, retry=IMPATIENT_RETRY, control=on
        )),
        ("flash-crowd", replace(base, faults=flash_crowd, control=on)),
        ("slow-encode", replace(base, encode_pool=STARVED_ENCODE_POOL, control=on)),
        ("qoe-autoscale", replace(
            base, arrivals="diurnal", faults=brownout, control=on,
            autoscale=True,
        )),
    ]


def _label_and_note(name: str, report: ScenarioReport, window: float) -> tuple[str, str]:
    """A row's post-processing: its table label and its note."""
    rep, result = report.result.report, report.result
    if name == "region-outage" and report.row.control is not None:
        # each region's audience: the sessions its edges host at the
        # start, wherever failover sends them afterwards
        topo = result.topology
        home = topo.assign(result.session_specs)
        per_region = []
        for region in sorted(topo.regions):
            members = topo.regions[region]
            ids = [s for s, e in enumerate(home) if e in members]
            dip, rec = fault_damage(result, report.twin, report.onset, ids)
            per_region.append(f"{region}: dip {dip:.2f} recover {rec:.1f}s")
        return name, f" region-outage/on recovery: {', '.join(per_region)}."
    if name == "gray-edge" and rep.gray_degraded_bytes:
        note = (
            f" gray-edge served {rep.gray_degraded_bytes >> 20} MiB "
            "through the brownout"
        )
        if rep.retry_attempts:
            hist = "/".join(str(c) for c in rep.retry_attempts)
            note += f"; retry-attempt histogram {hist}"
        return name, note + "."
    if name == "qoe-autoscale":
        # the learned scale thins the next day's arrivals through the
        # DiurnalArrivals.autoscale hook
        scaler = report.autoscaler
        scaled = DiurnalArrivals(
            mean_rate_hz=ARRIVAL_PADDING * report.row.n_sessions / window,
            day_seconds=window, days=2.0, autoscale=scaler,
        ).times()
        day2 = int((scaled >= window).sum())
        return f"qoe-autoscale d2x{scaler(1):.2f} n{day2}", ""
    return name, ""


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

    ``trace_out`` traces the edge-outage controller-on row (the
    region-outage one with ``regional``), whose run must pass the
    conservation law, and writes the events as Chrome trace-event JSON
    (Perfetto-loadable; a ``.jsonl`` suffix switches to the JSONL event
    log).  ``regional`` restricts the run to the correlated region-outage
    scenario plus its fault-free baseline — the nightly regional smoke.
    """
    window = float(scale.stream_seconds)
    table = ResultTable(
        title="Chaos: faults and the closed-loop control plane",
        columns=COLUMNS,
        notes=(
            f"{n_sessions} viewers, Zipf skew {skew:g}, {n_edges} edges, "
            f"{mbps_per_session:g} Mbps/viewer, control interval "
            f"{control_interval:g}s; outage kills edge 0 for a quarter of "
            "the window, dip/recover_s are QoE-per-chunk depth against the "
            "fault-free twin and virtual seconds back to tolerance."
        ),
    )
    traced = "region-outage" if regional else "edge-outage"
    rows = chaos_rows(
        n_sessions, skew, n_edges, mbps_per_session, control_interval, abr,
        regional,
    )
    runs: dict = {}  # fault-free runs: each twin runs once
    for name, row in rows:
        ctrl = "off" if row.control is None else "on"
        telemetry = Telemetry(metrics=False, profile=False) if (
            trace_out and name == traced and ctrl == "on"
        ) else None
        report = run_scenario(row, scale, telemetry, runs)
        counter, broken = MUST_MOVE.get(name, (None, ""))
        if counter and getattr(report.result.report, counter) == 0:
            raise RuntimeError(
                f"{name} scenario moved no {counter} — {broken}"
            )
        label, note = _label_and_note(name, report, window)
        add_row(table, report, scenario=label, ctrl=ctrl)
        table.notes += note
        if telemetry is not None:
            n = write_trace(telemetry.tracer, trace_out)
            table.notes += f" {name}/on trace: {n} events -> {trace_out}."
    return table
