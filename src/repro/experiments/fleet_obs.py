"""Observability showcase: one chaos run under the full telemetry stack.

The other fleet experiments answer "how did the fleet do"; this one
answers "what did the run look like from the inside".  It drives the
Zipf-skewed VoLUT population through an edge outage plus a backhaul
brownout with the closed-loop controller on and every
:class:`~repro.obs.Telemetry` layer enabled, then reports:

* the wall-clock **phase breakdown** of the hot loop (scheduler /
  advance / planner / control self-time, the profiler's own table);
* the **event census** — how many of each trace-event kind the run
  emitted, with the :func:`~repro.obs.events.ops_from_events`
  conservation fold checked against the report's counters;
* the last samples of the **metrics registry**'s fleet-level series.

``trace_out`` / ``metrics_out`` write the machine-readable artifacts:
a Chrome trace-event JSON (open in Perfetto; ``.jsonl`` suffix switches
to the JSONL event log) and a Prometheus-style text dump.
"""

from __future__ import annotations

from ..obs import Telemetry
from ..obs.export import write_prometheus, write_trace
from ..streaming.control import ControlPlane, ControlPolicy
from ..streaming.faults import BackhaulDegradation, EdgeOutage, FaultSchedule
from ..streaming.fleet import SRResultCache, simulate_fleet
from .common import SMOKE, ResultTable, Scale
from .fleet_cdn import make_cdn
from .fleet_chaos import check_conservation
from .workloads import make_population

__all__ = ["run_fleet_obs"]


def run_fleet_obs(
    scale: Scale = SMOKE,
    n_sessions: int = 150,
    skew: float = 1.2,
    n_edges: int = 4,
    mbps_per_session: float = 6.0,
    sr_cache_size: int = 4096,
    control_interval: float = 5.0,
    trace_out: str | None = None,
    metrics_out: str | None = None,
    profile: bool = True,
    abr: str = "continuous-mpc",
) -> ResultTable:
    """One fully-instrumented chaos run; see the module docstring."""
    window = float(scale.stream_seconds)
    sessions = make_population(scale, n_sessions, skew=skew, abr=abr)
    faults = FaultSchedule((
        EdgeOutage(edge=0, start=0.4 * window, duration=0.25 * window),
        BackhaulDegradation(
            edge=1, start=0.2 * window, duration=window / 3.0, factor=0.3,
        ),
    ))
    telemetry = Telemetry(profile=profile)
    result = simulate_fleet(
        sessions,
        topology=make_cdn(
            scale, len(sessions), n_edges=n_edges,
            mbps_per_session=mbps_per_session, assignment="least-loaded",
        ),
        sr_cache=SRResultCache(capacity=sr_cache_size),
        faults=faults,
        controller=ControlPlane(ControlPolicy(interval=control_interval)),
        telemetry=telemetry,
    )
    # The nightly sweep runs this experiment for exactly this check: the
    # event stream must reconstruct the ops counters.
    check_conservation(telemetry.tracer, result.report)

    notes = [
        f"{n_sessions} viewers, {n_edges} edges, outage on edge 0 + "
        f"brownout on edge 1, controller at {control_interval:g}s; "
        "event fold == report counters (conservation checked).",
    ]
    if trace_out:
        n = write_trace(telemetry.tracer, trace_out)
        notes.append(f"trace: {n} events -> {trace_out}")
    if metrics_out:
        write_prometheus(telemetry.metrics, metrics_out)
        notes.append(f"metrics -> {metrics_out}")

    table = ResultTable(
        title="Observability: phase profile and event census of a chaos run",
        columns=["section", "name", "value"],
        notes=" ".join(notes),
    )
    if profile:
        for name, cells in telemetry.profiler.breakdown().items():
            table.add(
                section="phase", name=name,
                value=f"{cells['seconds']:.4f}s {cells['pct']:.1f}% "
                f"x{cells['calls']}",
            )
    counts = telemetry.tracer.counts()
    for kind in sorted(counts):
        table.add(section="event", name=kind, value=counts[kind])
    for name, series in sorted(telemetry.metrics.series.items()):
        last = series.last
        if last is not None:
            t, v = last
            table.add(
                section="series", name=name,
                value=f"{v:.4g} @ t={t:.1f}s ({len(series)} samples)",
            )
    return table
