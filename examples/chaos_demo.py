#!/usr/bin/env python
"""Inject faults into a CDN fleet and watch the control plane recover it.

Runs four of the ``fleet-chaos`` experiment's rows: a fault-free
reference, an edge outage (the fleet fails the dead edge's viewers over
to live edges, cancels its in-flight transfers, restarts its cache
cold), a backhaul brownout (the edge's origin link at 20% capacity),
and a flash crowd piling onto one video.  The outage is repeated with
the closed-loop control plane on — encode-pool autoscaling, saturation
re-steering — and each faulty run is read against its fault-free twin
(the same row with no faults; the flash crowd's twin is the population
without the crowd): how deep QoE-per-chunk dipped below the twin's and
how many virtual seconds until it came back.  The run closes with the
hot loop's wall-clock phase breakdown; ``--trace-out FILE`` also records
the edge-outage controller-on run's structured event trace (Chrome
trace-event JSON for Perfetto, or a JSONL event log with a ``.jsonl``
suffix).

Run:  python examples/chaos_demo.py [--sessions 120] [--interval 5]
                                    [--trace-out trace.json]
"""

import argparse
import math

from repro.experiments import SMOKE, run_scenario
from repro.experiments.fleet_chaos import chaos_rows
from repro.obs import Telemetry, write_trace

SHOWN = ("baseline", "edge-outage", "backhaul-degr", "flash-crowd")


def show(label: str, report) -> None:
    rep = report.result.report
    dip, recover_s = report.damage
    recover = "never" if math.isinf(recover_s) else f"{recover_s:5.1f}s"
    print(
        f"{label:<22} resteered {rep.sessions_resteered:3d}  "
        f"ticks {rep.control_ticks:3d}  resizes {rep.encode_pool_resizes}  "
        f"dip {dip:5.2f}  recover {recover}  "
        f"qoe {rep.mean_qoe:7.2f}  stall {100 * rep.stall_ratio:4.1f}%"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sessions", type=int, default=120,
                        help="target number of viewer arrivals")
    parser.add_argument("--interval", type=float, default=5.0,
                        help="virtual seconds between control-plane ticks")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write the edge-outage ctrl=on event trace "
                        "(Chrome trace JSON; .jsonl for the event log)")
    args = parser.parse_args()
    telemetry = Telemetry(trace=args.trace_out is not None, metrics=False)

    print(f"{args.sessions} viewers over a 4-edge CDN, "
          f"{SMOKE.stream_seconds}s window\n")
    rows = chaos_rows(n_sessions=args.sessions, control_interval=args.interval)
    runs: dict = {}  # fault-free runs: each twin runs once
    for name, row in rows:
        ctrl = "off" if row.control is None else "on"
        if name not in SHOWN or (name == "baseline" and ctrl == "on"):
            continue
        traced = name == "edge-outage" and ctrl == "on"
        report = run_scenario(
            row, SMOKE, telemetry if traced else None, runs
        )
        show(f"{name} ctrl={ctrl}", report)

    print("\nedge-outage ctrl=on phase breakdown (wall-clock self time):")
    print(telemetry.profiler.report())
    if args.trace_out:
        n = write_trace(telemetry.tracer, args.trace_out)
        print(f"trace: {n} events -> {args.trace_out}")

    print(
        "\nfaults are virtual-time events: reruns with the same schedule "
        "are bit-identical, and an empty schedule matches the plain "
        "simulator exactly."
    )


if __name__ == "__main__":
    main()
