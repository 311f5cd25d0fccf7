#!/usr/bin/env python
"""Inject faults into a CDN fleet and watch the control plane recover it.

Runs the same viewer population through four scenarios: a fault-free
reference, an edge outage (the fleet fails the dead edge's viewers over
to live edges, cancels its in-flight transfers, restarts its cache
cold), a backhaul brownout (the edge's origin link at 20% capacity),
and a flash crowd piling onto one video.  Each faulty run is repeated
with the closed-loop control plane on — encode-pool autoscaling,
saturation re-steering — and the recovery metrics are printed: how deep
QoE-per-chunk dipped below the pre-fault baseline and how many virtual
seconds until it came back.  The run closes with the hot loop's
wall-clock phase breakdown; ``--trace-out FILE`` also records the
edge-outage controller-on run's structured event trace (Chrome
trace-event JSON for Perfetto, or a JSONL event log with a ``.jsonl``
suffix).

Run:  python examples/chaos_demo.py [--sessions 120] [--interval 5]
                                    [--trace-out trace.json]
"""

import argparse
import math
import time

from repro.experiments import make_cdn, make_population
from repro.experiments.common import SMOKE
from repro.obs import Telemetry, write_trace
from repro.streaming import (
    BackhaulDegradation,
    ControlPlane,
    ControlPolicy,
    EdgeOutage,
    FaultSchedule,
    FlashCrowd,
    SRResultCache,
    simulate_fleet,
)


def show(label: str, rep) -> None:
    recover = (
        "never" if math.isinf(rep.time_to_recover_s)
        else f"{rep.time_to_recover_s:5.1f}s"
    )
    print(
        f"{label:<22} resteered {rep.sessions_resteered:3d}  "
        f"ticks {rep.control_ticks:3d}  resizes {rep.encode_pool_resizes}  "
        f"dip {rep.qoe_dip_depth:5.2f}  recover {recover}  "
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

    window = float(SMOKE.stream_seconds)
    sessions = make_population(SMOKE, args.sessions)
    print(f"{len(sessions)} viewers over a 4-edge CDN, {window:.0f}s window\n")

    def run(fleet, faults=None, ctrl=False, traced=False):
        topo = make_cdn(
            SMOKE, len(fleet), n_edges=4, assignment="least-loaded"
        )
        controller = (
            ControlPlane(ControlPolicy(interval=args.interval))
            if ctrl else None
        )
        t0 = time.time()
        rep = simulate_fleet(
            fleet, topology=topo, sr_cache=SRResultCache(),
            faults=faults, controller=controller,
            telemetry=telemetry if traced else None,
        ).report
        return rep, time.time() - t0

    rep, dt = run(sessions)
    show("baseline", rep)

    outage = FaultSchedule(
        (EdgeOutage(edge=0, start=0.4 * window, duration=0.25 * window),)
    )
    for ctrl in (False, True):
        rep, dt = run(sessions, faults=outage, ctrl=ctrl, traced=ctrl)
        show(f"edge-outage ctrl={'on' if ctrl else 'off'}", rep)

    degr = FaultSchedule(
        (BackhaulDegradation(
            edge=0, start=0.3 * window, duration=window / 3.0, factor=0.2,
        ),)
    )
    rep, dt = run(sessions, faults=degr, ctrl=True)
    show("backhaul-degr ctrl=on", rep)

    crowd = FaultSchedule(
        (FlashCrowd(
            spec=sessions[0].spec, start=0.3 * window,
            n_viewers=max(1, len(sessions) // 4), ramp_seconds=5.0,
        ),)
    )
    rep, dt = run(crowd.expand_population(sessions), faults=crowd, ctrl=True)
    show("flash-crowd ctrl=on", rep)

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
