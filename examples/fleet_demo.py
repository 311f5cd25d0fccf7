#!/usr/bin/env python
"""Run a 100-session fleet over one shared bottleneck link.

Every client is a VoLUT session (continuous ABR + LUT SR) watching the
same video, joining a shared link every half second (the ``fleet``
experiment's fixed-join rows).  A shared LRU SR-result cache lets
co-watching clients reuse each other's super-resolution output.  Prints
the operator-facing aggregate report (mean/p5/p95 QoE, stall ratio,
cache hit rate) for a congested and an overprovisioned link, and
closes with the hot loop's wall-clock phase breakdown (scheduler /
advance / planner self-time).  ``--trace-out
FILE`` also records the congested run's structured event trace — Chrome
trace-event JSON you can open in Perfetto, or a JSONL event log with a
``.jsonl`` suffix.

Run:  python examples/fleet_demo.py [--sessions 100] [--seconds 20]
                                    [--trace-out trace.json]
"""

import argparse
import time
from dataclasses import replace

from repro.experiments import SMOKE, Scenario, run_scenario
from repro.obs import Telemetry, write_trace


def show(label: str, report) -> None:
    print(
        f"{label:<28} qoe mean {report.mean_qoe:8.2f}  "
        f"p5 {report.p5_qoe:8.2f}  p95 {report.p95_qoe:8.2f}  "
        f"stall {100 * report.stall_ratio:5.1f}%  "
        f"cache hit {100 * report.cache_hit_rate:5.1f}%  "
        f"{report.total_bytes / 1e9:.2f} GB"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sessions", type=int, default=100,
                        help="number of concurrent sessions")
    parser.add_argument("--seconds", type=int, default=20,
                        help="video length per session")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write the congested run's event trace "
                        "(Chrome trace JSON; .jsonl for the event log)")
    args = parser.parse_args()
    telemetry = Telemetry(trace=args.trace_out is not None, metrics=False)
    scale = replace(SMOKE, name="demo", stream_seconds=args.seconds)

    print(f"fleet of {args.sessions} sessions, {args.seconds}s video each")
    for label, mbps in [
        ("congested (4 Mbps/client)", 4.0),
        ("provisioned (40 Mbps/client)", 40.0),
    ]:
        row = Scenario(
            args.sessions, arrivals="fixed", edges=0, mbps_per_session=mbps
        )
        t0 = time.time()
        result = run_scenario(
            row, scale,
            telemetry if label.startswith("congested") else None,
        ).result
        show(label, result.report)
        print(f"  [{time.time() - t0:.1f}s wall, makespan "
              f"{result.report.makespan:.0f} virtual s]")

    print("\ncongested-run phase breakdown (wall-clock self time):")
    print(telemetry.profiler.report())
    if args.trace_out:
        n = write_trace(telemetry.tracer, args.trace_out)
        print(f"trace: {n} events -> {args.trace_out}")


if __name__ == "__main__":
    main()
