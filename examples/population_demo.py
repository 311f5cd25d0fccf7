#!/usr/bin/env python
"""Run a trace-driven viewer population through the fleet simulator.

Viewers arrive as a Poisson process, pick videos from a Zipf-skewed
catalog, share one bottleneck link and one SR-result cache, and abandon
the session once rebuffering exhausts their patience — the
``fleet-population`` experiment's viewer (:mod:`repro.experiments.scenario`).
All sessions share a single vectorized MPC controller, so the fleet
scheduler resolves simultaneous ABR decisions in one array pass.

Prints the operator-facing report (QoE aggregates, stall ratio, cache hit
rate, abandon rate) for a sweep of catalog skews, then a provisioning
comparison at the highest skew.

Run:  python examples/population_demo.py [--sessions 200] [--seconds 20]
"""

import argparse
import time
from dataclasses import replace

from repro.experiments import SMOKE, Scenario, run_scenario
from repro.experiments.scenario import N_VIDEOS, STALL_PATIENCE


def show(label: str, report) -> None:
    print(
        f"{label:<26} qoe mean {report.mean_qoe:8.2f}  "
        f"p5 {report.p5_qoe:8.2f}  "
        f"stall {100 * report.stall_ratio:5.1f}%  "
        f"cache hit {100 * report.cache_hit_rate:5.1f}%  "
        f"abandoned {100 * report.abandon_rate:5.1f}%  "
        f"{report.total_bytes / 1e9:.2f} GB"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sessions", type=int, default=200,
                        help="target number of viewer arrivals")
    parser.add_argument("--seconds", type=int, default=20,
                        help="video length per catalog entry")
    args = parser.parse_args()
    scale = replace(SMOKE, name="demo", stream_seconds=args.seconds)

    def run(skew: float, mbps_per_session: float):
        row = Scenario(
            args.sessions, skew=skew, edges=0, mbps_per_session=mbps_per_session
        )
        t0 = time.time()
        return run_scenario(row, scale).result.report, time.time() - t0

    print(f"~{args.sessions} Poisson arrivals over {args.seconds}s, "
          f"{N_VIDEOS}-video catalog, {STALL_PATIENCE:g}s stall patience")
    print("\npopularity skew sweep (6 Mbps per viewer):")
    for skew in (0.0, 1.0, 2.0):
        report, wall = run(skew, 6.0)
        show(f"  skew {skew:.1f} ({report.n_sessions} viewers)", report)
        print(f"    [{wall:.1f}s wall, makespan "
              f"{report.makespan:.0f} virtual s]")

    print("\nprovisioning sweep (skew 2.0):")
    for label, mbps in [("  starved (3 Mbps)", 3.0),
                        ("  provisioned (30 Mbps)", 30.0)]:
        show(label, run(2.0, mbps)[0])


if __name__ == "__main__":
    main()
