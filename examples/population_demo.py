#!/usr/bin/env python
"""Run a trace-driven viewer population through the fleet simulator.

Viewers arrive as a Poisson process, pick videos from a Zipf-skewed
catalog, share one bottleneck link and one SR-result cache, and abandon
the session once rebuffering exhausts their patience.  All sessions share
a single vectorized MPC controller, so the fleet scheduler resolves
simultaneous ABR decisions in one array pass.

Prints the operator-facing report (QoE aggregates, stall ratio, cache hit
rate, abandon rate) for a sweep of catalog skews, then a provisioning
comparison at the highest skew.

Run:  python examples/population_demo.py [--sessions 200] [--seconds 20]
"""

import argparse
import time

from repro.experiments.workloads import volut_latency_model
from repro.metrics import QoEModel
from repro.net import stable_trace
from repro.streaming import (
    AbandonPolicy,
    ContinuousMPC,
    PoissonArrivals,
    SRQualityModel,
    build_population,
    simulate_fleet,
    single_link_cdn,
)
from repro.streaming.population import synthetic_catalog


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
    parser.add_argument("--videos", type=int, default=8,
                        help="catalog size")
    parser.add_argument("--patience", type=float, default=8.0,
                        help="seconds of total stall before a viewer abandons")
    args = parser.parse_args()

    qm = SRQualityModel()
    lat = volut_latency_model()
    controller = ContinuousMPC(qm, QoEModel(), lat, n_grid=32, horizon=4)
    churn = AbandonPolicy(max_total_stall=args.patience)
    window = float(4 * args.seconds)
    arrivals = PoissonArrivals(rate_hz=args.sessions / window, seed=7)

    def run(skew: float, mbps_per_session: float):
        catalog = synthetic_catalog(
            args.videos, seconds=args.seconds, skew=skew
        )
        sessions = build_population(
            catalog, arrivals, window, controller,
            sr_latency=lat, quality_model=qm, churn=churn, seed=11,
        )
        trace = stable_trace(
            mbps_per_session * len(sessions), duration=2 * window
        )
        t0 = time.time()
        result = simulate_fleet(
            sessions, topology=single_link_cdn(trace), sr_cache="shared"
        )
        return result, time.time() - t0

    print(f"~{args.sessions} Poisson arrivals over {window:.0f}s, "
          f"{args.videos}-video catalog, {args.patience:g}s stall patience")
    print("\npopularity skew sweep (6 Mbps per viewer):")
    for skew in (0.0, 1.0, 2.0):
        result, wall = run(skew, 6.0)
        show(f"  skew {skew:.1f} "
             f"({result.report.n_sessions} viewers)", result.report)
        print(f"    [{wall:.1f}s wall, makespan "
              f"{result.report.makespan:.0f} virtual s]")

    print("\nprovisioning sweep (skew 2.0):")
    for label, mbps in [("  starved (3 Mbps)", 3.0),
                        ("  provisioned (30 Mbps)", 30.0)]:
        result, _ = run(2.0, mbps)
        show(label, result.report)


if __name__ == "__main__":
    main()
