#!/usr/bin/env python
"""Run a viewer population through a CDN edge topology.

Viewers arrive as a Poisson process, pick videos from a Zipf-skewed
catalog, and are assigned to CDN edges.  Each chunk request consults its
edge's LRU cache: a hit is served over the access link alone, a miss
pulls origin → edge → viewer over the backhaul (after the origin's
bounded encode workers have the variant) and fills the cache for the
next co-watching viewer.  Runs the ``fleet-cdn`` experiment's CDN rows
at 10 Mbps per viewer and prints the columns an operator watches —
per-edge hit rates, origin egress vs delivered bytes, encode-queue
waits — for the three viewer→edge assignment policies, then shows
encode-pool contention.

Run:  python examples/cdn_demo.py [--sessions 120] [--seconds 12]
"""

import argparse
import time
from dataclasses import replace

from repro.experiments import SMOKE, run_scenario
from repro.experiments.fleet_cdn import cdn_rows


def show(label: str, rep) -> None:
    per_edge = "/".join(f"{100 * h:.0f}%" for h in rep.edge_hit_rates)
    print(
        f"{label:<24} edge hit {100 * rep.edge_hit_rate:5.1f}% [{per_edge}]  "
        f"origin {rep.origin_egress_bytes / 1e9:5.2f} GB of "
        f"{rep.total_bytes / 1e9:5.2f} GB delivered  "
        f"qoe {rep.mean_qoe:7.2f}  abandoned {100 * rep.abandon_rate:4.1f}%"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sessions", type=int, default=120,
                        help="target number of viewer arrivals")
    parser.add_argument("--seconds", type=int, default=12,
                        help="video length per catalog entry")
    parser.add_argument("--edges", type=int, default=4,
                        help="number of CDN edge sites")
    parser.add_argument("--skew", type=float, default=1.4,
                        help="catalog popularity skew")
    args = parser.parse_args()

    scale = replace(SMOKE, name="demo", stream_seconds=args.seconds)
    print(
        f"{args.sessions} viewers over {args.edges} edges, "
        f"Zipf skew {args.skew:g}, {args.seconds}s videos"
    )
    rows = {
        (topology, row.assignment): row
        for topology, row in cdn_rows(
            args.sessions, skew=args.skew, n_edges=args.edges,
            mbps_per_session=10.0,
        )
    }

    print("\nassignment policy sweep (warm 4 GiB edge caches):")
    for assignment in ("static", "least-loaded", "popularity"):
        t0 = time.time()
        rep = run_scenario(rows["cdn", assignment], scale).result.report
        show(f"  {assignment}", rep)
        print(f"    [{time.time() - t0:.1f}s wall, makespan "
              f"{rep.makespan:.0f} virtual s]")

    print("\nencode contention (popularity assignment, cold origin):")
    for label, topology in [("  provisioned (8 workers)", "cdn"),
                            ("  starved (1 worker, 10x)", "cdn+slow-encode")]:
        rep = run_scenario(rows[topology, "popularity"], scale).result.report
        print(f"{label:<26} encode waits p50 {rep.encode_wait_p50:6.2f}s  "
              f"p95 {rep.encode_wait_p95:6.2f}s  qoe {rep.mean_qoe:7.2f}  "
              f"stall {100 * rep.stall_ratio:5.1f}%")


if __name__ == "__main__":
    main()
