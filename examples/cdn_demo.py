#!/usr/bin/env python
"""Run a viewer population through a CDN edge topology.

Viewers arrive as a Poisson process, pick videos from a Zipf-skewed
catalog, and are assigned to CDN edges.  Each chunk request consults its
edge's LRU cache: a hit is served over the access link alone, a miss
pulls origin → edge → viewer over the backhaul (after the origin's
bounded encode workers have the variant) and fills the cache for the
next co-watching viewer.  Prints the CDN columns an operator watches —
per-edge hit rates, origin egress vs delivered bytes, encode-queue
waits — for the three viewer→edge assignment policies, then shows
encode-pool contention.

Run:  python examples/cdn_demo.py [--sessions 120] [--seconds 12]
"""

import argparse
import time

from repro.experiments import make_cdn, make_population
from repro.experiments.common import Scale, SMOKE
from repro.streaming import simulate_fleet


def show(label: str, result) -> None:
    rep = result.report
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

    scale = Scale(
        name="demo",
        points_per_frame=SMOKE.points_per_frame,
        quality_frames=SMOKE.quality_frames,
        image_size=SMOKE.image_size,
        train_epochs=SMOKE.train_epochs,
        stream_seconds=args.seconds,
    )
    sessions = make_population(scale, args.sessions, skew=args.skew)
    print(
        f"{len(sessions)} viewers over {args.edges} edges, "
        f"Zipf skew {args.skew:g}, {args.seconds}s videos"
    )

    print("\nassignment policy sweep (warm 4 GiB edge caches):")
    for assignment in ("static", "least-loaded", "popularity"):
        topo = make_cdn(
            scale, len(sessions), n_edges=args.edges,
            mbps_per_session=10.0, assignment=assignment,
        )
        t0 = time.time()
        result = simulate_fleet(sessions, topology=topo, sr_cache="shared")
        show(f"  {assignment}", result)
        print(f"    [{time.time() - t0:.1f}s wall, makespan "
              f"{result.report.makespan:.0f} virtual s]")

    print("\nencode contention (popularity assignment, cold origin):")
    for label, workers, secs in [("  provisioned (8 workers)", 8, 0.05),
                                 ("  starved (1 worker, 10x)", 1, 0.5)]:
        topo = make_cdn(
            scale, len(sessions), n_edges=args.edges,
            mbps_per_session=10.0, assignment="popularity",
            n_encode_workers=workers, encode_seconds=secs,
        )
        result = simulate_fleet(sessions, topology=topo, sr_cache="shared")
        rep = result.report
        print(f"{label:<26} encode waits p50 {rep.encode_wait_p50:6.2f}s  "
              f"p95 {rep.encode_wait_p95:6.2f}s  qoe {rep.mean_qoe:7.2f}  "
              f"stall {100 * rep.stall_ratio:5.1f}%")


if __name__ == "__main__":
    main()
