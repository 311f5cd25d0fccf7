#!/usr/bin/env python
"""A/B the ABR policy zoo on one CDN workload, priced in dollars.

Every registered policy — resolve any of them with
``get_policy(name)`` — drives the *same* seeded viewer population over
the same topology (the ``fleet-policies`` experiment's row with only
``abr`` changed), so the rows differ only in the controller.  Each
finished run is then priced by the first-principles infrastructure
cost model (origin egress, encode core-hours, amortized edge cache
storage, SR device time), and the last column is the operator's actual
objective: delivered QoE per dollar spent.

Run:  python examples/policy_zoo_demo.py [--sessions 150] [--abr NAME]
"""

import argparse
import time

from repro.experiments import SMOKE, Scenario, run_scenario
from repro.streaming import available_policies


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sessions", type=int, default=150,
                        help="target number of viewer arrivals")
    parser.add_argument("--edges", type=int, default=4,
                        help="number of CDN edge sites")
    parser.add_argument("--abr", default=None, metavar="NAME",
                        help="run a single policy instead of the zoo")
    args = parser.parse_args()

    names = [args.abr] if args.abr else available_policies()
    print(f"policy zoo over {args.sessions} viewers, {args.edges} edges "
          f"(same seeded arrivals/catalog per row):\n")
    print(f"{'policy':<16} {'mean qoe':>9} {'stall':>7} {'total $':>9} "
          f"{'qoe/$':>10}  wall")

    for name in names:
        t0 = time.time()
        report = run_scenario(
            Scenario(args.sessions, abr=name, edges=args.edges), SMOKE
        )
        wall = time.time() - t0
        rep, cost = report.result.report, report.cost
        print(f"{name:<16} {rep.mean_qoe:>9.2f} "
              f"{100 * rep.stall_ratio:>6.1f}% {cost.total_usd:>9.4f} "
              f"{cost.qoe_per_dollar(rep.mean_qoe, rep.n_sessions):>10.0f}"
              f"  [{wall:.1f}s]")

    print("\ncost components price origin egress, encode core-hours, "
          "edge cache GB-months, and SR device-hours; see "
          "repro.streaming.cost for the per-unit rates.")


if __name__ == "__main__":
    main()
