#!/usr/bin/env python
"""Regenerate every table and figure from the paper's evaluation section.

Runs the paper's experiments (Table 1, Figs 4, 7-18) from the experiment
registry at the chosen scale, prints each result table and closes with
a per-experiment pass/fail summary.  ``--scale smoke`` (default) finishes
in a couple of minutes; ``--scale paper`` uses §7.1-sized workloads and
takes much longer in pure Python.

Run:  python examples/reproduce_paper.py [--scale smoke|paper] [--only fig11-measured]
"""

import argparse
import sys

from repro.experiments.__main__ import REGISTRY, main as run_experiments

#: the registry's entries that reproduce a table or figure of the paper
PAPER_EXPERIMENTS = [n for n in REGISTRY if n.startswith(("table", "fig"))]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=["smoke", "paper"], default="smoke")
    parser.add_argument(
        "--only",
        choices=PAPER_EXPERIMENTS,
        default=None,
        help="run a single experiment",
    )
    args = parser.parse_args()
    names = [args.only] if args.only else PAPER_EXPERIMENTS
    return run_experiments(["--scale", args.scale, *names])


if __name__ == "__main__":
    sys.exit(main())
