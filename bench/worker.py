"""Child process of ``bench/run.py``: runs ONE workload, prints one JSON
document on the last line of stdout.

Kept apart from ``run.py`` so that the thread-count variables are in the
environment before NumPy is imported, and so that ``peak_rss_mb`` is the
peak of this workload alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

_T0 = perf_counter()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import harness
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    import_s = perf_counter() - _T0

    result = workloads.run_workload(
        workloads.make(args.workload), args.seed, args.seconds,
        bool(args.trace), per_layer,
    )
    if args.trace:
        result["metrics"]["bench.import_s"] = harness.exact(import_s, "s")
    spans = result.pop("spans")
    extra = result.pop("trace_extra")
    if spans is not None:
        out_dir = os.path.join(BENCH_DIR, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}.json")
        spans.dump(path, {"workload": args.workload, "seed": args.seed, **extra})
        result["trace_file"] = os.path.relpath(path, ROOT)
    result["fingerprint"] = harness.fingerprint(ROOT, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
