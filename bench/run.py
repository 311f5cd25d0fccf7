"""The repo's benchmark: one command, every metric by name with its unit.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--seeds K] [--out FILE]

Each workload runs in its own single-threaded subprocess
(``bench/worker.py``).  Without ``--workload`` every workload declared in
``BENCHMARK.json`` runs in turn.  With ``--trace 0`` (the default) the
end-to-end metrics are printed; with ``--trace 1`` the per-layer metrics
of a traced run, and the spans go to ``bench/out/trace-<workload>.json``.
``--seeds K`` repeats the run on K consecutive seeds; ``--out FILE``
appends one JSON line per run for ``bench/compare.py``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is nonzero when
an output check failed or a workload could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
#: a child that has not finished by then is killed (the contract's cap is 180 s)
CHILD_TIMEOUT_S = 170
#: one client, one process, no threads: the box has two cores and BLAS
#: pools would fight the co-tenants for them
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a subprocess; its result document, or raise."""
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    # subprocess.run kills the child and waits for it when the timeout hits
    proc = subprocess.run(
        cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV}, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_result(result: dict) -> None:
    tag = f"{result['workload']} seed={result['seed']}"
    for name, m in result["metrics"].items():
        spread = f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]" if m["n"] > 1 else ""
        print(f"{tag}  {name} = {m['value']:.6g} {m['unit']}{spread}")
    ok = "ok" if result["correct"] else "FAILED"
    print(f"{tag}  checks {ok}: {result['failed']} failed of "
          f"{result['attempted']} operations")
    for msg in result["messages"]:
        print(f"{tag}  check failed: {msg}")
    if "trace_file" in result:
        print(f"{tag}  spans -> {result['trace_file']}")


def main(argv: list[str] | None = None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py: no src/repro next to bench/ — nothing to measure",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    names = [w["name"] for w in declared["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="default: every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=declared["run_seconds"],
                    help="measuring time per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    ap.add_argument("--seeds", type=int, default=1,
                    help="run this many consecutive seeds, starting at --seed")
    ap.add_argument("--out", help="append one JSON line per run to this file")
    args = ap.parse_args(argv)

    selected = [args.workload] if args.workload else names
    results = []
    for seed in range(args.seed, args.seed + args.seeds):
        for workload in selected:
            try:
                result = run_child(workload, seed, args.seconds, args.trace)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
                print(f"bench/run.py: {workload}: {exc}", file=sys.stderr)
                return 1
            print_result(result)
            results.append(result)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(result) + "\n")

    def contract(result: dict) -> dict:
        return {name: {"value": m["value"], "unit": m["unit"]}
                for name, m in result["metrics"].items()}

    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        # one run: the contract's flat shape; several: keyed by run
        "metrics": contract(results[0]) if len(results) == 1 else {
            f"{r['workload']}@{r['seed']}": contract(r) for r in results
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
