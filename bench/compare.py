"""Compare benchmark result files written by ``bench/run.py --out``.

    python3 bench/compare.py A.jsonl            # spread of one set of runs
    python3 bench/compare.py A.jsonl B.jsonl    # B against A, with verdicts

Each file holds one JSON line per run.  Runs are pooled per (workload,
metric): median, quartiles (``statistics.quantiles(n=4)``) and n.

One file: the **spread** of every metric — the distance between its
quartiles as a share of its median — next to its bound.  This is the
A/A noise floor; a spread above a third of the bound is flagged.

Two files: per (workload, metric) the relative change of B's median with
A's as the base, signed so that positive is better, and for the bounded
(end-to-end) metrics a verdict:

* ``unresolved`` — a spread is wider than the bound and the two sets of
  runs overlap, so the pair cannot show a change of the bound's size;
* ``worse`` / ``better`` — the median moved by more than the bound;
* ``same`` — it did not.

Exit code 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

from harness import quartiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> tuple[dict[tuple[str, str], list[float]], dict[str, str]]:
    """(workload, metric) → one value per run, and metric → unit."""
    pooled: dict = {}
    units: dict = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            run = json.loads(line)
            for name, m in run["metrics"].items():
                pooled.setdefault((run["workload"], name), []).append(float(m["value"]))
                units[name] = m["unit"]
    return pooled, units


def summarize(values: list[float]) -> dict:
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return {
        "median": med, "q1": q1, "q3": q3, "n": len(values),
        "lo": min(values), "hi": max(values),
        "spread": (q3 - q1) / abs(med) if med else 0.0,
    }


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """Signed relative change (positive = better, base = A's median) and
    the verdict of B against A under ``bound``."""
    base = a["median"]
    if base == 0:
        delta = 0.0 if b["median"] == 0 else float("inf")
    else:
        delta = (b["median"] - base) / abs(base)
    gain = delta if better == "higher" else -delta
    overlap = a["lo"] <= b["hi"] and b["lo"] <= a["hi"]
    if max(a["spread"], b["spread"]) > bound and overlap:
        return gain, "unresolved"
    if gain < -bound:
        return gain, "worse"
    if gain > bound:
        return gain, "better"
    return gain, "same"


def declared_metrics() -> dict[str, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return {m["name"]: m for m in doc["end_to_end"] + doc["per_layer"]}


def spread_report(a: dict, units: dict, decl: dict) -> int:
    print(f"{'workload':<18}{'metric':<30}{'median':>14} {'unit':<8}"
          f"{'q1':>14}{'q3':>14}{'n':>4}{'spread':>9}{'bound':>8}")
    for wl, name in sorted(a):
        s = summarize(a[(wl, name)])
        bound = decl.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s" and s["spread"] > bound / 3:
            flag = "  > bound/3" if s["spread"] <= bound else "  > BOUND"
        print(f"{wl:<18}{name:<30}{s['median']:>14.6g} {units[name]:<8}"
              f"{s['q1']:>14.6g}{s['q3']:>14.6g}{s['n']:>4}{s['spread']:>9.4f}"
              f"{'' if bound is None else format(bound, '8.3g')}{flag}")
    return 0


def pair_report(a: dict, b: dict, units: dict, decl: dict) -> int:
    print(f"{'workload':<18}{'metric':<30}{'A median':>14}{'B median':>14} {'unit':<8}"
          f"{'A spread':>9}{'B spread':>9}{'n':>6}{'gain':>9}  verdict")
    worse = 0
    for wl, name in sorted(set(a) & set(b)):
        sa, sb = summarize(a[(wl, name)]), summarize(b[(wl, name)])
        d = decl.get(name, {})
        gain, v = verdict(sa, sb, d.get("better", "lower"), d.get("bound", 0.0))
        if "bound" not in d:
            v = "-"  # per-layer metrics carry no bound, so no verdict
        worse += v == "worse"
        print(f"{wl:<18}{name:<30}{sa['median']:>14.6g}{sb['median']:>14.6g} "
              f"{units[name]:<8}{sa['spread']:>9.4f}{sb['spread']:>9.4f}"
              f"{sa['n']:>3}/{sb['n']:<2}{gain:>+9.4f}  {v}")
    print("gain: (B median - A median) / A median, signed so positive is better")
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    decl = declared_metrics()
    a, units = load_runs(argv[0])
    if len(argv) == 1:
        return spread_report(a, units, decl)
    return pair_report(a, load_runs(argv[1])[0], units, decl)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
