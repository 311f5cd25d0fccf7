"""Post-process a pytest-benchmark JSON into the committed ``BENCH_fleet.json``.

CI runs the fast benchmark lane with ``--benchmark-json`` and feeds the
raw output through this script, which:

1. distills it into ``BENCH_fleet.json`` at the repo root — one small,
   schema-stable document holding the per-benchmark timings of
   ``benchmarks/bench_fleet.py``, the derived throughput metrics, and the
   floors imported from that module itself;
2. compares the fresh numbers against the previously *committed* file
   (the trajectory baseline) and against the floors, exiting nonzero on
   a regression — more than ``--tolerance`` (default 30%) slower than
   the baseline, or any throughput under its floor.

The written file is uploaded as a workflow artifact on every push, so
the performance trajectory is recorded run over run; the committed copy
is refreshed manually when a PR intentionally moves the numbers.  The
planner's own rows (``abr.plan_s`` / ``abr.plan_calls`` /
``abr.rows_per_call``) live in the other ledger, ``bench/``.

Usage::

    PYTHONPATH=src python scripts/bench_report.py raw.json [--out-dir .]
        [--tolerance 0.3] [--no-check] [--phases bench-phases.json]

Schema history: v4 added the telemetry lane — the optional
``test_bench_fleet_telemetry`` row, the ``fleet_telemetry`` overhead
gate, and the ``phases`` wall-clock breakdown dumped by the benchmark
via ``BENCH_PHASES_OUT`` and fed in with ``--phases``.  v5 added the
policy-zoo lane: the optional BOLA row and its committed floor.  v6
added the chaos lane: the optional
``test_bench_fleet_chaos_armed`` row (acceptance workload with a
default RetryPolicy armed but never firing), the ``fleet_chaos``
overhead gate against the plain run, and the same-window pair dump
(``BENCH_OVERHEADS_OUT`` / ``--overheads``) that both overhead gates
prefer over row-derived ratios.  v7 removed the second session engine's
lane (its row and floor-constant ratio gate) and renamed the BOLA row
``test_bench_fleet_bola``.  All v4+ fields are optional on read, so
committed baselines written by older schemas still compare cleanly
(rows a baseline no longer shares are skipped).  The planner
micro-benchmark's second document left with the paths it timed; the
fleet document did not change, so the schema number did not either.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from pathlib import Path

SCHEMA_VERSION = 7

REPO_ROOT = Path(__file__).resolve().parent.parent


def _cpu_count(raw: dict) -> int:
    """CPU count of the machine that *ran* the benchmarks.

    pytest-benchmark records it in the raw JSON (py-cpuinfo); fall back
    to this process's count only when that field is absent — the raw
    artifact may be post-processed on a different box, and the sharded
    speedup gate must key off the benchmarking machine.
    """
    count = raw.get("machine_info", {}).get("cpu", {}).get("count")
    return int(count) if count else (os.cpu_count() or 1)


def _machine_fingerprint(raw: dict) -> dict:
    """The slice of machine_info that decides timing comparability.

    Wall-clock baselines only transfer between equivalent machines, so
    the trajectory gate compares against a committed baseline only when
    these fields match (floors are always enforced, scaled by
    ``BENCH_FLOOR_SCALE`` — see ``benchmarks/bench_fleet.py``).  The CPU
    count is part of the fingerprint since the sharded-fleet timings
    depend on it more than on anything else.
    """
    info = raw.get("machine_info", {})
    return {
        "machine": info.get("machine"),
        "processor": info.get("processor"),
        "python_version": info.get("python_version"),
        "cpu_count": _cpu_count(raw),
    }


def _load_module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stats(raw_bench: dict) -> dict:
    s = raw_bench["stats"]
    return {
        "min_s": s["min"],
        "mean_s": s["mean"],
        "rounds": s["rounds"],
    }


def build_reports(
    raw: dict,
    phases: dict | None = None,
    overheads: dict | None = None,
) -> dict[str, dict]:
    """Distill raw pytest-benchmark output into the fleet document.

    ``phases`` is the optional profiler dump the telemetry benchmark
    writes under ``BENCH_PHASES_OUT`` — folded verbatim into the fleet
    document so the committed trajectory records where the hot loop's
    wall time went, not just how much there was.

    ``overheads`` is the optional same-window pair dump the overhead
    budget tests write under ``BENCH_OVERHEADS_OUT``.  The overhead
    gates compare two tens-of-seconds runs; the benchmark-fixture rows
    measure them minutes apart, so on a box whose speed drifts across
    the session the row-derived ratio is an artifact.  When the paired
    dump carries a gate's key, its interleaved same-window measurement
    supplies ``overhead_x`` instead (tagged ``"measurement":
    "same-window-pair"`` vs ``"raw-rows"`` in the document).
    """
    by_name = {b["name"]: b for b in raw.get("benchmarks", [])}

    def need(name: str) -> dict:
        if name not in by_name:
            raise SystemExit(
                f"benchmark {name!r} missing from the raw JSON — did the "
                "fast lane run with --benchmark-json?"
            )
        return _stats(by_name[name])

    fleet_mod = _load_module(REPO_ROOT / "benchmarks" / "bench_fleet.py")

    single = need("test_bench_single_link_fleet")
    cdn = need("test_bench_cdn_fleet")
    content = fleet_mod.CONTENT_SECONDS
    single["content_s_per_wall_s"] = content / single["min_s"]
    cdn["content_s_per_wall_s"] = content / cdn["min_s"]
    shard_base = need("test_bench_sharded_baseline")
    shard_par = need("test_bench_sharded_fleet")
    shard_content = fleet_mod.SHARD_CONTENT_SECONDS
    shard_base["content_s_per_wall_s"] = shard_content / shard_base["min_s"]
    shard_par["content_s_per_wall_s"] = shard_content / shard_par["min_s"]

    fleet = {
        "schema": SCHEMA_VERSION,
        "suite": "fleet",
        "source": "benchmarks/bench_fleet.py",
        "machine": _machine_fingerprint(raw),
        "content_seconds": content,
        "content_seconds_sharded": shard_content,
        "floors": {
            "test_bench_single_link_fleet": fleet_mod.SINGLE_LINK_FLOOR,
            "test_bench_cdn_fleet": fleet_mod.CDN_FLOOR,
            "test_bench_sharded_baseline": fleet_mod.SHARD_BASELINE_FLOOR,
            "test_bench_sharded_fleet": fleet_mod.SHARD_FLOOR,
        },
        # The parallel-path gate: end-to-end speedup of the 4-worker run
        # over the single-process run on the same workload.  cpu_count
        # comes from the raw JSON's machine_info (the box that ran the
        # benchmarks), so the check enforces the ratio exactly where 4
        # processes could actually run in parallel.
        "fleet_sharded": {
            "n_sessions": fleet_mod.SHARD_SESSIONS,
            "n_edges": fleet_mod.SHARD_EDGES,
            "workers": fleet_mod.SHARD_WORKERS,
            "speedup_x": shard_base["min_s"] / shard_par["min_s"],
            "speedup_floor_x": fleet_mod.SHARD_SPEEDUP_FLOOR,
            "min_cpus": fleet_mod.SHARD_SPEEDUP_MIN_CPUS,
            "cpu_count": _cpu_count(raw),
        },
        "benchmarks": {
            "test_bench_single_link_fleet": single,
            "test_bench_cdn_fleet": cdn,
            "test_bench_sharded_baseline": shard_base,
            "test_bench_sharded_fleet": shard_par,
        },
    }
    # The telemetry lane (schema v4) is optional on read so raw JSONs
    # produced before the lane existed — and committed v3 baselines —
    # still post-process cleanly.
    def overhead_gate(gate: str, subject_min_s: float, budget: float) -> dict:
        pair = (overheads or {}).get(gate)
        if pair is not None:
            measured = {
                "overhead_x": pair["overhead_x"],
                "measurement": "same-window-pair",
            }
        else:
            measured = {
                "overhead_x": subject_min_s / shard_base["min_s"],
                "measurement": "raw-rows",
            }
        return {
            "n_sessions": fleet_mod.SHARD_SESSIONS,
            "workers": 1,
            "overhead_budget_x": budget,
            **measured,
        }

    if "test_bench_fleet_telemetry" in by_name:
        telemetry = _stats(by_name["test_bench_fleet_telemetry"])
        telemetry["content_s_per_wall_s"] = shard_content / telemetry["min_s"]
        fleet["benchmarks"]["test_bench_fleet_telemetry"] = telemetry
        # The observability gate: tracing + profiling on the acceptance
        # workload, as a multiple of the untraced single-process run —
        # the budget tests' same-window pair when dumped, else the raw
        # rows from this JSON.
        fleet["fleet_telemetry"] = overhead_gate(
            "fleet_telemetry", telemetry["min_s"],
            fleet_mod.TELEMETRY_OVERHEAD_X,
        )
    # The policy-zoo lane (schema v5): BOLA in place of the MPC planner —
    # optional on read for the same reason as the telemetry row, and its
    # floor rides along so the floor gate covers it when present.
    if "test_bench_fleet_bola" in by_name:
        bola = _stats(by_name["test_bench_fleet_bola"])
        bola["content_s_per_wall_s"] = shard_content / bola["min_s"]
        fleet["benchmarks"]["test_bench_fleet_bola"] = bola
        fleet["floors"]["test_bench_fleet_bola"] = fleet_mod.BOLA_FLOOR
    # The chaos lane (schema v6): a default RetryPolicy armed on every
    # request but never firing, gated against the plain run — optional
    # on read like the telemetry and policy-zoo rows.
    if "test_bench_fleet_chaos_armed" in by_name:
        chaos = _stats(by_name["test_bench_fleet_chaos_armed"])
        chaos["content_s_per_wall_s"] = shard_content / chaos["min_s"]
        fleet["benchmarks"]["test_bench_fleet_chaos_armed"] = chaos
        fleet["fleet_chaos"] = overhead_gate(
            "fleet_chaos", chaos["min_s"],
            fleet_mod.CHAOS_ARMED_OVERHEAD_X,
        )
    if phases:
        fleet["phases"] = phases
    return {"BENCH_fleet.json": fleet}


def check_regressions(
    reports: dict[str, dict], out_dir: Path, tolerance: float
) -> tuple[list[str], list[str]]:
    """(failures, notes) vs the committed baselines and the floors.

    Floors are enforced unconditionally, scaled by ``BENCH_FLOOR_SCALE``
    (the same knob the benchmark asserts honor, so a slow shared runner
    is granted the same slack in both gates).  Baseline trajectory is
    compared only when the committed file was produced on an equivalent
    machine — wall-clock numbers do not transfer across hardware.
    """
    floor_scale = float(os.environ.get("BENCH_FLOOR_SCALE", "1.0"))
    failures: list[str] = []
    notes: list[str] = []
    for filename, report in reports.items():
        floors = report.get("floors", {})
        for name, bench in report["benchmarks"].items():
            throughput = bench.get("content_s_per_wall_s")
            floor = floors.get(name)
            if (
                throughput is not None
                and floor is not None
                and throughput < floor * floor_scale
            ):
                failures.append(
                    f"{filename}: {name} at {throughput:.0f} content-s/s "
                    f"is under its floor {floor:.0f} x{floor_scale:g}"
                )
        sharded = report.get("fleet_sharded")
        if sharded is not None:
            # A scaling *ratio* is hardware-normalized, so it is not
            # relaxed by BENCH_FLOOR_SCALE — but it only exists where the
            # workers could run in parallel (cpu_count recorded when the
            # benchmarks ran).
            speedup = sharded["speedup_x"]
            floor = sharded["speedup_floor_x"]
            if sharded["cpu_count"] >= sharded["min_cpus"]:
                if speedup < floor:
                    failures.append(
                        f"{filename}: sharded fleet speedup "
                        f"{speedup:.2f}x at {sharded['workers']} workers "
                        f"is under its floor {floor:g}x"
                    )
            elif speedup < floor:
                notes.append(
                    f"{filename}: sharded speedup {speedup:.2f}x under "
                    f"{floor:g}x but only {sharded['cpu_count']} CPU(s) "
                    f"< {sharded['min_cpus']} — parallel gate skipped"
                )
        telemetry = report.get("fleet_telemetry")
        if telemetry is not None:
            # A same-box ratio (traced vs untraced run from one raw
            # JSON), so — like the sharded speedup — it is not relaxed
            # by BENCH_FLOOR_SCALE.
            overhead = telemetry["overhead_x"]
            budget = telemetry["overhead_budget_x"]
            if overhead > budget:
                failures.append(
                    f"{filename}: enabled telemetry costs {overhead:.2f}x "
                    f"the untraced fleet run, over its {budget:g}x budget"
                )
        chaos = report.get("fleet_chaos")
        if chaos is not None:
            # Same-box ratio (armed vs plain run from one raw JSON), so
            # like the telemetry budget it is not relaxed by
            # BENCH_FLOOR_SCALE.
            overhead = chaos["overhead_x"]
            budget = chaos["overhead_budget_x"]
            if overhead > budget:
                failures.append(
                    f"{filename}: armed-but-idle retry layer costs "
                    f"{overhead:.2f}x the plain fleet run, over its "
                    f"{budget:g}x budget"
                )
        baseline_path = out_dir / filename
        if not baseline_path.exists():
            continue
        baseline = json.loads(baseline_path.read_text())
        if baseline.get("machine") != report.get("machine"):
            notes.append(
                f"{filename}: baseline recorded on different hardware "
                f"({baseline.get('machine')}) — trajectory gate skipped"
            )
            continue
        for name, bench in report["benchmarks"].items():
            base = baseline.get("benchmarks", {}).get(name)
            if base is None or "min_s" not in base:
                continue
            limit = base["min_s"] * (1.0 + tolerance)
            if bench["min_s"] > limit:
                failures.append(
                    f"{filename}: {name} took {bench['min_s'] * 1e3:.1f} ms, "
                    f">{tolerance:.0%} over the committed baseline "
                    f"{base['min_s'] * 1e3:.1f} ms"
                )
    return failures, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("raw_json", help="pytest-benchmark --benchmark-json output")
    parser.add_argument(
        "--out-dir", default=str(REPO_ROOT),
        help="where BENCH_fleet.json lives (default: repo root)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed slowdown vs the committed baseline (default 0.30)",
    )
    parser.add_argument(
        "--no-check", action="store_true",
        help="only rewrite BENCH_fleet.json, skip the regression gate",
    )
    parser.add_argument(
        "--phases", default=None, metavar="FILE",
        help="profiler phase breakdown written by the telemetry "
        "benchmark (BENCH_PHASES_OUT); folded into BENCH_fleet.json",
    )
    parser.add_argument(
        "--overheads", default=None, metavar="FILE",
        help="same-window overhead pairs written by the budget tests "
        "(BENCH_OVERHEADS_OUT); preferred over the raw rows for the "
        "telemetry/chaos overhead gates",
    )
    args = parser.parse_args(argv)

    def _optional_json(path_str, what):
        if not path_str:
            return None
        path = Path(path_str)
        if not path.exists():
            print(f"note: {what} file {path} missing — skipped")
            return None
        return json.loads(path.read_text())

    raw = json.loads(Path(args.raw_json).read_text())
    phases = _optional_json(args.phases, "phases")
    overheads = _optional_json(args.overheads, "overheads")
    out_dir = Path(args.out_dir)
    reports = build_reports(raw, phases=phases, overheads=overheads)
    failures: list[str] = []
    notes: list[str] = []
    if not args.no_check:
        failures, notes = check_regressions(reports, out_dir, args.tolerance)
    out_dir.mkdir(parents=True, exist_ok=True)
    for filename, report in reports.items():
        path = out_dir / filename
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    for note in notes:
        print(f"note: {note}")
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
