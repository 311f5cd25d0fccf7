"""Benchmark-trajectory post-processor: schema, floors, regression gate."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "bench_report", REPO_ROOT / "scripts" / "bench_report.py"
)
bench_report = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_report)

RAW_NAMES = (
    "test_bench_single_link_fleet",
    "test_bench_cdn_fleet",
)

#: the sharded pair scales with min_s but keeps a healthy 4x ratio, so
#: the parallel gate stays green unless a test tampers with it.
SHARDED_NAMES = {
    "test_bench_sharded_baseline": 1.0,
    "test_bench_sharded_fleet": 0.25,
}


def raw_json(min_s=0.1, machine="x86_64", telemetry=True, bola=True, chaos=True):
    stats = {name: min_s for name in RAW_NAMES}
    stats.update(
        {name: min_s * f for name, f in SHARDED_NAMES.items()}
    )
    if telemetry:
        # Traced run at 5% over the untraced baseline — inside the 10%
        # budget.
        stats["test_bench_fleet_telemetry"] = min_s * 1.05
    if bola:
        # BOLA skips horizon planning, so its run is faster than the
        # MPC baseline lane.
        stats["test_bench_fleet_bola"] = min_s * 0.4
    if chaos:
        # Armed-but-idle retry layer at 2% over the plain run — inside
        # its 10% budget.
        stats["test_bench_fleet_chaos_armed"] = min_s * 1.02
    return {
        "machine_info": {
            "machine": machine,
            "processor": machine,
            "python_version": "3.11.7",
        },
        "benchmarks": [
            {"name": name, "stats": {"min": s, "mean": s * 1.1, "rounds": 3}}
            for name, s in stats.items()
        ],
    }


class TestBuildReports:
    def test_schema_and_throughput(self):
        reports = bench_report.build_reports(raw_json(min_s=0.1))
        assert set(reports) == {"BENCH_fleet.json"}
        fleet = reports["BENCH_fleet.json"]
        assert fleet["schema"] == bench_report.SCHEMA_VERSION
        assert fleet["suite"] == "fleet"
        single = fleet["benchmarks"]["test_bench_single_link_fleet"]
        # content-s per wall-s is derived from the module's workload size.
        assert single["content_s_per_wall_s"] == pytest.approx(
            fleet["content_seconds"] / 0.1
        )

    def test_floors_mirror_benchmark_modules(self):
        """The committed floors are imported from, not duplicated against,
        the benchmark modules."""
        reports = bench_report.build_reports(raw_json())
        fleet_mod = bench_report._load_module(
            REPO_ROOT / "benchmarks" / "bench_fleet.py"
        )
        floors = reports["BENCH_fleet.json"]["floors"]
        assert floors["test_bench_single_link_fleet"] == fleet_mod.SINGLE_LINK_FLOOR
        assert floors["test_bench_cdn_fleet"] == fleet_mod.CDN_FLOOR
        assert floors["test_bench_sharded_fleet"] == fleet_mod.SHARD_FLOOR
        assert (
            floors["test_bench_sharded_baseline"]
            == fleet_mod.SHARD_BASELINE_FLOOR
        )

    def test_fleet_sharded_row(self):
        """The parallel path has its own trajectory row: throughput for
        both worker counts plus the end-to-end scaling ratio."""
        reports = bench_report.build_reports(raw_json(min_s=0.1))
        fleet = reports["BENCH_fleet.json"]
        sharded = fleet["fleet_sharded"]
        assert sharded["speedup_x"] == pytest.approx(4.0)
        assert sharded["workers"] >= 2
        assert sharded["speedup_floor_x"] >= 2.0
        assert sharded["cpu_count"] >= 1
        par = fleet["benchmarks"]["test_bench_sharded_fleet"]
        assert par["content_s_per_wall_s"] == pytest.approx(
            fleet["content_seconds_sharded"] / 0.025
        )

    def test_fleet_telemetry_row(self):
        """The traced lane's trajectory row carries the overhead ratio
        against the untraced single-process run from the same raw JSON."""
        reports = bench_report.build_reports(raw_json(min_s=0.1))
        fleet = reports["BENCH_fleet.json"]
        telemetry = fleet["fleet_telemetry"]
        assert telemetry["workers"] == 1
        assert telemetry["overhead_x"] == pytest.approx(1.05)
        assert telemetry["overhead_budget_x"] > 1.0
        bench = fleet["benchmarks"]["test_bench_fleet_telemetry"]
        assert bench["content_s_per_wall_s"] == pytest.approx(
            fleet["content_seconds_sharded"] / 0.105
        )

    def test_raw_without_telemetry_lane_still_builds(self):
        """Raw JSONs from before the telemetry lane (schema v3 era)
        post-process cleanly — the v4 fields are optional on read."""
        reports = bench_report.build_reports(raw_json(telemetry=False))
        fleet = reports["BENCH_fleet.json"]
        assert "fleet_telemetry" not in fleet
        assert "test_bench_fleet_telemetry" not in fleet["benchmarks"]
        assert "phases" not in fleet

    def test_bola_row(self):
        """The policy-zoo lane (schema v5) rides with its own committed
        floor when present in the raw JSON."""
        reports = bench_report.build_reports(raw_json(min_s=0.1))
        fleet = reports["BENCH_fleet.json"]
        bench = fleet["benchmarks"]["test_bench_fleet_bola"]
        assert bench["content_s_per_wall_s"] == pytest.approx(
            fleet["content_seconds_sharded"] / 0.04
        )
        fleet_mod = bench_report._load_module(
            REPO_ROOT / "benchmarks" / "bench_fleet.py"
        )
        assert fleet["floors"]["test_bench_fleet_bola"] == fleet_mod.BOLA_FLOOR

    def test_raw_without_bola_lane_still_builds(self):
        """Raw JSONs from before the policy-zoo lane (schema v4 era)
        post-process cleanly — the v5 fields are optional on read."""
        reports = bench_report.build_reports(raw_json(bola=False))
        fleet = reports["BENCH_fleet.json"]
        assert "test_bench_fleet_bola" not in fleet["benchmarks"]
        assert "test_bench_fleet_bola" not in fleet["floors"]

    def test_fleet_chaos_row(self):
        """The chaos lane (schema v6) carries the armed-but-idle retry
        overhead against the plain run; without a pair dump the ratio is
        derived from the raw rows and tagged as such."""
        reports = bench_report.build_reports(raw_json(min_s=0.1))
        fleet = reports["BENCH_fleet.json"]
        chaos = fleet["fleet_chaos"]
        assert chaos["workers"] == 1
        assert chaos["overhead_x"] == pytest.approx(1.02)
        assert chaos["overhead_budget_x"] > 1.0
        assert chaos["measurement"] == "raw-rows"
        bench = fleet["benchmarks"]["test_bench_fleet_chaos_armed"]
        assert bench["content_s_per_wall_s"] == pytest.approx(
            fleet["content_seconds_sharded"] / 0.102
        )

    def test_raw_without_chaos_lane_still_builds(self):
        """Raw JSONs from before the chaos lane (schema v5 era)
        post-process cleanly — the v6 fields are optional on read."""
        reports = bench_report.build_reports(raw_json(chaos=False))
        fleet = reports["BENCH_fleet.json"]
        assert "fleet_chaos" not in fleet
        assert "test_bench_fleet_chaos_armed" not in fleet["benchmarks"]

    def test_same_window_pairs_preferred_over_raw_rows(self):
        """The budget tests' interleaved pair dump supplies the overhead
        ratios when present — the raw rows are measured minutes apart,
        so a drifting box records a ratio no same-window run reproduces."""
        overheads = {
            "fleet_telemetry": {
                "base_wall_s": 20.0, "wall_s": 21.4, "overhead_x": 1.07,
            },
            "fleet_chaos": {
                "base_wall_s": 20.0, "wall_s": 19.0, "overhead_x": 0.95,
            },
        }
        reports = bench_report.build_reports(
            raw_json(min_s=0.1), overheads=overheads
        )
        fleet = reports["BENCH_fleet.json"]
        assert fleet["fleet_telemetry"]["overhead_x"] == pytest.approx(1.07)
        assert fleet["fleet_telemetry"]["measurement"] == "same-window-pair"
        assert fleet["fleet_chaos"]["overhead_x"] == pytest.approx(0.95)
        assert fleet["fleet_chaos"]["measurement"] == "same-window-pair"
        # A dump carrying only one gate leaves the other on raw rows.
        partial = bench_report.build_reports(
            raw_json(min_s=0.1),
            overheads={"fleet_chaos": overheads["fleet_chaos"]},
        )
        fleet = partial["BENCH_fleet.json"]
        assert fleet["fleet_telemetry"]["measurement"] == "raw-rows"
        assert fleet["fleet_chaos"]["measurement"] == "same-window-pair"

    def test_phases_folded_into_fleet_report(self):
        phases = {
            "workload": "sharded w1 2000x8s",
            "wall_s": 20.0,
            "phases": {"scheduler": {"seconds": 10.0, "calls": 5, "pct": 50.0}},
        }
        reports = bench_report.build_reports(raw_json(), phases=phases)
        assert reports["BENCH_fleet.json"]["phases"] == phases

    def test_missing_benchmark_fails_loudly(self):
        with pytest.raises(SystemExit, match="missing"):
            bench_report.build_reports({"benchmarks": []})


class TestRegressionGate:
    def test_floor_violation_detected(self, tmp_path):
        # 10 s/run is far under any throughput floor.
        reports = bench_report.build_reports(raw_json(min_s=10.0))
        failures, _ = bench_report.check_regressions(reports, tmp_path, 0.3)
        assert any("under its floor" in f for f in failures)

    def test_floor_scale_env_grants_slack(self, tmp_path, monkeypatch):
        """BENCH_FLOOR_SCALE relaxes the floors the same way the
        benchmark asserts do (slow shared CI runners)."""
        slow = bench_report.build_reports(raw_json(min_s=0.3))
        failures, _ = bench_report.check_regressions(slow, tmp_path, 0.3)
        assert any("under its floor" in f for f in failures)
        monkeypatch.setenv("BENCH_FLOOR_SCALE", "0.5")
        failures, _ = bench_report.check_regressions(slow, tmp_path, 0.3)
        assert failures == []

    def test_regression_vs_committed_baseline(self, tmp_path):
        fast = bench_report.build_reports(raw_json(min_s=0.05))
        for name, report in fast.items():
            (tmp_path / name).write_text(json.dumps(report))
        slow = bench_report.build_reports(raw_json(min_s=0.08))  # +60%
        failures, notes = bench_report.check_regressions(slow, tmp_path, 0.3)
        assert any("over the committed baseline" in f for f in failures)
        assert notes == []
        # Within tolerance passes.
        ok = bench_report.build_reports(raw_json(min_s=0.06))  # +20%
        assert bench_report.check_regressions(ok, tmp_path, 0.3) == ([], [])

    def test_baseline_from_other_machine_skipped_with_note(self, tmp_path):
        """Wall-clock baselines do not transfer across hardware: a
        committed baseline from another box skips the trajectory gate
        (floors still apply) instead of failing spuriously."""
        fast = bench_report.build_reports(raw_json(min_s=0.05, machine="ref-box"))
        for name, report in fast.items():
            (tmp_path / name).write_text(json.dumps(report))
        slow = bench_report.build_reports(raw_json(min_s=0.08, machine="ci-runner"))
        failures, notes = bench_report.check_regressions(slow, tmp_path, 0.3)
        assert failures == []
        assert any("different hardware" in n for n in notes)

    def test_no_baseline_means_no_trajectory_failures(self, tmp_path):
        reports = bench_report.build_reports(raw_json(min_s=0.05))
        assert bench_report.check_regressions(reports, tmp_path, 0.3) == ([], [])

    def test_lost_sharded_speedup_fails_on_parallel_hardware(self, tmp_path):
        """A speedup under the floor fails the gate wherever the workers
        could actually run in parallel (cpu_count recorded at build)."""
        reports = bench_report.build_reports(raw_json(min_s=0.01))
        sharded = reports["BENCH_fleet.json"]["fleet_sharded"]
        sharded["speedup_x"] = 1.3
        sharded["cpu_count"] = 8
        failures, _ = bench_report.check_regressions(reports, tmp_path, 0.3)
        assert any("1.30x" in f and "under its floor" in f for f in failures)

    def test_lost_sharded_speedup_noted_not_failed_on_few_cpus(self, tmp_path):
        """The same regression on a 1-CPU box cannot be distinguished
        from missing parallelism: visible note, no failure."""
        reports = bench_report.build_reports(raw_json(min_s=0.01))
        sharded = reports["BENCH_fleet.json"]["fleet_sharded"]
        sharded["speedup_x"] = 1.3
        sharded["cpu_count"] = 1
        failures, notes = bench_report.check_regressions(reports, tmp_path, 0.3)
        assert failures == []
        assert any("parallel gate skipped" in n for n in notes)

    def test_telemetry_over_budget_fails(self, tmp_path):
        """Enabled-telemetry overhead past its budget fails the gate on
        any hardware — a same-box ratio, like the sharded speedup."""
        reports = bench_report.build_reports(raw_json(min_s=0.01))
        telemetry = reports["BENCH_fleet.json"]["fleet_telemetry"]
        telemetry["overhead_x"] = 1.4
        failures, _ = bench_report.check_regressions(reports, tmp_path, 0.3)
        assert any(
            "telemetry costs 1.40x" in f and "budget" in f for f in failures
        )

    def test_telemetry_budget_ignores_floor_scale(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BENCH_FLOOR_SCALE", "0.1")
        reports = bench_report.build_reports(raw_json(min_s=0.01))
        reports["BENCH_fleet.json"]["fleet_telemetry"]["overhead_x"] = 1.4
        failures, _ = bench_report.check_regressions(reports, tmp_path, 0.3)
        assert any("telemetry costs 1.40x" in f for f in failures)

    def test_chaos_over_budget_fails(self, tmp_path, monkeypatch):
        """Armed-retry overhead past its budget fails the gate on any
        hardware — a same-box ratio, not relaxed by BENCH_FLOOR_SCALE."""
        monkeypatch.setenv("BENCH_FLOOR_SCALE", "0.1")
        reports = bench_report.build_reports(raw_json(min_s=0.01))
        reports["BENCH_fleet.json"]["fleet_chaos"]["overhead_x"] = 1.4
        failures, _ = bench_report.check_regressions(reports, tmp_path, 0.3)
        assert any(
            "retry layer costs 1.40x" in f and "budget" in f
            for f in failures
        )

    def test_schema3_baseline_still_compares(self, tmp_path):
        """A committed v3 baseline (no telemetry row, no phases) gates
        the shared rows and silently skips the v4-only ones."""
        old = bench_report.build_reports(raw_json(min_s=0.05, telemetry=False))
        for name, report in old.items():
            report["schema"] = 3
            (tmp_path / name).write_text(json.dumps(report))
        new = bench_report.build_reports(raw_json(min_s=0.05))
        assert bench_report.check_regressions(new, tmp_path, 0.3) == ([], [])
        slow = bench_report.build_reports(raw_json(min_s=0.08))
        failures, _ = bench_report.check_regressions(slow, tmp_path, 0.3)
        assert any("over the committed baseline" in f for f in failures)

    def test_floor_scale_does_not_relax_the_speedup_ratio(self, tmp_path, monkeypatch):
        """BENCH_FLOOR_SCALE compensates slow hardware; a scaling ratio
        is hardware-normalized, so the env knob must not weaken it."""
        monkeypatch.setenv("BENCH_FLOOR_SCALE", "0.1")
        reports = bench_report.build_reports(raw_json(min_s=0.01))
        sharded = reports["BENCH_fleet.json"]["fleet_sharded"]
        sharded["speedup_x"] = 1.3
        sharded["cpu_count"] = 8
        failures, _ = bench_report.check_regressions(reports, tmp_path, 0.3)
        assert any("under its floor 2x" in f for f in failures)


class TestMain:
    def test_writes_files_and_exit_codes(self, tmp_path):
        raw_path = tmp_path / "raw.json"
        raw_path.write_text(json.dumps(raw_json(min_s=0.05)))
        rc = bench_report.main([str(raw_path), "--out-dir", str(tmp_path)])
        assert rc == 0
        assert [p.name for p in tmp_path.glob("BENCH_*.json")] == [
            "BENCH_fleet.json"
        ]
        doc = json.loads((tmp_path / "BENCH_fleet.json").read_text())
        assert doc["schema"] == bench_report.SCHEMA_VERSION
        # A >30% slower rerun against the just-written baseline fails…
        raw_path.write_text(json.dumps(raw_json(min_s=0.08)))
        assert bench_report.main([str(raw_path), "--out-dir", str(tmp_path)]) == 1
        # …unless the gate is disabled.
        assert (
            bench_report.main(
                [str(raw_path), "--out-dir", str(tmp_path), "--no-check"]
            )
            == 0
        )

    def test_phases_flag_folds_file_and_tolerates_absence(self, tmp_path):
        raw_path = tmp_path / "raw.json"
        raw_path.write_text(json.dumps(raw_json(min_s=0.05)))
        phases_path = tmp_path / "bench-phases.json"
        phases_path.write_text(json.dumps({"wall_s": 1.0, "phases": {}}))
        rc = bench_report.main(
            [str(raw_path), "--out-dir", str(tmp_path),
             "--phases", str(phases_path)]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "BENCH_fleet.json").read_text())
        assert doc["phases"] == {"wall_s": 1.0, "phases": {}}
        # A named-but-missing phases file is a note, not a crash (the
        # benchmark lane may not have run).
        rc = bench_report.main(
            [str(raw_path), "--out-dir", str(tmp_path), "--no-check",
             "--phases", str(tmp_path / "nope.json")]
        )
        assert rc == 0

    def test_committed_bench_files_match_schema(self):
        """The file at the repo root stays loadable and current-schema,
        and is the only one."""
        assert [p.name for p in REPO_ROOT.glob("BENCH_*.json")] == [
            "BENCH_fleet.json"
        ]
        doc = json.loads((REPO_ROOT / "BENCH_fleet.json").read_text())
        assert doc["schema"] == bench_report.SCHEMA_VERSION
        assert doc["benchmarks"]
        for bench in doc["benchmarks"].values():
            assert bench["min_s"] > 0.0
