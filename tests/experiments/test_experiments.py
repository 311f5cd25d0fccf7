"""Experiment harness tests: every table/figure runs and has the shape its
readers rely on.  The paper's bands and orderings are judged once, by the
reproduction ledger (``test_reproduction.py``), on the same ``SMOKE`` runs
(the ``paper_table`` fixture)."""

import pytest

from repro.experiments import (
    SMOKE,
    Scale,
    run_breakdown_measured,
    run_fig17_measured,
    run_fleet_cdn,
    run_fleet_chaos,
    run_fleet_policies,
    run_fleet_scaling,
    run_table1,
)

TINY = Scale(
    name="tiny",
    points_per_frame=1200,
    quality_frames=1,
    image_size=64,
    train_epochs=4,
    stream_seconds=30,
)


class TestTable1:
    def test_render_is_text(self):
        out = run_table1().render()
        assert "Table 1" in out and "128" in out


class TestFig4:
    def test_ground_truth_row_present(self, paper_table):
        gt = paper_table("fig4").lookup(cloud="ground-truth")
        assert gt["coverage_radius"] == 0.0


class TestSRQuality:
    @pytest.fixture(scope="class")
    def table(self, paper_table):
        return paper_table("fig7-10")

    def test_all_cells_present(self, table):
        assert len(table.rows) == 4 * 2 * 4  # videos x ratios x methods

    def test_psnr_positive(self, table):
        assert all(r["psnr_db"] > 5 for r in table.rows)


class TestFig11:
    def test_measured_octree_wins_at_scale(self, monkeypatch):
        """Fig 11's claim on work, not on a clock: interpolating the
        ``SMOKE`` frame at ×2, the two-layer octree computes ≈ 107
        distances per query point (summed over every query its
        ``self_neighbors`` makes; ``query_stats`` keeps only the last),
        where brute force computes ``n`` = 3,000.  The wall-clock form is
        ``benchmarks/test_fig11_interp_fps.py::test_fig11_measured``."""
        from repro.pointcloud.datasets import make_video
        from repro.spatial.octree import TwoLayerOctree
        from repro.sr.interpolation import interpolate

        pairs = []
        query = TwoLayerOctree.query

        def counted(self, queries, k):
            out = query(self, queries, k)
            pairs.append(self.query_stats["candidate_pairs"])
            return out

        monkeypatch.setattr(TwoLayerOctree, "query", counted)
        low = make_video("longdress", n_points=SMOKE.points_per_frame, n_frames=1).frame(0)
        interpolate(low, 2.0, k=4, dilation=2, backend="octree", seed=0)
        per_query = sum(pairs) / len(low)
        assert pairs and len(low) > 1.5 * per_query, (len(low), per_query)


class TestStreamingEval:
    @pytest.fixture(scope="class")
    def table(self, paper_table):
        return paper_table("fig12-13")

    def test_all_conditions_and_systems(self, table):
        conditions = set(table.column("condition"))
        assert {"stable-50", "lte-all", "lte-low"} <= conditions
        assert set(table.column("system")) == {"volut", "yuzu-sr", "vivo", "raw"}

    def test_volut_qoe_and_raw_data_are_the_references(self, table):
        for cond in ("stable-50", "lte-all", "lte-low"):
            assert table.lookup(condition=cond, system="volut")["norm_qoe"] == 100.0
            assert table.lookup(condition=cond, system="raw")["data_pct"] == 100.0


class TestFleetScaling:
    @pytest.fixture(scope="class")
    def table(self):
        return run_fleet_scaling(
            TINY, fleet_sizes=(1, 4, 16), link_mbps=400.0,
            population_sessions=40,
        )

    def test_all_fleet_sizes_reported(self, table):
        assert table.column("n_sessions")[:3] == [1, 4, 16]

    def test_every_row_is_fair_sharing(self, table):
        assert table.column("policy") == ["fair"] * 3 + ["fair+poisson+churn"]

    def test_contention_degrades_qoe(self, table):
        qoes = table.column("mean_qoe")
        assert qoes[0] > qoes[2]  # 16 clients on the pipe beats 1 never

    def test_cache_hit_rate_grows_with_fleet(self, table):
        hits = table.column("cache_hit")
        assert hits[0] == 0.0  # nobody to share with
        assert hits[1] > 0.0
        assert hits[2] >= hits[1]

    def test_tail_below_mean_below_p95(self, table):
        for row in table.rows:
            assert row["p5_qoe"] <= row["mean_qoe"] <= row["p95_qoe"]

    def test_population_row_runs_end_to_end(self, table):
        row = table.rows[-1]
        assert row["policy"].endswith("+poisson+churn")
        assert 1 <= row["n_sessions"] <= 40
        assert 0.0 <= row["abandon_rate"] <= 1.0
        assert row["cache_hit"] > 0.0  # Zipf catalog forces co-watching


class TestFleetCDN:
    @pytest.fixture(scope="class")
    def table(self):
        return run_fleet_cdn(TINY, n_sessions=48, n_edges=3)

    def test_all_variants_reported(self, table):
        assert table.column("topology") == [
            "single-link", "no-cache", "cdn", "cdn", "cdn", "cdn+slow-encode",
        ]
        assert table.column("assign")[2:5] == [
            "static", "least-loaded", "popularity",
        ]

    def test_edge_caching_reduces_origin_egress(self, table):
        """The acceptance demonstration: warm edge caches cut origin
        egress below the cache-disabled run on a Zipf population."""
        no_cache = table.rows[1]
        warm = table.rows[4]  # popularity assignment
        assert no_cache["edge_hit"] == 0.0
        assert warm["edge_hit"] > 0.0
        assert warm["origin_gb"] < no_cache["origin_gb"]
        assert warm["data_gb"] >= no_cache["data_gb"]

    def test_origin_egress_never_exceeds_delivered(self, table):
        for row in table.rows:
            assert row["origin_gb"] <= row["data_gb"] + 1e-9

    def test_starved_encoder_shows_queue_waits(self, table):
        assert table.rows[-1]["enc_p95_s"] > table.rows[4]["enc_p95_s"]


class TestFleetChaos:
    @pytest.fixture(scope="class")
    def table(self):
        return run_fleet_chaos(TINY, n_sessions=48, n_edges=3)

    def test_all_scenarios_reported(self, table):
        scenarios = table.column("scenario")
        assert scenarios[:10] == [
            "baseline", "baseline", "edge-outage", "edge-outage",
            "region-outage", "region-outage", "gray-edge",
            "backhaul-degr", "retry-timeout", "flash-crowd",
        ]
        assert scenarios[10] == "slow-encode"
        assert scenarios[11].startswith("qoe-autoscale")

    def test_outage_resteers_and_recovers(self, table):
        """The acceptance demonstration: an edge outage re-steers a
        nonzero viewer share and the fleet recovers in finite time."""
        import math

        for row in table.rows:
            if row["scenario"] != "edge-outage":
                continue
            assert row["resteer"] > 0
            assert math.isfinite(row["recover_s"])

    def test_fault_free_baseline_reports_no_faults(self, table):
        off = table.rows[0]
        assert off["resteer"] == 0 and off["ticks"] == 0
        assert off["dip"] == 0.0 and off["recover_s"] == 0.0

    def test_controller_ticks_only_when_enabled(self, table):
        for row in table.rows:
            assert (row["ticks"] > 0) == (row["ctrl"] == "on")

    def test_slow_encode_forces_pool_resizes(self, table):
        assert table.lookup(scenario="slow-encode")["resizes"] > 0

    def test_region_outage_fails_over_with_retries(self, table):
        """The regional scenario must fail viewers over and the retry
        layer must have re-issued attempts (timeouts or evacuations)."""
        for row in table.rows:
            if row["scenario"] != "region-outage":
                continue
            assert row["resteer"] > 0
            assert row["retries"] > 0

    def test_gray_edge_never_resteers_on_outage(self, table):
        """A gray edge is never dark, so nothing evacuates; drops and
        timeouts are absorbed by the retry layer."""
        row = table.lookup(scenario="gray-edge")
        assert row["retries"] > 0

    def test_retry_timeout_row_cancels_requests(self, table):
        """The impatient-client row must exercise the timeout path: the
        experiment itself raises when no request times out, and every
        timed-out attempt is also a counted retry."""
        row = table.lookup(scenario="retry-timeout")
        assert row["timeouts"] > 0
        assert row["retries"] >= row["timeouts"]

    def test_regional_mode_runs_only_the_regional_battery(self):
        """--regional (the nightly smoke) restricts the table to the
        fault-free baseline plus the correlated region-outage pair."""
        table = run_fleet_chaos(
            TINY, n_sessions=48, n_edges=3, regional=True
        )
        assert table.column("scenario") == [
            "baseline", "region-outage", "region-outage",
        ]
        for row in table.rows[1:]:
            assert row["resteer"] > 0

    def test_autoscale_row_learned_a_day2_scale(self, table):
        row = table.rows[11]
        # The label carries the learned multiplier: "qoe-autoscale d2x0.75 nNN"
        scale = float(row["scenario"].split("d2x")[1].split()[0])
        assert 0.0 < scale <= 1.0


class TestFleetPolicies:
    @pytest.fixture(scope="class")
    def table(self):
        return run_fleet_policies(TINY, n_sessions=48, n_edges=2)

    def test_every_zoo_policy_gets_a_row(self, table):
        from repro.experiments.fleet_policies import ZOO_POLICIES

        assert table.column("policy") == list(ZOO_POLICIES)

    def test_pareto_front_nonempty(self, table):
        assert "*" in table.column("pareto")

    def test_costs_are_positive_dollars(self, table):
        for row in table.rows:
            assert row["total_usd"] > 0.0
            assert row["egress_usd"] > 0.0

    def test_ci_brackets_mean(self, table):
        for row in table.rows:
            lo, hi = (float(v) for v in row["qoe_ci95"].strip("[]").split(","))
            assert lo <= row["mean_qoe"] <= hi


class TestScenario:
    """``run_scenario``'s costs are paid where they are asked for."""

    ROW_SCALE = Scale(
        name="scenario", points_per_frame=1200, quality_frames=1,
        image_size=64, train_epochs=4, stream_seconds=8,
    )

    def test_ci_is_resampled_only_for_a_table_that_shows_it(self, monkeypatch):
        from repro.experiments import Scenario, run_scenario, scenario
        from repro.experiments.common import ResultTable
        from repro.experiments.scenario import add_row

        calls = []
        real = scenario.bootstrap_ci
        monkeypatch.setattr(
            scenario, "bootstrap_ci",
            lambda *a, **k: calls.append(1) or real(*a, **k),
        )
        report = run_scenario(Scenario(8, edges=2), self.ROW_SCALE)
        add_row(ResultTable("t", ["mean_qoe"]), report)
        assert calls == []
        shown = ResultTable("t", ["mean_qoe", "qoe_ci95"])
        add_row(shown, report)
        assert calls == [1]
        assert shown.rows[0]["qoe_ci95"].startswith("[")

    @pytest.mark.parametrize(
        "arrivals, days", [("poisson", 1), ("diurnal", 1), ("diurnal", 3)]
    )
    def test_a_row_yields_exactly_its_configured_audience(self, arrivals, days):
        """Its topology is provisioned for ``n_sessions``; a short draw
        (18 of 24 diurnal viewers at ``SMOKE``) is redrawn at a higher
        rate, not left under-filled."""
        from repro.experiments import SMOKE, Scenario

        for n in range(1, 61):
            row = Scenario(n, arrivals=arrivals, days=days)
            assert len(row.population(SMOKE)) == n, n

    def test_a_twin_runs_once_per_memo_and_not_across_memos(self, monkeypatch):
        from dataclasses import replace

        from repro.experiments import Scenario, run_scenario, scenario
        from repro.experiments.fleet_chaos import edge_outage

        runs = []
        real = scenario._simulate
        monkeypatch.setattr(
            scenario, "_simulate",
            lambda row, *a, **k: runs.append(row) or real(row, *a, **k),
        )
        base = Scenario(8, edges=2)
        faulted = replace(base, faults=edge_outage)
        memo: dict = {}
        hit = run_scenario(faulted, self.ROW_SCALE, runs=memo)
        again = run_scenario(base, self.ROW_SCALE, runs=memo)
        assert runs == [faulted, base]
        assert again.result is hit.twin
        # a fresh memo (or none) keeps nothing from an earlier one
        run_scenario(faulted, self.ROW_SCALE)
        assert runs == [faulted, base, faulted, base]


class TestAblation:
    def test_h1_is_the_reference(self, paper_table):
        h1 = paper_table("fig14").lookup(variant="H1")
        assert h1["norm_qoe"] == h1["data_vs_h1"] == 100.0


class TestMemoryAndRuntime:
    def test_fig15_gradpu_is_the_reference(self, paper_table):
        gradpu = paper_table("fig15").lookup(system="gradpu (pytorch)")
        assert gradpu["vs_gradpu_pct"] == 100.0

    def test_fig16_measured_knn_dominates(self):
        t = run_breakdown_measured(TINY)
        shares = {r["stage"]: r["share_pct"] for r in t.rows}
        assert shares["knn"] == max(shares.values())

    def test_fig17_measured_ordering(self):
        t = run_fig17_measured(TINY)
        v = t.lookup(system="volut")["ms"]
        y = t.lookup(system="yuzu")["ms"]
        g = t.lookup(system="gradpu")["ms"]
        assert v < y < g


class TestCompressionRD:
    def test_distortion_falls_with_depth(self, paper_table):
        table = paper_table("compression-rd")
        cds = [r["chamfer"] for r in table.rows if r["video"] == "longdress"]
        assert all(a > b for a, b in zip(cds, cds[1:]))


class TestResultTable:
    def test_lookup_missing(self):
        t = run_table1()
        with pytest.raises(KeyError):
            t.lookup(rf_size=99)
        with pytest.raises(KeyError):
            t.column("nope")

    def test_add_validates_columns(self):
        from repro.experiments import ResultTable

        t = ResultTable(title="t", columns=["a", "b"])
        with pytest.raises(ValueError):
            t.add(a=1)
