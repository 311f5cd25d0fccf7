"""Experiment harness tests: every table/figure runs and shows the paper's
qualitative shape at smoke scale."""

import pytest

from repro.experiments import (
    SMOKE,
    Scale,
    run_ablation,
    run_breakdown_device,
    run_breakdown_measured,
    run_compression_rd,
    run_fig4,
    run_fig11_device,
    run_fig11_measured,
    run_fig17_device,
    run_fig17_measured,
    run_fig18_device,
    run_fleet_cdn,
    run_fleet_chaos,
    run_fleet_policies,
    run_fleet_scaling,
    run_memory_usage,
    run_sr_quality,
    run_streaming_eval,
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
    def test_paper_rows(self):
        t = run_table1()
        assert len(t.rows) == 6
        row = t.lookup(rf_size=4, bins=128)
        assert row["entries"] == 805306368
        assert row["size"] == "1.61 GB"

    def test_render_is_text(self):
        out = run_table1().render()
        assert "Table 1" in out and "128" in out


class TestFig4:
    def test_dilated_more_uniform_than_naive(self):
        # The uniformity gap needs enough points to be stable; the smallest
        # TINY scale is too sparse for the density statistic.
        t = run_fig4(SMOKE)
        dil = t.lookup(cloud="dilated-k4d2")
        nai = t.lookup(cloud="naive-k4d1")
        assert dil["density_cv"] < nai["density_cv"]

    def test_ground_truth_row_present(self):
        t = run_fig4(TINY)
        gt = t.lookup(cloud="ground-truth")
        assert gt["coverage_radius"] == 0.0


class TestSRQuality:
    @pytest.fixture(scope="class")
    def table(self):
        return run_sr_quality(TINY, ratios=(2.0,), videos=("longdress", "lab"), n_views=2)

    def test_all_cells_present(self, table):
        assert len(table.rows) == 2 * 1 * 4  # videos x ratios x methods

    def test_psnr_positive(self, table):
        assert all(r["psnr_db"] > 5 for r in table.rows)

    def test_lut_improves_chamfer_over_plain_interp(self, table):
        for video in ("longdress", "lab"):
            lut = table.lookup(video=video, ratio=2.0, method="K4d2-lut")
            plain = table.lookup(video=video, ratio=2.0, method="K4d2")
            assert lut["chamfer"] <= plain["chamfer"] * 1.05

    def test_generalizes_across_videos(self, table):
        """LUT trained on longdress still helps on the lab scene."""
        lut = table.lookup(video="lab", ratio=2.0, method="K4d2-lut")
        assert lut["chamfer"] < float("inf")


class TestFig11:
    def test_measured_octree_wins_at_scale(self):
        t = run_fig11_measured(SMOKE, ratios=(2.0,), repeats=1)
        assert t.rows[0]["speedup"] > 1.5
        # the compiled yardstick is reported, not asserted against
        assert t.columns[-1] == "kdtree_ms" and t.rows[0]["kdtree_ms"] > 0

    def test_device_model_speedups_in_paper_band(self):
        t = run_fig11_device()
        for row in t.rows:
            if row["device"] == "orange-pi":
                assert 3.0 < row["speedup"] < 4.5
            else:
                assert 7.0 < row["speedup"] < 9.0

    def test_orange_pi_8x_near_paper(self):
        t = run_fig11_device()
        row = t.lookup(device="orange-pi", ratio=8.0)
        assert 24 < row["ours_fps"] < 40  # paper: 31.2
        assert 6 < row["vanilla_fps"] < 10  # paper: 8.0


class TestStreamingEval:
    @pytest.fixture(scope="class")
    def table(self):
        return run_streaming_eval(TINY, lte_profiles=((32.5, 13.5),))

    def test_all_conditions_and_systems(self, table):
        conditions = set(table.column("condition"))
        assert {"stable-50", "lte-all", "lte-low"} <= conditions
        assert set(table.column("system")) == {"volut", "yuzu-sr", "vivo", "raw"}

    def test_volut_normalized_to_100(self, table):
        for cond in ("stable-50", "lte-low"):
            assert table.lookup(condition=cond, system="volut")["norm_qoe"] == 100.0

    def test_fig12_ordering_stable(self, table):
        v = table.lookup(condition="stable-50", system="volut")["norm_qoe"]
        y = table.lookup(condition="stable-50", system="yuzu-sr")["norm_qoe"]
        vi = table.lookup(condition="stable-50", system="vivo")["norm_qoe"]
        assert v > y > vi

    def test_fig13_data_usage(self, table):
        raw = table.lookup(condition="stable-50", system="raw")["data_pct"]
        volut = table.lookup(condition="stable-50", system="volut")["data_pct"]
        assert raw == 100.0
        assert volut < 45.0  # the ~70%-reduction headline


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
        return run_fleet_policies(TINY, n_sessions=48, n_edges=2, n_boot=50)

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


class TestAblation:
    @pytest.fixture(scope="class")
    def table(self):
        return run_ablation(TINY, lte_profiles=((32.5, 13.5), (75.0, 20.0)))

    def test_h1_best_qoe(self, table):
        h1 = table.lookup(variant="H1")["norm_qoe"]
        h2 = table.lookup(variant="H2")["norm_qoe"]
        h3 = table.lookup(variant="H3")["norm_qoe"]
        assert h1 == 100.0
        assert h1 > h2 > h3

    def test_h2_uses_more_data(self, table):
        assert table.lookup(variant="H2")["data_vs_h1"] > 100.0


class TestMemoryAndRuntime:
    def test_fig15_memory_relationships(self):
        t = run_memory_usage()
        volut = t.lookup(system="volut (1 LUT)")
        gradpu = t.lookup(system="gradpu (pytorch)")
        yuzu = t.lookup(system="yuzu (frozen c++)")
        # Paper: ~86% less than GradPU; comparable to YuZu (same order).
        assert volut["vs_gradpu_pct"] < 20.0
        assert gradpu["vs_gradpu_pct"] == 100.0
        assert yuzu["total_mb"] < 10 * volut["total_mb"]

    def test_fig16_knn_dominates_on_both_devices(self):
        t = run_breakdown_device()
        for device in ("desktop-gpu", "orange-pi"):
            shares = {
                r["stage"]: r["share_pct"] for r in t.rows if r["device"] == device
            }
            assert shares["knn"] == max(shares.values())
            assert shares["refinement"] < shares["knn"]

    def test_fig16_measured_knn_dominates(self):
        t = run_breakdown_measured(TINY)
        shares = {r["stage"]: r["share_pct"] for r in t.rows}
        assert shares["knn"] == max(shares.values())

    def test_fig17_device_orderings(self):
        t = run_fig17_device()
        v = t.lookup(system="volut")
        y = t.lookup(system="yuzu")
        g = t.lookup(system="gradpu")
        assert v["fps"] > y["fps"] > g["fps"]
        assert 6 < y["slowdown_vs_volut"] < 14      # paper: 8.4
        assert 1e4 < g["slowdown_vs_volut"] < 1e5   # paper: 46,400

    def test_fig17_measured_ordering(self):
        t = run_fig17_measured(TINY)
        v = t.lookup(system="volut")["ms"]
        y = t.lookup(system="yuzu")["ms"]
        g = t.lookup(system="gradpu")["ms"]
        assert v < y < g

    def test_fig18_flat_latency(self):
        t = run_fig18_device()
        fps = t.column("fps")
        assert max(fps) / min(fps) < 1.3
        assert all(r["knn_share_pct"] > 60 for r in t.rows)


class TestCompressionRD:
    def test_rate_and_distortion_at_depth_10(self):
        """Grounds the transport model's ~6 B/pt; SMOKE, since the rate
        per point depends on how densely the frame fills the octree."""
        table = run_compression_rd(SMOKE)
        d10 = table.lookup(video="longdress", depth=10)
        assert 4.0 < d10["bytes_per_point"] < 9.0
        # Distortion falls monotonically with depth.
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
