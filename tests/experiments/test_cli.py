"""CLI runner tests."""

import pytest

from repro.experiments.__main__ import REGISTRY, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "fig11-device", "ablate-dilation"):
            assert name in out

    def test_run_single(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "[table1:" in out

    def test_run_multiple(self, capsys):
        assert main(["table1", "fig15"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Fig 15" in out

    def test_unknown_experiment_lists_and_exits_2(self, capsys):
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err
        assert "available experiments" in err
        assert "table1" in err and "fleet-cdn" in err

    def test_no_names_lists_and_exits_2(self, capsys):
        assert main([]) == 2
        captured = capsys.readouterr()
        assert "usage:" in captured.err
        assert "available experiments" in captured.err
        assert "fleet" in captured.err
        # Nothing ran: stdout carries no rendered tables.
        assert "[table1:" not in captured.out

    def test_all_conflicts_with_names(self, capsys):
        assert main(["table1", "--all"]) == 2
        err = capsys.readouterr().err
        assert "--all" in err and "table1" in err

    def test_diurnal_flag_reaches_population_experiment(self, monkeypatch, capsys):
        """--diurnal is forwarded to experiments whose runner accepts it."""
        seen = {}

        class FakeTable:
            def render(self):
                return "fake table"

        def fake_run(scale, diurnal=False):
            seen["diurnal"] = diurnal
            return FakeTable()

        monkeypatch.setitem(REGISTRY, "fleet-population", fake_run)
        assert main(["fleet-population", "--diurnal"]) == 0
        assert seen["diurnal"] is True
        seen.clear()
        assert main(["fleet-population"]) == 0
        assert seen["diurnal"] is False

    def test_sessions_flag_reaches_population_experiment(self, monkeypatch, capsys):
        """--sessions is forwarded to experiments accepting n_sessions."""
        seen = {}

        class FakeTable:
            def render(self):
                return "fake table"

        def fake_run(scale, n_sessions=200):
            seen["n_sessions"] = n_sessions
            return FakeTable()

        monkeypatch.setitem(REGISTRY, "fleet-cdn", fake_run)
        assert main(["fleet-cdn", "--sessions", "1000"]) == 0
        assert seen["n_sessions"] == 1000
        seen.clear()
        assert main(["fleet-cdn"]) == 0
        assert seen["n_sessions"] == 200

    def test_sessions_and_days_flags_reach_fleet_cdn(self, monkeypatch, capsys):
        """--sessions / --days are forwarded to experiments accepting them."""
        seen = {}

        class FakeTable:
            def render(self):
                return "fake table"

        def fake_run(scale, n_sessions=200, days=1):
            seen.update(n_sessions=n_sessions, days=days)
            return FakeTable()

        monkeypatch.setitem(REGISTRY, "fleet-cdn", fake_run)
        assert main(["fleet-cdn", "--sessions", "50", "--days", "3"]) == 0
        assert seen == {"n_sessions": 50, "days": 3}

    def test_workers_flag_is_gone(self, capsys):
        """Fleets run in one process: --workers is an unknown option."""
        with pytest.raises(SystemExit) as exc:
            main(["fleet-cdn", "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_profile_flag_is_gone(self, capsys):
        """fleet-obs profiles by default and nothing turns it off, so
        --profile is an unknown option."""
        with pytest.raises(SystemExit) as exc:
            main(["fleet-obs", "--profile"])
        assert exc.value.code == 2
        assert "--profile" in capsys.readouterr().err

    def test_control_interval_flag_reaches_fleet_chaos(
        self, monkeypatch, capsys
    ):
        """--control-interval is forwarded to experiments accepting it."""
        seen = {}

        class FakeTable:
            def render(self):
                return "fake table"

        def fake_run(scale, control_interval=5.0):
            seen["control_interval"] = control_interval
            return FakeTable()

        monkeypatch.setitem(REGISTRY, "fleet-chaos", fake_run)
        assert main(["fleet-chaos", "--control-interval", "2.5"]) == 0
        assert seen["control_interval"] == 2.5
        assert "(control_interval=2.5)" in capsys.readouterr().out
        seen.clear()
        assert main(["fleet-chaos"]) == 0
        assert seen["control_interval"] == 5.0

    def test_abr_flag_reaches_fleet_experiments(self, monkeypatch, capsys):
        """--abr is forwarded to experiments whose runner accepts it."""
        seen = {}

        class FakeTable:
            def render(self):
                return "fake table"

        def fake_run(scale, abr="continuous-mpc"):
            seen["abr"] = abr
            return FakeTable()

        monkeypatch.setitem(REGISTRY, "fleet-cdn", fake_run)
        assert main(["fleet-cdn", "--abr", "bola"]) == 0
        assert seen["abr"] == "bola"
        seen.clear()
        assert main(["fleet-cdn"]) == 0
        assert seen["abr"] == "continuous-mpc"

    def test_unknown_abr_lists_policies_and_exits_2(self, capsys):
        assert main(["fleet-cdn", "--abr", "pensieve"]) == 2
        err = capsys.readouterr().err
        assert "pensieve" in err
        assert "bola" in err and "throughput" in err

    def test_config_echoed_in_pass_fail_lines(self, monkeypatch, capsys):
        """Nightly logs must identify the failing configuration: the
        --sessions/--days values appear on the per-experiment line
        and the summary header."""

        def boom(scale, n_sessions=200, days=1):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(REGISTRY, "fleet-cdn", boom)
        assert main(
            ["fleet-cdn", "table1", "--sessions", "1000", "--days", "3"]
        ) == 1
        captured = capsys.readouterr()
        assert "[fleet-cdn: FAILED" in captured.err
        assert "(sessions=1000, days=3)" in captured.err
        assert "experiment summary (sessions=1000, days=3):" in captured.out

    @pytest.mark.parametrize("flag, value", [
        ("--sessions", "0"), ("--sessions", "-3"), ("--days", "0"),
        ("--control-interval", "nan"), ("--control-interval", "inf"),
        ("--control-interval", "0"), ("--control-interval", "-1"),
    ])
    def test_bad_flag_values_are_refused_before_anything_runs(
        self, monkeypatch, capsys, flag, value
    ):
        """A value no experiment can run is an argparse error (exit 2,
        one message line naming the flag), not a traceback from inside
        each run of an ``--all`` sweep."""
        ran = []
        monkeypatch.setitem(
            REGISTRY, "fleet-chaos", lambda scale, **kw: ran.append(kw)
        )
        with pytest.raises(SystemExit) as exc:
            main(["fleet-chaos", flag, value])
        assert exc.value.code == 2
        assert ran == []
        err = capsys.readouterr().err
        (message,) = [line for line in err.splitlines() if "error:" in line]
        assert flag in message and value in message

    def test_only_the_flags_an_experiment_took_are_echoed(
        self, monkeypatch, capsys
    ):
        """Each pass/fail line echoes what its experiment was given; the
        summary echoes the flags some experiment took."""

        class FakeTable:
            def render(self):
                return "fake table"

        monkeypatch.setitem(
            REGISTRY, "fleet-cdn", lambda scale, n_sessions=200: FakeTable()
        )
        monkeypatch.setitem(REGISTRY, "fig4", lambda scale: FakeTable())
        args = ["fig4", "--sessions", "5", "--abr", "bola", "--days", "2"]
        assert main(args) == 0
        out = capsys.readouterr().out
        (line,) = [x for x in out.splitlines() if x.startswith("[fig4:")]
        assert line.endswith("s]")
        assert main(["fleet-cdn", *args]) == 0
        out = capsys.readouterr().out
        (line,) = [x for x in out.splitlines() if x.startswith("[fig4:")]
        assert line.endswith("s]")
        (line,) = [x for x in out.splitlines() if x.startswith("[fleet-cdn:")]
        assert line.endswith("s] (sessions=5)")
        assert "experiment summary (sessions=5):" in out

    def test_failing_experiment_exits_nonzero_with_summary(
        self, monkeypatch, capsys
    ):
        """A raising experiment doesn't abort the list: remaining
        experiments still run, the summary names the failure, exit is 1."""

        def boom(scale):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(REGISTRY, "fig4", boom)
        assert main(["fig4", "table1"]) == 1
        captured = capsys.readouterr()
        assert "synthetic failure" in captured.err       # the traceback
        assert "[fig4: FAILED" in captured.err
        assert "Table 1" in captured.out                 # table1 still ran
        assert "experiment summary:" in captured.out
        assert "1/2 experiments passed" in captured.out

    def test_multi_run_prints_summary_even_when_green(self, capsys):
        assert main(["table1", "fig15"]) == 0
        out = capsys.readouterr().out
        assert "experiment summary:" in out
        assert "2/2 experiments passed" in out

    def test_single_green_run_skips_summary(self, capsys):
        assert main(["table1"]) == 0
        assert "experiment summary:" not in capsys.readouterr().out

    def test_registry_covers_every_paper_artifact(self):
        """One CLI entry per paper table/figure."""
        needed = {
            "table1", "fig4", "fig7-10", "fig11-measured", "fig11-device",
            "fig12-13", "fig14", "fig15", "fig16-device", "fig16-measured",
            "fig17-device", "fig17-measured", "fig18",
            "fleet", "fleet-population", "fleet-cdn",
        }
        assert needed <= set(REGISTRY)


class TestReport:
    def test_report_written(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        from repro.experiments.__main__ import main

        assert main(["table1", "fig15", "--report", str(out)]) == 0
        text = out.read_text()
        assert "# VoLUT reproduction" in text
        assert "## table1" in text and "## fig15" in text
        assert "eq5_keyspace" in text  # table1's own table, not only its heading
