"""Self-tests of the benchmark (``python -m pytest bench/tests -q``).

Every workload runs at toy size; the tests pin the contract between the
harness and ``BENCHMARK.json`` (names, units), determinism of everything
that is not a timing, span nesting, and ``compare.py``'s verdicts.
"""

from __future__ import annotations

import json
import os
import re

import pytest

import compare
import harness
import wl_client
import workloads
from spans import SpanRecorder

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    DECLARED = json.load(_fh)
E2E = {m["name"]: m for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m for m in DECLARED["per_layer"]}
NAMES = [w["name"] for w in DECLARED["workloads"]]
#: units of wall-clock and memory readings; every other metric is a
#: count or a seeded / simulated quantity and must repeat exactly
MEASURED_UNITS = {"s", "ms", "us", "s/s", "1/s", "Mpts/s", "x", "MiB"}


@pytest.fixture(scope="module")
def toy():
    """Run (workload, seed, trace, repeat) at toy size, memoized."""
    saved = (harness.SETUP_REPS, harness.SETUP_MIN_SECONDS, harness.MIN_ROUNDS,
             wl_client.LUT_TRAIN_POINTS, wl_client.LUT_TRAIN_EPOCHS)
    harness.SETUP_REPS, harness.SETUP_MIN_SECONDS, harness.MIN_ROUNDS = 1, 0.0, 2
    wl_client.LUT_TRAIN_POINTS, wl_client.LUT_TRAIN_EPOCHS = 1_000, 2
    cache: dict = {}

    def run(name: str, seed: int = 0, trace: int = 0, repeat: int = 0) -> dict:
        key = (name, seed, trace, repeat)
        if key not in cache:
            cache[key] = workloads.run_workload(
                workloads.make(name, toy=True), seed, 0.0, bool(trace),
                {n: m["unit"] for n, m in PER_LAYER.items()},
            )
        return cache[key]

    yield run
    (harness.SETUP_REPS, harness.SETUP_MIN_SECONDS, harness.MIN_ROUNDS,
     wl_client.LUT_TRAIN_POINTS, wl_client.LUT_TRAIN_EPOCHS) = saved


def test_registry_matches_declaration():
    assert list(workloads.NAMES) == NAMES


def test_declaration_is_within_the_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert DECLARED["paths"] == ["bench"]
    assert 2 <= len(NAMES) <= 8 and 1 <= DECLARED["run_seconds"] <= 60
    names = NAMES + list(E2E) + list(PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in list(E2E.values()) + list(PER_LAYER.values()):
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("higher", "lower")
    for m in E2E.values():
        assert 0 <= m["bound"] <= 0.25
    assert E2E["setup_s"]["unit"] == "s" and E2E["setup_s"]["better"] == "lower"
    assert E2E["setup_s"]["bound"] == max(m["bound"] for m in E2E.values())


@pytest.mark.parametrize("name", NAMES)
def test_emits_exactly_the_declared_metrics(toy, name):
    for trace, declared in ((0, E2E), (1, PER_LAYER)):
        metrics = toy(name, trace=trace)["metrics"]
        # bench.import_s is added by the worker process, which owns the import
        assert set(metrics) | {"bench.import_s"} == set(declared) | {"bench.import_s"}
        for metric, record in metrics.items():
            assert record["unit"] == declared[metric]["unit"], metric
            assert record["q1"] <= record["q3"] and record["n"] >= 1
    e2e = toy(name)["metrics"]
    assert all(v["value"] != 0 for v in e2e.values())


@pytest.mark.parametrize("name", NAMES)
def test_counts_and_simulated_metrics_are_functions_of_the_seed(toy, name):
    for trace in (0, 1):
        first = toy(name, trace=trace)["metrics"]
        again = toy(name, trace=trace, repeat=1)["metrics"]
        other = toy(name, seed=1, trace=trace)["metrics"]
        exact = [m for m, r in first.items()
                 if r["unit"] not in MEASURED_UNITS and m != "bench.rounds"]
        assert exact
        assert all(first[m]["value"] == again[m]["value"] for m in exact)
        assert any(first[m]["value"] != other[m]["value"] for m in exact)


@pytest.mark.parametrize("name", ["client-x8", "codec-roundtrip", "fleet-diurnal"])
def test_toy_outputs_pass_their_checks(toy, name):
    for trace in (0, 1):
        result = toy(name, trace=trace)
        assert result["correct"], result["messages"]
        assert result["attempted"] >= 1 and result["failed"] == 0


def test_chaos_faults_fire_only_on_chaos(toy):
    fired = ("faults.sessions_resteered", "faults.chunk_retries", "control.ticks")
    chaos = toy("fleet-chaos", trace=1)["metrics"]
    assert all(chaos[m]["value"] > 0 for m in fired)
    for name in ("fleet-diurnal", "fleet-flashcrowd", "client-x8"):
        metrics = toy(name, trace=1)["metrics"]
        assert all(metrics[m]["value"] == 0 for m in fired)


@pytest.mark.parametrize("name", NAMES)
def test_spans_nest_and_self_times_sum_to_the_roots(toy, name):
    rec = toy(name, trace=1)["spans"]
    assert rec.spans
    for s_name, start, end, parent, group in rec.spans:
        assert end >= start
        if parent >= 0:
            p = rec.spans[parent]
            assert p[1] <= start and end <= p[2], (s_name, p[0])
            assert group == p[4]
    assert all(t >= -1e-9 for t in rec.self_times())
    assert sum(rec.self_times()) == pytest.approx(rec.root_seconds(), rel=0.01)
    assert sum(rec.totals(self_time=True).values()) == pytest.approx(
        rec.root_seconds(), rel=0.01)


def test_span_recorder_self_time():
    rec = SpanRecorder()
    with rec.span("root", group=7) as root:
        with rec.span("child"):
            pass
    rec.add_child("reported", root, 1e9)  # clamped to the parent
    (r, c, a) = rec.spans
    assert c[3] == 0 and c[4] == 7 and a[3] == 0 and a[2] == r[2]
    assert rec.self_times()[0] == pytest.approx(-(c[2] - c[1]), abs=1e-9)


def _summary(values):
    return compare.summarize(list(values))


def test_compare_verdicts():
    base = _summary([100, 101, 99, 100, 100])
    assert compare.verdict(base, _summary([120, 121, 119, 120, 120]), "higher", 0.1)[1] == "better"
    assert compare.verdict(base, _summary([120, 121, 119, 120, 120]), "lower", 0.1)[1] == "worse"
    assert compare.verdict(base, _summary([104, 105, 103, 104, 104]), "lower", 0.1)[1] == "same"
    # spread wider than the bound and overlapping runs: cannot tell
    noisy = _summary([80, 100, 125, 90, 118])
    assert compare.verdict(base, noisy, "higher", 0.1)[1] == "unresolved"
    # wide spread but every run of B above every run of A: resolved
    apart = _summary([150, 200, 260, 170, 230])
    gain, v = compare.verdict(base, apart, "higher", 0.1)
    assert v == "better" and gain == pytest.approx(1.0)
    # a seeded quantity that must repeat exactly
    assert compare.verdict(_summary([3.0] * 4), _summary([3.0] * 4), "lower", 1e-6)[1] == "same"
    assert compare.verdict(_summary([3.0] * 4), _summary([3.1] * 4), "lower", 1e-6)[1] == "worse"


def test_compare_reads_run_files(tmp_path, capsys):
    def write(path, values):
        with open(path, "w") as fh:
            for seed, v in enumerate(values):
                fh.write(json.dumps({
                    "workload": "client-x2", "seed": seed,
                    "metrics": {"content_s_per_ref_s": {"value": v, "unit": "s/s"}},
                }) + "\n")
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write(a, [1.0, 1.01, 0.99, 1.0])
    write(b, [0.5, 0.51, 0.49, 0.5])
    assert compare.main([str(a)]) == 0
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert "worse" in capsys.readouterr().out
