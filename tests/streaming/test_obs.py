"""Telemetry: tracer/metrics/profiler units, exporters, the disabled-
tracer parity grid, and the chaos-trace conservation law."""

import json
from types import SimpleNamespace

import pytest

from repro.obs import Telemetry
from repro.obs.events import (
    EV_CHUNK_COMPLETE,
    EV_CONTROL_TICK,
    EV_SESSION_START,
    Tracer,
    ops_from_events,
)
from repro.obs.export import (
    chrome_trace,
    prometheus_text,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
    write_trace,
)
from repro.obs.metrics import SERIES_CAPACITY, MetricsRegistry, TimeSeries
from repro.obs.profiler import NULL_PROFILER, PhaseProfiler
from repro.metrics import QoEModel
from repro.streaming import (
    BackhaulDegradation,
    ContinuousMPC,
    ControlPlane,
    ControlPolicy,
    EdgeOutage,
    FaultSchedule,
    FleetSession,
    RetryPolicy,
    SRQualityModel,
    simulate_fleet,
    uniform_cdn,
)

from .helpers import FixedDensity, check_retry_events, spec, sr_lat


def fleet(n=8, seconds=20, stagger=0.4):
    return [
        FleetSession(
            spec=spec(seconds=seconds, name="vid"),
            controller=FixedDensity(0.4),
            sr_latency=sr_lat(),
            join_time=stagger * i,
        )
        for i in range(n)
    ]


def cdn(n_edges=3, **kw):
    kw.setdefault("access_mbps", 50.0)
    kw.setdefault("backhaul_mbps", 40.0)
    kw.setdefault("n_encode_workers", 4)
    kw.setdefault("encode_seconds", 0.02)
    return uniform_cdn(n_edges, **kw)


def wake_counts(telemetry):
    """``fleet.wake.<reason>`` counters of a finished run, by reason."""
    return {
        name.removeprefix("fleet.wake."): c.value
        for name, c in telemetry.metrics.counters.items()
        if name.startswith("fleet.wake.")
    }


def chaos_kwargs(telemetry=None):
    """One edge outage plus the control plane — every event family fires."""
    return dict(
        topology=cdn(3),
        faults=FaultSchedule(
            (EdgeOutage(edge=0, start=2.0, duration=4.0),)
        ),
        controller=ControlPlane(ControlPolicy(interval=1.0)),
        telemetry=telemetry,
    )


class TestTracer:
    def test_emit_orders_and_counts(self):
        tr = Tracer()
        tr.emit(1.0, "a.x", session=0)
        tr.emit(0.5, "a.y", session=1, nbytes=10)
        tr.emit(1.0, "a.x")
        assert len(tr) == 3
        assert tr.counts()["a.x"] == 2
        assert tr.counts() == {"a.x": 2, "a.y": 1}
        # seq increases in emission order regardless of timestamps
        assert [ev.seq for ev in tr] == [1, 2, 3]

    def test_event_repr_names_time_kind_session_and_data(self):
        tr = Tracer()
        tr.emit(1.25, "a.x", session=3, nbytes=10)
        tr.emit(2.0, "a.y")
        first, second = tr
        assert repr(first) == "<TraceEvent t=1.250 a.x sid=3 {'nbytes': 10}>"
        assert repr(second) == "<TraceEvent t=2.000 a.y>"

    def test_to_dict_flattens_data(self):
        tr = Tracer()
        tr.emit(3.5, "chunk.fetch", session=7, edge=1, nbytes=100)
        tr.emit(4.0, "control.tick")
        assert [ev.to_dict() for ev in tr.events] == [
            {"t": 3.5, "kind": "chunk.fetch", "session": 7, "edge": 1,
             "nbytes": 100},
            {"t": 4.0, "kind": "control.tick"},
        ]

    def test_ops_fold_empty_stream(self):
        assert ops_from_events([]) == {
            "sessions_resteered": 0,
            "faults_injected": 0,
            "control_ticks": 0,
            "encode_pool_resizes": 0,
            "requests_timed_out": 0,
        }


class TestMetrics:
    def test_counter_only_goes_up(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc()
        assert reg.counter("x") is c
        assert c.value == 2.0

    def test_gauge_and_get_or_create_identity(self):
        reg = MetricsRegistry()
        g = reg.gauge("y")
        g.set(4)
        assert reg.gauge("y") is g
        assert reg.gauge("y").value == 4.0

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("w", bounds=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(55.55)
        # cumulative le semantics: every bucket counts all values <= bound
        assert h.cumulative() == [1, 2, 3]
        with pytest.raises(ValueError, match="ascending"):
            reg.histogram("bad", bounds=(1.0, 0.1))

    def test_timeseries_ring_wraps(self):
        ts = TimeSeries("s")
        assert ts.last is None
        for i in range(SERIES_CAPACITY + 2):
            ts.record(float(i), float(i * 10))
        assert len(ts) == SERIES_CAPACITY
        items = ts.items()
        assert items[:2] == [(2.0, 20.0), (3.0, 30.0)]
        assert items[-1] == ts.last == (SERIES_CAPACITY + 1.0, (SERIES_CAPACITY + 1) * 10.0)
        assert [t for t, _ in items] == [float(i) for i in range(2, SERIES_CAPACITY + 2)]


class TestProfiler:
    def test_nested_self_time(self):
        p = PhaseProfiler()
        with p.phase("outer"):
            with p.phase("inner"):
                sum(range(1000))
        assert p.counts == {"outer": 1, "inner": 1}
        assert p.totals["outer"] >= 0.0
        assert p.totals["inner"] >= 0.0
        # self-time accounting: the phases partition the total
        assert p.total_seconds == pytest.approx(
            p.totals["outer"] + p.totals["inner"]
        )

    def test_breakdown_and_report(self):
        p = PhaseProfiler()
        p.totals.update(a=4.0, b=1.0)
        p.counts.update(a=12, b=5)
        bd = p.breakdown()
        assert list(bd) == ["a", "b"]  # descending self-time
        assert bd["a"] == {"seconds": 4.0, "calls": 12, "pct": 80.0}
        rep = p.report()
        assert "a" in rep and "80.0%" in rep and "total" in rep

    def test_null_profiler_is_inert(self):
        span = NULL_PROFILER.phase("anything")
        with span:
            pass
        # every phase shares one stateless no-op span
        assert NULL_PROFILER.phase("other") is span

    def test_reentrant_phase_rejected_state_stays_sane(self):
        p = PhaseProfiler()
        ph = p.phase("x")
        with ph:
            pass
        with ph:
            pass
        assert p.counts["x"] == 2


class TestExporters:
    def make_tracer(self):
        tr = Tracer()
        tr.emit(0.0, EV_SESSION_START, session=0, edge=1)
        tr.emit(2.0, EV_CHUNK_COMPLETE, session=0, quality=1.5, elapsed=0.5)
        tr.emit(3.0, EV_CONTROL_TICK, health=0.9, workers=4)
        return tr

    def test_jsonl_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        n = write_jsonl(self.make_tracer(), str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert n == len(rows) == 3
        assert rows[0]["kind"] == EV_SESSION_START
        assert rows[1]["elapsed"] == 0.5

    def test_chrome_trace_shapes(self):
        doc = chrome_trace(self.make_tracer())
        events = doc["traceEvents"]
        by_name = {}
        for ev in events:
            by_name.setdefault(ev["name"], []).append(ev)
        # a chunk completion with elapsed becomes a duration slice
        (slice_,) = by_name[EV_CHUNK_COMPLETE]
        assert slice_["ph"] == "X"
        assert slice_["dur"] == pytest.approx(0.5e6)
        assert slice_["ts"] == pytest.approx(1.5e6)
        # session events ride the session's own track, fleet events tid 0
        (start,) = by_name[EV_SESSION_START]
        assert start["ph"] == "i" and start["tid"] == 1
        (tick,) = by_name[EV_CONTROL_TICK]
        assert tick["tid"] == 0
        # one process, named "fleet", holds every track
        assert {ev["pid"] for ev in events} == {0}
        (proc,) = by_name["process_name"]
        assert proc["args"] == {"name": "fleet"}

    def test_chrome_trace_of_no_events_has_no_tracks(self):
        assert chrome_trace([]) == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_chrome_trace_file(self, tmp_path):
        path = tmp_path / "trace.json"
        n = write_chrome_trace(self.make_tracer(), str(path))
        doc = json.loads(path.read_text())
        # metadata records don't count toward the reported event total
        assert n == 3
        assert len(doc["traceEvents"]) > n

    @pytest.mark.parametrize(
        "name, jsonl",
        [("trace.jsonl", True), ("trace.json", False),
         ("trace.perfetto", False), ("trace.jsonl.json", False)],
    )
    def test_write_trace_picks_the_format_by_suffix(self, tmp_path, name, jsonl):
        """A ``.jsonl`` name gets the JSONL event log, any other the
        Chrome trace-event JSON."""
        path = tmp_path / name
        assert write_trace(self.make_tracer(), str(path)) == 3
        text = path.read_text()
        if jsonl:
            kinds = [json.loads(line)["kind"] for line in text.splitlines()]
            assert kinds == [EV_SESSION_START, EV_CHUNK_COMPLETE, EV_CONTROL_TICK]
        else:
            assert json.loads(text) == chrome_trace(self.make_tracer())

    def test_prometheus_text(self, tmp_path):
        reg = MetricsRegistry()
        for _ in range(7):
            reg.counter("fleet.chunks").inc()
        reg.gauge("origin.encode_workers").set(4)
        h = reg.histogram("encode.wait", bounds=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        reg.timeseries("fleet.health").record(12.5, 0.75)
        text = prometheus_text(reg)
        assert "fleet_chunks 7" in text
        assert "origin_encode_workers 4" in text
        assert 'encode_wait_bucket{le="0.1"} 1' in text
        assert 'encode_wait_bucket{le="+Inf"} 2' in text
        assert "encode_wait_sum 5.05" in text
        assert "encode_wait_count 2" in text
        assert "fleet_health 0.75 12500" in text
        path = tmp_path / "metrics.txt"
        write_prometheus(reg, str(path))
        assert path.read_text() == text


class TestTelemetry:
    def test_layers_toggle_independently(self):
        full = Telemetry()
        assert full.tracer is not None
        assert full.metrics is not None
        assert full.profiler is not None
        off = Telemetry(trace=False, metrics=False, profile=False)
        assert off.tracer is None
        assert off.metrics is None
        assert off.profiler is None


class TestTelemetryDisabledParity:
    """Oracle-parity instance: telemetry never perturbs a run.

    ``telemetry=None``, a fully-disabled ``Telemetry``, and every layer
    enabled must produce bit-identical reports — all emission sites are
    pure observation.
    """

    def test_plain_cdn_run(self):
        def run(telemetry):
            return simulate_fleet(
                fleet(n=6), topology=cdn(3), telemetry=telemetry,
            ).report

        base = run(None)
        assert run(Telemetry(trace=False, metrics=False, profile=False)) == base
        assert run(Telemetry()) == base

    @pytest.mark.parametrize("fault", ["outage", "degradation"])
    def test_faulted_controlled_run(self, fault):
        if fault == "outage":
            faults = FaultSchedule(
                (EdgeOutage(edge=0, start=2.0, duration=4.0),)
            )
        else:
            faults = FaultSchedule(
                (BackhaulDegradation(
                    edge=0, start=2.0, duration=4.0, factor=0.25,
                ),)
            )

        def run(telemetry):
            return simulate_fleet(
                fleet(n=8), topology=cdn(3), faults=faults,
                controller=ControlPlane(ControlPolicy(interval=1.0)),
                telemetry=telemetry,
            ).report

        base = run(None)
        assert run(Telemetry()) == base

    def test_an_untraced_run_builds_no_per_request_payloads(self, monkeypatch):
        """Per-request emission sites (fetch, decision, completion, the
        edge caches' lookups and attaches, the origin's encode enqueue)
        check for ``NULL_TRACER`` before building their keyword payloads,
        so an untraced run hands the null tracer only run-level events."""
        from repro.obs.events import NULL_TRACER

        per_request = ("chunk.", "cache.", "encode.enqueue")
        traced = Telemetry()
        simulate_fleet(fleet(n=6), topology=cdn(3), telemetry=traced)
        seen = {ev.kind for ev in traced.tracer}
        assert all(any(k.startswith(p) for k in seen) for p in per_request)

        kinds = []
        monkeypatch.setattr(
            type(NULL_TRACER), "emit",
            lambda self, t, kind, session=None, **data: kinds.append(kind),
        )
        simulate_fleet(fleet(n=6), topology=cdn(3))
        assert kinds and not [k for k in kinds if k.startswith(per_request)]


class TestConservation:
    """The chaos acceptance law: report counters == the event-stream fold."""

    def fold_matches(self, rep, events):
        fold = ops_from_events(events)
        assert fold["sessions_resteered"] == rep.sessions_resteered
        assert fold["faults_injected"] == rep.faults_injected
        assert fold["control_ticks"] == rep.control_ticks
        assert fold["encode_pool_resizes"] == rep.encode_pool_resizes
        assert fold["requests_timed_out"] == rep.requests_timed_out

    def test_chaos_counters_reconstruct(self):
        tel = Telemetry()
        rep = simulate_fleet(fleet(n=10), **chaos_kwargs(tel)).report
        assert rep.sessions_resteered > 0  # the outage must hit someone
        assert rep.control_ticks > 0
        self.fold_matches(rep, tel.tracer)

    def test_chrome_trace_reconstructs(self, tmp_path):
        tel = Telemetry()
        rep = simulate_fleet(fleet(n=10), **chaos_kwargs(tel)).report
        path = tmp_path / "chaos.json"
        write_chrome_trace(tel.tracer, str(path))
        doc = json.loads(path.read_text())
        names = [
            ev["name"] for ev in doc["traceEvents"] if ev["ph"] != "M"
        ]
        assert names.count("session.resteer") == rep.sessions_resteered
        assert names.count("fault.outage") == rep.faults_injected
        assert names.count("control.tick") == rep.control_ticks
        assert names.count("control.resize") == rep.encode_pool_resizes
        assert names.count("outage.evacuate") == 1

    def test_the_experiments_gate_names_the_broken_counter(self):
        """``fleet-chaos`` and ``fleet-obs`` share one five-counter check:
        silent when the fold matches, naming the counter when not."""
        from repro.experiments.scenario import check_conservation

        tracer = Tracer()
        tracer.emit(1.0, EV_CONTROL_TICK, health=0.9, workers=4)
        counters = dict(
            sessions_resteered=0, faults_injected=0, control_ticks=1,
            encode_pool_resizes=0, requests_timed_out=0,
        )
        check_conservation(tracer, SimpleNamespace(**counters))
        counters["control_ticks"] = 2
        with pytest.raises(RuntimeError, match="conservation.*'control_ticks': 2"):
            check_conservation(tracer, SimpleNamespace(**counters))

    def test_fetches_balance_completes_and_retries(self):
        tel = Telemetry()
        rep = simulate_fleet(fleet(n=10), **chaos_kwargs(tel)).report
        # every fetch either completes or was cancelled and re-issued
        check_retry_events(tel.tracer, rep)
        c = tel.tracer.counts()
        assert c["chunk.retry"] > 0
        assert c["chunk.decision"] == c["chunk.complete"]
        assert c["session.start"] == 10
        assert (
            c.get("session.finish", 0) + c.get("session.abandon", 0) == 10
        )


class TestMetricsWiring:
    def test_series_sampled_on_control_cadence(self):
        tel = Telemetry()
        result = simulate_fleet(fleet(n=8), **chaos_kwargs(tel))
        rep = result.report
        series = tel.metrics.series
        assert len(series["fleet.active_sessions"]) == rep.control_ticks
        for e in range(3):
            assert len(series[f"edge.load.{e}"]) == rep.control_ticks
        # per-edge loads partition the active sessions at every sample
        loads = [series[f"edge.load.{e}"].items() for e in range(3)]
        for i, (t, active) in enumerate(
            series["fleet.active_sessions"].items()
        ):
            assert sum(loads[e][i][1] for e in range(3)) == active
            assert all(loads[e][i][0] == t for e in range(3))
        assert tel.metrics.gauge("origin.encode_workers").value == (
            result.topology.origin.queue.n_workers
        )

    def test_metrics_alone_sample_without_controller(self):
        tel = Telemetry(trace=False, profile=False)
        simulate_fleet(fleet(n=6), topology=cdn(3), telemetry=tel)
        assert len(tel.metrics.series["fleet.active_sessions"]) > 0
        assert len(tel.metrics.series["fleet.health"]) > 0

    def test_wake_reasons_partition_the_loop_steps(self):
        """Every loop step is counted under exactly one ``fleet.wake.*``
        reason, and on a plain CDN day a step is a completion or an RTT /
        encode gate expiring — two per request; ``abr.rows_per_call``
        observes every ``decide_batch`` call."""
        tel = Telemetry(trace=False)
        mpc = ContinuousMPC(SRQualityModel(), QoEModel(), sr_lat(), n_grid=8, horizon=2)
        sessions = [
            FleetSession(
                spec=spec(seconds=20, name=f"v{i % 3}"), controller=mpc,
                sr_latency=sr_lat(), quality_model=mpc.quality_model,
                join_time=0.4 * i,
            )
            for i in range(12)
        ]
        simulate_fleet(sessions, topology=cdn(3, cache_bytes=1 << 30), telemetry=tel)
        wakes = wake_counts(tel)
        steps = tel.profiler.counts["scheduler"]
        assert set(wakes) <= {
            "completion", "gate", "deferred", "timeout", "outage_bound", "trace",
        }
        assert sum(wakes.values()) == steps
        assert wakes["gate"] + wakes["completion"] >= 0.9 * steps
        rows = tel.metrics.histograms["abr.rows_per_call"]
        assert rows.sum == mpc.decide_rows == 12 * 20
        assert rows.count == rows.bucket_counts[-1] <= rows.sum

    def test_wake_reasons_cover_the_resilience_path(self):
        """Outage bounds and armed deadlines wake the loop too; the
        partition still holds, and every deadline wake fires a timeout."""
        tel = Telemetry(trace=False)
        report = simulate_fleet(
            fleet(n=8), retry_policy=RetryPolicy(timeout_s=1.0, max_attempts=3),
            **chaos_kwargs(tel),
        ).report
        wakes = wake_counts(tel)
        assert sum(wakes.values()) == tel.profiler.counts["scheduler"]
        assert wakes["outage_bound"] >= 1 and wakes["timeout"] >= 1
        assert wakes["timeout"] <= report.requests_timed_out

    def test_a_stale_deadline_does_not_wake_the_loop(self):
        """A deadline whose attempt already completed or was re-issued can
        never fire, so it wakes nothing: here no request times out, and
        no step wakes for a deadline (``test_faults.py::TestInertTimeout``
        pins this fleet's run to the untimed one)."""
        tel = Telemetry(trace=False)
        report = simulate_fleet(
            fleet(n=6), topology=cdn(n_encode_workers=2),
            retry_policy=RetryPolicy(
                timeout_s=5.0, backoff_base_s=0.25, backoff_cap_s=1.0,
                max_attempts=3,
            ),
            telemetry=tel,
        ).report
        assert wake_counts(tel).get("timeout", 0) <= report.requests_timed_out

