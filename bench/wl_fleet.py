"""Fleet simulator workloads: ``fleet-diurnal``, ``fleet-flashcrowd`` and
``fleet-chaos``.

One shape — a Zipf catalog of 60-s videos watched by continuous-MPC
clients over an 8-edge CDN with per-edge SR caches — in three regimes:

* **diurnal**: arrivals spread over one 60-s virtual day on a tight
  access link.  About one completion every other event step and one
  planner row per call, so the cost is per-step dispatch.
* **flashcrowd**: every viewer joins inside 10 ms on a generous link.
  Batch occupancy only exists under concurrency: the planner sees
  several rows per call here, so a batching win shows here and not on
  diurnal, a per-step-constant win on both.
* **chaos**: diurnal plus a region outage, a gray edge, a finite retry
  policy and an acting control plane, so the resilience path cannot slow
  down unseen.

The simulator is called only as ``simulate_fleet(sessions,
spec=FleetSpec(...))`` with default engines.  Every constant is pinned
here rather than imported from ``repro.experiments`` defaults.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.metrics.qoe import QoEModel
from repro.obs import Telemetry, ops_from_events
from repro.streaming import (
    AbandonPolicy,
    ControlPlane,
    ControlPolicy,
    DiurnalArrivals,
    FaultSchedule,
    FleetSpec,
    GrayFailure,
    MeasuredSRLatency,
    RegionOutage,
    RetryPolicy,
    SRQualityModel,
    TraceArrivals,
    build_population,
    get_policy,
    simulate_fleet,
    uniform_cdn,
)
from repro.streaming.population import synthetic_catalog

from harness import Checks, Round, exact, repeat_for, stat
from spans import SpanRecorder

__all__ = ["FleetWorkload", "FleetSize", "SIZES", "TOY"]

# -- client stack -------------------------------------------------------
POLICY, N_GRID, HORIZON = "continuous-mpc", 16, 3
#: VoLUT-class SR latency: base s, s per input point, s per new point
SR_LATENCY = (0.001, 1e-8, 2e-8)
STALL_PATIENCE_S = 12.0
# -- content ------------------------------------------------------------
N_VIDEOS, ZIPF_SKEW, POINTS_PER_FRAME = 8, 1.2, 100_000
# -- CDN ----------------------------------------------------------------
N_EDGES, BACKHAUL_FRACTION = 8, 0.25
CACHE_BYTES, ENCODE_WORKERS, ENCODE_SECONDS = 1 << 32, 8, 0.05
# 64 Mbps keeps the flash crowd's hottest edge (Zipf head, content-affinity
# assignment) clear of the churn cliff on every seed tried; at 48 one seed
# in twelve lost 187 of 400 viewers, a different workload under one name
ACCESS_MBPS_PER_VIEWER = {"diurnal": 6.0, "flashcrowd": 64.0, "chaos": 6.0}
FLASH_JOIN_WINDOW_S = 0.01
# -- chaos, as fractions of the video length so the toy size keeps them --
OUTAGE = ("region-0", 0.40, 0.20)            # region, start, duration
GRAY = (6, 1 / 3, 1 / 3, 0.5, 0.1)           # edge, start, duration, capacity, drop
# a 5-s timeout fires on every seed tried (26-127 timeouts); at 8 s three
# seeds in twelve saw none and the timeout path went unmeasured
RETRY = dict(timeout_s=5.0, backoff_base_s=0.25, backoff_cap_s=2.0, max_attempts=4)
CONTROL = dict(interval=5.0, quality_cap_when_dark=0.5, disable_sr_when_dark=True)


@dataclass(frozen=True)
class FleetSize:
    viewers: int
    video_seconds: int


# Sized so a round takes 1-2 s and a run holds enough rounds for a steady
# median.  Throughput is flat from 125 to 2000 viewers; what a regime must
# keep is its loop shape.  240 viewers x 60 s reproduce the shape ROADMAP.md
# profiles at 500 (49 steps/session, 0.56 completions/step, ~1.1 planner
# rows/call).  The flash crowd needs concurrency, not length: 400 viewers
# x 30 s give ~5 rows/call (5.8 at 500 x 60 s, which takes twice as long).
SIZES = {
    "diurnal": FleetSize(viewers=240, video_seconds=60),
    "flashcrowd": FleetSize(viewers=400, video_seconds=30),
    "chaos": FleetSize(viewers=240, video_seconds=60),
}
TOY = FleetSize(viewers=24, video_seconds=20)


class TimedPolicy:
    """Delegating proxy that times the policy's batch entry points.

    Handed to ``build_population`` in traced rounds; everything else the
    fleet reads off a controller falls through to the real one.
    """

    def __init__(self, inner, rec: SpanRecorder) -> None:
        self._inner = inner
        self._rec = rec

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _timed(self, fn, arg):
        with self._rec.span("abr.plan"):
            return fn(arg)

    def decide(self, ctx):
        return self._timed(self._inner.decide, ctx)

    def decide_batch(self, ctxs):
        return self._timed(self._inner.decide_batch, ctxs)

    def decide_columns(self, batch):
        return self._timed(self._inner.decide_columns, batch)


@dataclass
class FleetInputs:
    seed: int
    #: flash crowd only: the join instants, drawn once from the seed
    join_times: tuple[float, ...] | None


@dataclass
class FleetState:
    sessions: list
    spec: FleetSpec
    policy: object        # the real controller (counters are read off it)


class FleetWorkload:
    def __init__(self, regime: str, toy: bool = False) -> None:
        self.name = f"fleet-{regime}"
        self.regime = regime
        self.size = TOY if toy else SIZES[regime]

    # -- builders -------------------------------------------------------
    def setup(self, seed: int) -> FleetInputs:
        joins = None
        if self.regime == "flashcrowd":
            rng = np.random.default_rng(seed)
            joins = tuple(
                np.sort(rng.uniform(0.0, FLASH_JOIN_WINDOW_S, self.size.viewers)).tolist()
            )
        inputs = FleetInputs(seed=seed, join_times=joins)
        self._build(inputs, self.size)  # what set-up costs a user
        return inputs

    def warm_up(self, inputs: FleetInputs) -> None:
        toy = FleetSize(viewers=min(16, self.size.viewers), video_seconds=10)
        toy_inputs = inputs
        if inputs.join_times is not None:
            toy_inputs = FleetInputs(inputs.seed, inputs.join_times[: toy.viewers])
        state = self._build(toy_inputs, toy)
        simulate_fleet(state.sessions, spec=state.spec)

    def fresh(self, inputs: FleetInputs) -> FleetState:
        return self._build(inputs, self.size)

    def _build(self, inputs: FleetInputs, size: FleetSize, rec: SpanRecorder | None = None,
               telemetry: Telemetry | None = None) -> FleetState:
        n, window = size.viewers, float(size.video_seconds)
        quality = SRQualityModel()
        latency = MeasuredSRLatency(*SR_LATENCY)
        policy = get_policy(
            POLICY, quality_model=quality, qoe_model=QoEModel(),
            sr_latency=latency, n_grid=N_GRID, horizon=HORIZON,
        )
        proxy = TimedPolicy(policy, rec) if rec is not None else None
        catalog = synthetic_catalog(
            N_VIDEOS, seconds=size.video_seconds,
            points_per_frame=POINTS_PER_FRAME, skew=ZIPF_SKEW,
        )
        if inputs.join_times is not None:
            arrivals = TraceArrivals(inputs.join_times)
        else:
            # rate padded 20% so the window yields n arrivals, then capped
            arrivals = DiurnalArrivals(
                mean_rate_hz=1.2 * n / window, day_seconds=window,
                days=1.0, seed=inputs.seed,
            )
        sessions = build_population(
            catalog, arrivals, window, proxy if proxy is not None else policy,
            sr_latency=latency, quality_model=quality,
            churn=AbandonPolicy(max_total_stall=STALL_PATIENCE_S),
            seed=inputs.seed, max_sessions=n,
        )
        chaos = self.regime == "chaos"
        access = ACCESS_MBPS_PER_VIEWER[self.regime] * len(sessions) / N_EDGES
        topology = uniform_cdn(
            N_EDGES, access_mbps=access, backhaul_mbps=BACKHAUL_FRACTION * access,
            duration=4.0 * window, cache_bytes=CACHE_BYTES,
            assignment="least-loaded" if chaos else "popularity",
            n_encode_workers=ENCODE_WORKERS, encode_seconds=ENCODE_SECONDS,
            n_regions=2 if chaos else None,
        )
        spec = FleetSpec(topology=topology, sr_cache="per-edge", telemetry=telemetry)
        if chaos:
            region, o_start, o_dur = OUTAGE
            edge, g_start, g_dur, capacity, drop = GRAY
            spec.faults = FaultSchedule((
                RegionOutage(region, o_start * window, o_dur * window),
                GrayFailure(edge=edge, start=g_start * window, duration=g_dur * window,
                            capacity_factor=capacity, drop_fraction=drop),
            ))
            spec.retry_policy = RetryPolicy(**RETRY)
            spec.controller = ControlPlane(ControlPolicy(**CONTROL))
        return FleetState(sessions=sessions, spec=spec, policy=policy)

    # -- one round ------------------------------------------------------
    def run(self, inputs: FleetInputs, state: FleetState, keep: bool) -> Round:
        t0 = perf_counter()
        result = simulate_fleet(state.sessions, spec=state.spec)
        wall = perf_counter() - t0
        return Round(op_walls=[wall], digest=_digest(result),
                     detail=_facts(result))

    # -- checks and end-to-end metrics ----------------------------------
    def check(self, inputs: FleetInputs, rounds: list[Round], checks: Checks) -> None:
        for r in rounds:
            checks.ops(1)
            checks.require(r.digest == rounds[0].digest,
                           "fleet report differs between rounds on equal inputs")
            self._check_facts(r.detail, checks)

    def _check_facts(self, d: dict, checks: Checks) -> None:
        rep = d["report"]
        checks.require(
            rep.origin_egress_bytes + d["edge_hit_bytes"] + rep.coalesced_bytes
            == rep.total_bytes,
            "origin + edge-hit + coalesced bytes != total bytes",
        )
        checks.require(d["unaccounted"] == 0,
                       f"{d['unaccounted']} sessions neither finished nor abandoned")
        checks.require(
            rep.chunk_retries
            == sum((k + 1) * c for k, c in enumerate(rep.retry_attempts)),
            "chunk_retries != sum((k+1) * retry_attempts[k])",
        )
        if self.regime == "chaos":
            for field in ("sessions_resteered", "chunk_retries",
                          "requests_timed_out", "control_ticks"):
                checks.require(getattr(rep, field) > 0, f"chaos run has {field} == 0")

    def content_seconds(self, inputs: FleetInputs, rounds: list[Round]) -> float:
        # what the population actually watched, not a nominal N x length
        return rounds[0].detail["watched_s"]

    def end_to_end(self, inputs: FleetInputs, rounds: list[Round]) -> dict:
        d = rounds[0].detail
        rep, watched = d["report"], d["watched_s"]
        return {
            "stream_mbps": exact(rep.total_bytes * 8 / watched / 1e6, "Mbit/s"),
            # share of full quality the viewers did not get
            "distortion": exact(1.0 - rep.mean_quality, "ratio"),
        }

    # -- traced rounds --------------------------------------------------
    def traced(self, inputs: FleetInputs, rounds: list[Round], seconds: float,
               checks: Checks) -> tuple[dict, SpanRecorder, dict]:
        def once():
            rec = SpanRecorder()
            telemetry = Telemetry(trace=True, metrics=False, profile=True)
            state = self._build(inputs, self.size, rec=rec, telemetry=telemetry)
            with rec.span("fleet.round", group=0):
                result = simulate_fleet(state.sessions, spec=state.spec)
            facts = _facts(result)
            checks.ops(1)
            checks.require(_digest(result) == rounds[0].digest,
                           "traced fleet report differs from the untraced one")
            self._check_facts(facts, checks)
            rep = result.report
            checks.require(
                ops_from_events(telemetry.tracer) == {
                    "sessions_resteered": rep.sessions_resteered,
                    "faults_injected": rep.faults_injected,
                    "control_ticks": rep.control_ticks,
                    "encode_pool_resizes": rep.encode_pool_resizes,
                    "requests_timed_out": rep.requests_timed_out,
                },
                "ops_from_events(tracer) != report counters",
            )
            return rec, telemetry, state, facts

        runs = repeat_for(seconds, once)
        rec, telemetry, state, facts = runs[-1]
        rep = facts["report"]
        policy = state.policy
        plan_calls = rec.counts().get("abr.plan", 0)
        prof = telemetry.profiler
        steps = prof.counts.get("scheduler", 0)
        chunks = sum(facts["chunks_per_session"])
        untraced = float(np.median([r.wall for r in rounds]))

        def phase(name: str) -> dict:
            return stat([t.profiler.totals.get(name, 0.0) for _, t, _, _ in runs], "s")

        rows = getattr(policy, "decide_rows", 0)
        metrics = {
            "abr.plan_s": stat([r.totals().get("abr.plan", 0.0) for r, _, _, _ in runs], "s"),
            "abr.plan_calls": exact(plan_calls, "count"),
            "abr.rows_per_call": exact(rows / max(plan_calls, 1), "count"),
            "abr.dedup_ratio": exact(
                getattr(policy, "decide_unique", 0) / max(rows, 1), "ratio"),
            "abr.memo_hit_rate": exact(
                getattr(policy, "decide_memo_hits", 0) / max(rows, 1), "ratio"),
            "fleet.phase_planner_s": phase("planner"),
            "fleet.phase_scheduler_s": phase("scheduler"),
            "fleet.phase_advance_s": phase("advance"),
            "fleet.phase_control_s": phase("control"),
            "fleet.event_steps": exact(steps, "count"),
            "fleet.steps_per_session": exact(steps / rep.n_sessions, "count"),
            "fleet.completions_per_step": exact(chunks / max(steps, 1), "count"),
            "fleet.us_per_step": exact(1e6 * untraced / max(steps, 1), "us"),
            "fleet.chunks_decided": exact(rows, "count"),
            "fleet.sessions": exact(rep.n_sessions, "count"),
            "fleet.n_abandoned": exact(rep.n_abandoned, "count"),
            "fleet.watched_s": exact(facts["watched_s"], "s"),
            "fleet.mean_qoe": exact(rep.mean_qoe, "qoe"),
            "fleet.stall_ratio": exact(rep.stall_ratio, "ratio"),
            "fleet.sr_cache_hit_rate": exact(rep.cache_hit_rate, "ratio"),
            "cdn.requests": exact(facts["cdn_requests"], "count"),
            "cdn.edge_hit_rate": exact(rep.edge_hit_rate, "ratio"),
            "cdn.coalesced_fills": exact(rep.coalesced_fills, "count"),
            "cdn.encode_wait_p95_s": exact(rep.encode_wait_p95, "s"),
            "cdn.origin_egress_gb": exact(rep.origin_egress_bytes / 1e9, "GB"),
            "faults.sessions_resteered": exact(rep.sessions_resteered, "count"),
            "faults.chunk_retries": exact(rep.chunk_retries, "count"),
            "faults.requests_timed_out": exact(rep.requests_timed_out, "count"),
            "faults.gray_degraded_mb": exact(rep.gray_degraded_bytes / 1e6, "MB"),
            "control.ticks": exact(rep.control_ticks, "count"),
            "obs.events": exact(len(telemetry.tracer.events), "count"),
            "obs.traced_overhead_x": stat(
                [r.totals()["fleet.round"] / untraced for r, _, _, _ in runs], "x"),
        }
        return metrics, rec, {"phases": prof.breakdown()}


def _facts(result) -> dict:
    """What checks and metrics read off a finished run."""
    edges = result.topology.edges
    # A viewer whose patience breaks on the last chunk is both finished
    # and abandoned; one that is neither fell out of the simulation.
    unaccounted = sum(
        1
        for r, s in zip(result.sessions, result.session_specs)
        if not r.abandoned and r.watched_seconds < s.spec.duration - 1e-9
    )
    return {
        "report": result.report,
        "watched_s": float(sum(r.watched_seconds for r in result.sessions)),
        "edge_hit_bytes": sum(e.cache.hit_bytes for e in edges),
        "cdn_requests": sum(e.cache.hits + e.cache.misses for e in edges),
        "chunks_per_session": [r.n_chunks for r in result.sessions],
        "unaccounted": unaccounted,
    }


def _digest(result) -> str:
    """Equal for equal runs: the report (a frozen dataclass of numbers
    and tuples) plus every session's byte and chunk totals."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(result.report).encode())
    for r in result.sessions:
        h.update(repr((r.total_bytes, r.n_chunks, r.qoe, r.abandoned)).encode())
    return h.hexdigest()
