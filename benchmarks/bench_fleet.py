"""Fleet scheduler micro-benchmark: per-hop event loop wall time.

PR 2 made the MPC decision pass cheap, PR 3 rewired every flow per hop
through :class:`~repro.net.topology.PathScheduler`, and PR 4 rewrote that
scheduler's event step as array math over flow-state tensors (plus
request coalescing at CDN edges).  This lane fails loudly if the vector
engine — or a future topology feature — regresses fleet wall time:

* ``test_single_link_throughput_floor`` — the classic bottleneck fleet
  must simulate at ≥4500 content-seconds per wall second (measured ~5700
  on the reference box; the pre-vectorization engine measured ~1450, so
  the floor itself sits >3x above the old throughput);
* ``test_cdn_throughput_floor`` — the two-hop CDN fleet (edge caches,
  encode queue, coalescing) must hold ≥3000 content-seconds per wall
  second (measured ~4300, ~950 before vectorization);
* the **sharded** lanes (PR 5) run the 2000-viewer, 8-edge diurnal
  population through ``shard_fleet``: ``workers=4`` must beat
  ``workers=1`` by ≥2x end to end on a ≥4-CPU box (sharding also wins
  serially — each shard's event step scans only its own flows — so a
  1-CPU container measured ~1.3x; the floor test skips there), and both
  configurations carry absolute throughput floors;
* the **telemetry** lane (PR 8) repeats the single-process 2000-viewer
  run with the full observability stack on (event tracing + phase
  profiler) and gates it against the untraced run at ≤10% throughput
  loss (wall ratio ≤1/0.9 ≈ 1.11x) — the budget the
  zero-overhead-when-disabled design promises for the *enabled* path.
  ``BENCH_PHASES_OUT`` (set by CI) dumps the profiler's phase
  breakdown as JSON for ``scripts/bench_report.py``;
* the **BOLA** lane (PR 9) swaps the MPC planner for the policy zoo's
  BOLA controller on the same 2000-viewer single-process run — the
  cheap-policy configuration an operator A/B would sweep — and holds
  its own committed floor (BOLA skips horizon planning, so this lane is
  the roofline of the session layer and scheduler themselves);
* the **chaos-armed** lane (PR 10) repeats the single-process
  2000-viewer run with a default :class:`RetryPolicy` attached —
  the resilience layer's bookkeeping armed on every request, but no
  fault ever firing — and gates it against the plain run at ≤10%
  throughput loss, the budget the fault-free-is-bit-exact design
  implies the armed-but-idle path must also hold;
* the ``benchmark``-fixture lanes track the absolute costs and feed the
  committed ``BENCH_fleet.json`` trajectory (see
  ``scripts/bench_report.py``).

Runs in the fast benchmarks lane (`pytest benchmarks -m "not slow"`).
"""

from __future__ import annotations

import gc
import json
import os
import time
from contextlib import contextmanager

import pytest

from repro.experiments import make_cdn, make_fleet, make_population
from repro.experiments.common import SMOKE
from repro.net import stable_trace
from repro.obs import Telemetry
from repro.streaming import (
    RetryPolicy,
    SRResultCache,
    VideoSpec,
    shard_fleet,
    simulate_fleet,
)

N_SESSIONS = 100
SECONDS = 8
CONTENT_SECONDS = N_SESSIONS * SECONDS

#: content-seconds simulated per wall-clock second.
#: ≥3x the throughput measured before the PathScheduler vectorization
#: (~1450 single-link / ~950 CDN on the same box).
SINGLE_LINK_FLOOR = 4500.0
CDN_FLOOR = 3000.0

#: Shared CI runners are routinely 2-4x slower than the reference box,
#: and the floors above carry only ~25% local headroom — so ci.yml runs
#: the lane with BENCH_FLOOR_SCALE=0.5.  That still catches a
#: PathScheduler that falls back to per-flow Python work per event step
#: (the tests' reference scheduler measures 0.3-0.4x production on the
#: bench/ fleet workloads) without flaking on runner speed.  Local runs
#: enforce the full bar.
FLOOR_SCALE = float(os.environ.get("BENCH_FLOOR_SCALE", "1.0"))

#: The sharded-executor workload the acceptance gate names: a
#: 2000-viewer, 8-edge diurnal CDN population (Zipf catalog, churn).
SHARD_SESSIONS = 2000
SHARD_EDGES = 8
SHARD_WORKERS = 4
SHARD_CONTENT_SECONDS = SHARD_SESSIONS * SECONDS
#: content-s/s floors for the sharded runs (measured ~940 at 4 workers /
#: ~730 single-process on the 1-CPU reference container after PR 7's
#: scheduler tuning; a multi-core box only goes up from there).
SHARD_FLOOR = 600.0
SHARD_BASELINE_FLOOR = 300.0
#: end-to-end speedup workers=4 must hold over workers=1 — enforced only
#: where 4 processes can actually run in parallel.
SHARD_SPEEDUP_FLOOR = 2.0
SHARD_SPEEDUP_MIN_CPUS = 4

#: content-s/s floor for the BOLA lane (PR 9): the acceptance workload
#: with the policy zoo's BOLA controller replacing the MPC planner.
#: BOLA decides from a closed form over the cached candidate grid — no
#: horizon search — so this lane measures the session layer and
#: scheduler with the decision cost mostly gone.  See
#: ``BENCH_fleet.json`` for the measured row (taken in one window with
#: the MPC baseline row); CI relaxes the floor by BENCH_FLOOR_SCALE like
#: every other absolute floor here.
BOLA_FLOOR = 700.0

#: wall-clock budget for running the acceptance workload with the full
#: telemetry stack on (event tracing + phase profiler), as a multiple of
#: the untraced single-process run.  The pin is ≤10% *throughput* loss:
#: traced content-s/s must stay ≥0.9x untraced, i.e. wall ≤ 1/0.9 ≈
#: 1.111x (measured ~1.03-1.09x on the reference box).  A
#: hardware-normalized ratio, so it is not relaxed by BENCH_FLOOR_SCALE.
TELEMETRY_OVERHEAD_X = round(1.0 / 0.9, 4)

#: wall-clock budget for the armed-but-idle client-resilience layer: the
#: acceptance workload with a default :class:`RetryPolicy` attached
#: (infinite timeout — the per-session retry state and accounting run on
#: every request, but no timeout ever arms and no fault ever fires) as a
#: multiple of the plain run.  The fault-free configuration is gated
#: bit-exact by tests/streaming/test_faults.py; this lane bounds its
#: *cost*: ≤10% throughput loss, i.e. wall ≤ 1/0.9 ≈ 1.111x (measured
#: ~1.00-1.05x on the reference box).  A same-box ratio, so it is not
#: relaxed by BENCH_FLOOR_SCALE.
CHAOS_ARMED_OVERHEAD_X = round(1.0 / 0.9, 4)


def _sessions():
    spec = VideoSpec(
        name="bench", n_frames=SECONDS * 30, fps=30, points_per_frame=100_000
    )
    return make_fleet(N_SESSIONS, spec, join_spacing=0.1, n_grid=8, horizon=2)


def _run_single_link():
    return simulate_fleet(
        _sessions(), trace=stable_trace(400.0), sr_cache=SRResultCache()
    )


def _run_cdn():
    topo = make_cdn(SMOKE, N_SESSIONS, n_edges=4, mbps_per_session=4.0)
    return simulate_fleet(_sessions(), topology=topo, sr_cache=SRResultCache())


@contextmanager
def _quiesced_gc():
    """Freeze the pytest session's heap around a timed run.

    A long pytest session carries a large live heap (fixtures, earlier
    benchmark state), and every gen-2 collection walks all of it — so a
    run whose allocation rate triggers more collections (tracing holds
    hundreds of thousands of event records) pays GC cost proportional
    to *unrelated* session state, an artifact a fresh process never
    sees.  ``gc.freeze`` parks the pre-existing heap in the permanent
    generation for the duration of the measurement, so collector passes
    only walk what the run itself allocates.  Used on every timed run
    in this module, so ratios compare symmetric measurements.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        with _quiesced_gc():
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
    return best


def test_single_link_throughput_floor():
    """Vector-engine floor through the one-hop path."""
    wall = _best_of(_run_single_link)
    rate = CONTENT_SECONDS / wall
    print(f"\nsingle-link fleet {N_SESSIONS}x{SECONDS}s: {wall * 1e3:.0f} ms "
          f"({rate:.0f} content-s/s)")
    assert rate >= SINGLE_LINK_FLOOR * FLOOR_SCALE, (
        f"fleet scheduler regressed: {rate:.0f} content-s/s "
        f"({wall:.2f}s for {CONTENT_SECONDS} content-s, "
        f"floor {SINGLE_LINK_FLOOR:.0f} x{FLOOR_SCALE:g})"
    )


def test_cdn_throughput_floor():
    """Vector-engine floor through the two-hop CDN path."""
    wall = _best_of(_run_cdn)
    rate = CONTENT_SECONDS / wall
    print(f"\ncdn fleet {N_SESSIONS}x{SECONDS}s: {wall * 1e3:.0f} ms "
          f"({rate:.0f} content-s/s)")
    assert rate >= CDN_FLOOR * FLOOR_SCALE, (
        f"CDN fleet scheduler regressed: {rate:.0f} content-s/s "
        f"({wall:.2f}s for {CONTENT_SECONDS} content-s, "
        f"floor {CDN_FLOOR:.0f} x{FLOOR_SCALE:g})"
    )


@pytest.mark.slow
def test_thousand_session_single_link_slow():
    """Nightly scale lane: 1000 concurrent sessions through one link.

    The floor is deliberately loose (half the fast-lane bar, before
    scaling) — the point is catching superlinear blowups in the event
    loop at 10x the fast-lane flow count, not wall-clock jitter.
    """
    spec = VideoSpec(
        name="bench-scale", n_frames=SECONDS * 30, fps=30,
        points_per_frame=100_000,
    )
    sessions = make_fleet(1000, spec, join_spacing=0.05, n_grid=8, horizon=2)
    t0 = time.perf_counter()
    simulate_fleet(sessions, trace=stable_trace(4000.0), sr_cache=SRResultCache())
    wall = time.perf_counter() - t0
    rate = 1000 * SECONDS / wall
    print(f"\n1000-session fleet: {wall:.1f} s ({rate:.0f} content-s/s)")
    assert rate >= 0.5 * SINGLE_LINK_FLOOR * FLOOR_SCALE


@pytest.mark.slow
def test_thousand_session_cdn_slow():
    """Nightly scale lane: 1000 sessions over an 8-edge CDN."""
    spec = VideoSpec(
        name="bench-scale", n_frames=SECONDS * 30, fps=30,
        points_per_frame=100_000,
    )
    sessions = make_fleet(1000, spec, join_spacing=0.05, n_grid=8, horizon=2)
    topo = make_cdn(SMOKE, 1000, n_edges=8, mbps_per_session=4.0)
    t0 = time.perf_counter()
    simulate_fleet(sessions, topology=topo, sr_cache=SRResultCache())
    wall = time.perf_counter() - t0
    rate = 1000 * SECONDS / wall
    print(f"\n1000-session CDN fleet: {wall:.1f} s ({rate:.0f} content-s/s)")
    assert rate >= 0.5 * CDN_FLOOR * FLOOR_SCALE


@pytest.mark.slow
def test_chaos_fleet_slow():
    """Nightly chaos lane: 600 viewers, an edge outage, control plane on.

    Catches wall-time blowups in the fault/monitoring path (the
    per-interval health sweep and outage evacuation are new work the
    plain fleet never does) and a silent loss of failover: the outage
    must re-steer a nonzero viewer share.  The floor is half the CDN
    bar — chaos runs pay for retries and control ticks.
    """
    from repro.streaming import ControlPlane, EdgeOutage, FaultSchedule

    n = 600
    spec = VideoSpec(
        name="bench-chaos", n_frames=SECONDS * 30, fps=30,
        points_per_frame=100_000,
    )
    sessions = make_fleet(n, spec, join_spacing=0.05, n_grid=8, horizon=2)
    topo = make_cdn(
        SMOKE, n, n_edges=8, mbps_per_session=4.0, assignment="least-loaded"
    )
    faults = FaultSchedule((EdgeOutage(edge=0, start=8.0, duration=10.0),))
    t0 = time.perf_counter()
    result = simulate_fleet(
        sessions, topology=topo, sr_cache=SRResultCache(),
        faults=faults, controller=ControlPlane(),
    )
    wall = time.perf_counter() - t0
    rep = result.report
    rate = n * SECONDS / wall
    print(f"\n600-viewer chaos fleet: {wall:.1f} s ({rate:.0f} content-s/s, "
          f"{rep.sessions_resteered} re-steered, dip {rep.qoe_dip_depth:.2f})")
    assert rep.faults_injected == 1
    assert rep.sessions_resteered > 0
    assert rate >= 0.5 * CDN_FLOOR * FLOOR_SCALE


def test_bench_single_link_fleet(benchmark):
    """Absolute cost of the 100-session single-bottleneck fleet.

    Pinned rounds keep the whole module inside the fast lane's wall-time
    budget (autocalibration would loop the end-to-end run for seconds).
    """
    benchmark.pedantic(_run_single_link, rounds=3, iterations=1)


def test_bench_cdn_fleet(benchmark):
    """Absolute cost of the 100-session 4-edge CDN fleet (pinned rounds)."""
    benchmark.pedantic(_run_cdn, rounds=3, iterations=1)


def _run_sharded(workers: int):
    """The acceptance workload: 2000 diurnal viewers over an 8-edge CDN."""
    sessions = make_population(SMOKE, SHARD_SESSIONS, diurnal=True)
    topo = make_cdn(SMOKE, SHARD_SESSIONS, n_edges=SHARD_EDGES)
    return shard_fleet(sessions, topology=topo, workers=workers, sr_cache="per-edge")


#: best observed wall time per worker count, shared between the
#: benchmark-fixture lanes and the floor tests so the ~30 s workload is
#: not re-simulated for every assertion (pytest runs a module in order).
_SHARD_WALL: dict[int, float] = {}


def _timed_sharded(workers: int) -> float:
    with _quiesced_gc():
        t0 = time.perf_counter()
        _run_sharded(workers)
        wall = time.perf_counter() - t0
    _SHARD_WALL[workers] = min(wall, _SHARD_WALL.get(workers, float("inf")))
    return wall


def test_bench_sharded_baseline(benchmark):
    """Absolute cost of the 2000-viewer run, single process (1 round —
    the workload runs tens of seconds)."""
    benchmark.pedantic(lambda: _timed_sharded(1), rounds=1, iterations=1)


def test_bench_sharded_fleet(benchmark):
    """Absolute cost of the same run sharded across 4 worker processes."""
    benchmark.pedantic(
        lambda: _timed_sharded(SHARD_WORKERS), rounds=1, iterations=1
    )


def test_sharded_throughput_floor():
    """Both sharded configurations hold their content-s/s floors."""
    base = _SHARD_WALL.get(1) or _timed_sharded(1)
    shard = _SHARD_WALL.get(SHARD_WORKERS) or _timed_sharded(SHARD_WORKERS)
    base_rate = SHARD_CONTENT_SECONDS / base
    shard_rate = SHARD_CONTENT_SECONDS / shard
    print(f"\nsharded fleet {SHARD_SESSIONS}x{SECONDS}s: "
          f"w1 {base:.1f}s ({base_rate:.0f} content-s/s), "
          f"w{SHARD_WORKERS} {shard:.1f}s ({shard_rate:.0f} content-s/s)")
    assert base_rate >= SHARD_BASELINE_FLOOR * FLOOR_SCALE, (
        f"single-process 2000-viewer fleet regressed: {base_rate:.0f} "
        f"content-s/s (floor {SHARD_BASELINE_FLOOR:.0f} x{FLOOR_SCALE:g})"
    )
    assert shard_rate >= SHARD_FLOOR * FLOOR_SCALE, (
        f"sharded fleet regressed: {shard_rate:.0f} content-s/s "
        f"(floor {SHARD_FLOOR:.0f} x{FLOOR_SCALE:g})"
    )


def _run_bola():
    """The acceptance workload with BOLA swapped in for the MPC planner."""
    sessions = make_population(SMOKE, SHARD_SESSIONS, diurnal=True, abr="bola")
    topo = make_cdn(SMOKE, SHARD_SESSIONS, n_edges=SHARD_EDGES)
    return shard_fleet(
        sessions, topology=topo, workers=1, sr_cache="per-edge"
    )


_BOLA_WALL: dict[int, float] = {}


def _timed_bola() -> float:
    with _quiesced_gc():
        t0 = time.perf_counter()
        _run_bola()
        wall = time.perf_counter() - t0
    _BOLA_WALL[1] = min(wall, _BOLA_WALL.get(1, float("inf")))
    return wall


def test_bench_fleet_bola(benchmark):
    """Absolute cost of the 2000-viewer run with the zoo's BOLA policy,
    single process (1 round — the workload runs tens of seconds)."""
    benchmark.pedantic(_timed_bola, rounds=1, iterations=1)


def test_bola_throughput_floor():
    """The BOLA configuration holds its committed floor.

    With horizon planning gone, the run is bounded by the scheduler and
    session layer — a regression here is a driver regression that the
    MPC lanes could mask behind planner cost.
    """
    wall = _BOLA_WALL.get(1) or _timed_bola()
    rate = SHARD_CONTENT_SECONDS / wall
    print(f"\nbola fleet {SHARD_SESSIONS}x{SECONDS}s: {wall:.1f}s "
          f"({rate:.0f} content-s/s)")
    assert rate >= BOLA_FLOOR * FLOOR_SCALE, (
        f"BOLA fleet regressed: {rate:.0f} content-s/s "
        f"(floor {BOLA_FLOOR:.0f} x{FLOOR_SCALE:g})"
    )


def _run_telemetry() -> Telemetry:
    """The acceptance workload with tracing and profiling enabled.

    Metrics stay off: the sharded executor does not merge the per-shard
    metrics layer (see ``shard_fleet``), so the traced configuration is
    the one a chaos/debug run would actually use — full event trace plus
    the wall-clock phase profiler.
    """
    telemetry = Telemetry(metrics=False)
    sessions = make_population(SMOKE, SHARD_SESSIONS, diurnal=True)
    topo = make_cdn(SMOKE, SHARD_SESSIONS, n_edges=SHARD_EDGES)
    shard_fleet(
        sessions, topology=topo, workers=1, sr_cache="per-edge", telemetry=telemetry
    )
    return telemetry


_TELEMETRY_WALL: dict[int, float] = {}
_TELEMETRY_PHASES: dict[str, dict] = {}


def _timed_telemetry() -> float:
    with _quiesced_gc():
        t0 = time.perf_counter()
        telemetry = _run_telemetry()
        wall = time.perf_counter() - t0
    if wall < _TELEMETRY_WALL.get(1, float("inf")):
        _TELEMETRY_WALL[1] = wall
        _TELEMETRY_PHASES.clear()
        _TELEMETRY_PHASES.update(telemetry.profiler.breakdown())
    return wall


def test_bench_fleet_telemetry(benchmark):
    """Absolute cost of the 2000-viewer run with tracing + profiling on,
    single process (1 round — the workload runs tens of seconds).

    When ``BENCH_PHASES_OUT`` names a file, the profiler's phase
    breakdown from the best traced run is dumped there as JSON for
    ``scripts/bench_report.py`` to fold into ``BENCH_fleet.json``.
    """
    benchmark.pedantic(_timed_telemetry, rounds=1, iterations=1)
    out = os.environ.get("BENCH_PHASES_OUT")
    if out:
        with open(out, "w") as fh:
            json.dump(
                {
                    "workload": f"sharded w1 {SHARD_SESSIONS}x{SECONDS}s",
                    "wall_s": _TELEMETRY_WALL[1],
                    "phases": _TELEMETRY_PHASES,
                },
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")


#: best same-window (base, subject) pair per overhead gate, dumped under
#: ``BENCH_OVERHEADS_OUT`` for ``scripts/bench_report.py``.  The
#: benchmark-fixture rows are single measurements minutes apart, so a
#: box whose speed drifts across the session records a ratio no
#: same-window run would reproduce; the budget tests below already
#: re-time interleaved pairs, and this dump hands their paired evidence
#: to the committed-JSON gate instead of leaving it to re-derive the
#: ratio from mismatched windows.
_OVERHEAD_PAIRS: dict[str, dict] = {}


def _record_overhead(gate: str, base: float, wall: float) -> None:
    _OVERHEAD_PAIRS[gate] = {
        "base_wall_s": base,
        "wall_s": wall,
        "overhead_x": wall / base,
    }
    out = os.environ.get("BENCH_OVERHEADS_OUT")
    if out:
        with open(out, "w") as fh:
            json.dump(_OVERHEAD_PAIRS, fh, indent=2, sort_keys=True)
            fh.write("\n")


def test_telemetry_overhead_budget():
    """Enabled telemetry costs ≤10% throughput on the acceptance run.

    The disabled path is gated by bit-exactness tests (no telemetry
    object → no overhead at all); this lane bounds the *enabled* path:
    full event tracing plus the phase profiler on the acceptance
    workload must keep ≥90% of the untraced run's throughput, i.e.
    wall ≤ 1/0.9x.  Each side is a tens-of-seconds single measurement
    with run-to-run jitter of the same order as the budget, so every
    timed run is GC-quiesced (see ``_quiesced_gc``) and a failing
    ratio is judged only on *same-window* evidence: the memoized walls
    from the fixture lanes run minutes apart (untraced early, traced
    late — a slowing box biases that ratio high), so on a miss the
    gate re-times freshly interleaved (untraced, traced) pairs and
    takes the best per-pair ratio.  A real per-event cost regression
    inflates every pair; session drift does not survive the min.
    """
    base = _SHARD_WALL.get(1) or _timed_sharded(1)
    traced = _TELEMETRY_WALL.get(1) or _timed_telemetry()
    overhead = traced / base
    attempts = 3
    while overhead > TELEMETRY_OVERHEAD_X and attempts > 0:
        attempts -= 1
        pair_base = _timed_sharded(1)
        pair_traced = _timed_telemetry()
        if pair_traced / pair_base < overhead:
            base, traced = pair_base, pair_traced
            overhead = pair_traced / pair_base
    _record_overhead("fleet_telemetry", base, traced)
    print(f"\ntelemetry overhead: {traced:.1f}s vs {base:.1f}s untraced "
          f"({overhead:.3f}x, budget {TELEMETRY_OVERHEAD_X:g}x)")
    assert overhead <= TELEMETRY_OVERHEAD_X, (
        f"enabled telemetry costs {overhead:.2f}x the untraced run "
        f"(budget {TELEMETRY_OVERHEAD_X:g}x): tracing {traced:.1f}s vs "
        f"{base:.1f}s on the single-process acceptance workload"
    )


def _run_chaos_armed():
    """The acceptance workload with the resilience layer armed but idle.

    A default :class:`RetryPolicy` carries an infinite timeout, so every
    request pays the retry-state bookkeeping (attempt counters, offset
    table, gray/timeout checks) while no fault fires and no timeout ever
    arms — the configuration a cautious operator leaves on year-round.
    """
    sessions = make_population(SMOKE, SHARD_SESSIONS, diurnal=True)
    topo = make_cdn(SMOKE, SHARD_SESSIONS, n_edges=SHARD_EDGES)
    return shard_fleet(
        sessions, topology=topo, workers=1, sr_cache="per-edge",
        retry_policy=RetryPolicy(),
    )


_CHAOS_ARMED_WALL: dict[int, float] = {}


def _timed_chaos_armed() -> float:
    with _quiesced_gc():
        t0 = time.perf_counter()
        _run_chaos_armed()
        wall = time.perf_counter() - t0
    _CHAOS_ARMED_WALL[1] = min(wall, _CHAOS_ARMED_WALL.get(1, float("inf")))
    return wall


def test_bench_fleet_chaos_armed(benchmark):
    """Absolute cost of the 2000-viewer run with a default RetryPolicy
    attached, single process (1 round — the workload runs tens of
    seconds)."""
    benchmark.pedantic(_timed_chaos_armed, rounds=1, iterations=1)


def test_chaos_armed_overhead_budget():
    """The armed-but-idle resilience layer costs ≤10% throughput.

    The no-policy path is gated bit-exact elsewhere; this lane bounds
    the *armed* path: a default RetryPolicy on the acceptance workload
    must keep ≥90% of the plain run's throughput.  Same measurement
    discipline as the telemetry budget — GC-quiesced runs, and on a
    miss the gate re-times freshly interleaved (plain, armed) pairs and
    takes the best per-pair ratio so box drift between the memoized
    fixture runs cannot fail a healthy build.
    """
    base = _SHARD_WALL.get(1) or _timed_sharded(1)
    armed = _CHAOS_ARMED_WALL.get(1) or _timed_chaos_armed()
    overhead = armed / base
    attempts = 3
    while overhead > CHAOS_ARMED_OVERHEAD_X and attempts > 0:
        attempts -= 1
        pair_base = _timed_sharded(1)
        pair_armed = _timed_chaos_armed()
        if pair_armed / pair_base < overhead:
            base, armed = pair_base, pair_armed
            overhead = pair_armed / pair_base
    _record_overhead("fleet_chaos", base, armed)
    print(f"\nchaos-armed overhead: {armed:.1f}s vs {base:.1f}s plain "
          f"({overhead:.3f}x, budget {CHAOS_ARMED_OVERHEAD_X:g}x)")
    assert overhead <= CHAOS_ARMED_OVERHEAD_X, (
        f"armed-but-idle retry layer costs {overhead:.2f}x the plain run "
        f"(budget {CHAOS_ARMED_OVERHEAD_X:g}x): {armed:.1f}s vs "
        f"{base:.1f}s on the single-process acceptance workload"
    )


def test_sharded_speedup_floor():
    """workers=4 must beat workers=1 by ≥2x end to end.

    Needs real parallelism: on fewer than 4 CPUs the residual speedup is
    the algorithmic one (smaller per-shard event scans, measured ~1.3x
    on 1 CPU after PR 7's scheduler tuning cheapened each event scan),
    so the gate skips rather than flaking — CI's 4-vCPU
    runners enforce it on every push via the BENCH_fleet.json gate too.
    """
    cpus = os.cpu_count() or 1
    if cpus < SHARD_SPEEDUP_MIN_CPUS:
        pytest.skip(
            f"{cpus} CPU(s) < {SHARD_SPEEDUP_MIN_CPUS}: no parallel "
            "speedup to measure"
        )
    base = _SHARD_WALL.get(1) or _timed_sharded(1)
    shard = _SHARD_WALL.get(SHARD_WORKERS) or _timed_sharded(SHARD_WORKERS)
    speedup = base / shard
    print(f"\nsharded speedup at {SHARD_WORKERS} workers: {speedup:.2f}x")
    assert speedup >= SHARD_SPEEDUP_FLOOR, (
        f"sharding no longer scales: {speedup:.2f}x at {SHARD_WORKERS} "
        f"workers (floor {SHARD_SPEEDUP_FLOOR:g}x)"
    )


@pytest.mark.slow
def test_ten_thousand_viewer_sharded_slow():
    """Nightly scale lane: 10k viewers over a 16-edge CDN, 8 shards.

    The 'past 10k viewers' bar: the run must finish and hold a loose
    absolute floor (catching superlinear blowups at 5x the fast-lane
    viewer count, not wall-clock jitter).
    """
    sessions = make_population(SMOKE, 10_000, diurnal=True)
    topo = make_cdn(SMOKE, 10_000, n_edges=16)
    t0 = time.perf_counter()
    result = shard_fleet(sessions, topology=topo, workers=8, sr_cache="per-edge")
    wall = time.perf_counter() - t0
    rate = 10_000 * SECONDS / wall
    print(f"\n10k-viewer sharded fleet: {wall:.1f} s ({rate:.0f} content-s/s)")
    assert result.report.n_sessions == 10_000
    assert rate >= 0.5 * SHARD_FLOOR * FLOOR_SCALE
