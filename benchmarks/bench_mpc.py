"""MPC planner micro-benchmark: vectorized vs scalar-oracle wall time.

The vectorized planner is the mechanism that keeps large-fleet simulation
wall time flat, so this lane fails loudly if it regresses:

* ``test_vectorized_speedup_at_fleet_scale`` asserts the acceptance
  floor — ≥5x over the scalar oracle at 64 candidates × 100 sessions;
* the ``benchmark``-fixture lanes track the absolute per-call costs of
  ``decide_batch`` (one tensor pass) and the scalar reference loop.

Runs in the fast benchmarks lane (`pytest benchmarks -m "not slow"`).
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments.workloads import volut_latency_model
from repro.metrics import QoEModel
from repro.streaming import AbrContext, ContinuousMPC, SRQualityModel, VideoSpec
from repro.streaming.abr import Decision

N_SESSIONS = 100
N_GRID = 64
HORIZON = 5

#: acceptance floor: vectorized decide_batch speedup over the scalar oracle.
SPEEDUP_FLOOR = 5.0


def make_mpc(n_grid: int = N_GRID) -> ContinuousMPC:
    return ContinuousMPC(
        SRQualityModel(),
        QoEModel(),
        volut_latency_model(),
        n_grid=n_grid,
        horizon=HORIZON,
    )


def make_contexts(n_sessions: int = N_SESSIONS) -> list[AbrContext]:
    """A varied fleet snapshot: spread throughputs, buffers, histories."""
    spec = VideoSpec(
        name="bench", n_frames=20 * 30, fps=30, points_per_frame=100_000
    )
    chunks = spec.chunks(1.0)
    rng = np.random.default_rng(0)
    ctxs = []
    for i in range(n_sessions):
        start = int(rng.integers(0, len(chunks) - 1))
        ctxs.append(
            AbrContext(
                throughput_bps=float(rng.uniform(5e6, 400e6)),
                buffer_level=float(rng.uniform(0.0, 9.0)),
                prev_quality=None if i % 7 == 0 else float(rng.uniform(0.1, 1.0)),
                next_chunks=chunks[start : start + HORIZON],
            )
        )
    return ctxs


def scalar_decide_all(mpc: ContinuousMPC, ctxs: list[AbrContext]) -> list[Decision]:
    """The pre-vectorization control flow: per-candidate Python loop."""
    out = []
    for ctx in ctxs:
        values = [mpc._plan_value(d, ctx) for d in mpc.candidates]
        best = float(mpc.candidates[int(np.argmax(values))])
        out.append(
            Decision(density=best, sr_ratio=mpc.quality_model.sr_ratio_for(best))
        )
    return out


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_vectorized_speedup_at_fleet_scale():
    """Acceptance floor: ≥5x over the scalar oracle at 64×100.

    Dedup/memoization is disabled for the timed calls: repeats on the
    same contexts would be pure memo hits from round 2 on, and this
    floor exists to catch the *tensor path* regressing.
    """
    mpc = make_mpc()
    ctxs = make_contexts()
    assert mpc.decide_batch(ctxs) == scalar_decide_all(mpc, ctxs)
    mpc.dedup = False
    scalar = _best_of(lambda: scalar_decide_all(mpc, ctxs), repeats=2)
    vectorized = _best_of(lambda: mpc.decide_batch(ctxs), repeats=5)
    speedup = scalar / vectorized
    print(
        f"\nMPC 64 candidates x 100 sessions: scalar {scalar * 1e3:.1f} ms, "
        f"vectorized {vectorized * 1e3:.1f} ms ({speedup:.1f}x)"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized MPC regressed: only {speedup:.1f}x over the scalar "
        f"oracle (scalar {scalar * 1e3:.1f} ms, batched {vectorized * 1e3:.1f} ms)"
    )


def test_bench_decide_batch(benchmark):
    """Absolute cost of one fleet-wide decision pass (64 cand × 100 ctx).

    Times the tensor evaluation itself — dedup off, or every round after
    the first would be answered from the cross-call memo.
    """
    mpc = make_mpc()
    mpc.dedup = False
    ctxs = make_contexts()
    benchmark(mpc.decide_batch, ctxs)


def test_bench_decide_batch_memoized(benchmark):
    """Steady-state cost of the same pass when the memo is warm — the
    decision-dedup path the fleet driver rides once states recur."""
    mpc = make_mpc()
    ctxs = make_contexts()
    mpc.decide_batch(ctxs)          # warm the memo
    benchmark(mpc.decide_batch, ctxs)


def test_bench_decide_single(benchmark):
    """Absolute cost of one session's decision (64 candidates)."""
    mpc = make_mpc()
    ctx = make_contexts(1)[0]
    benchmark(mpc.decide, ctx)


def test_bench_scalar_reference(benchmark):
    """Scalar-oracle cost, kept small (20 sessions) to stay in the fast lane."""
    mpc = make_mpc()
    ctxs = make_contexts(20)
    benchmark(scalar_decide_all, mpc, ctxs)
