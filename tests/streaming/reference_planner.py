"""References for the MPC planners in :mod:`repro.streaming.abr`.

Two oracles, neither of them production code:

* **The scalar reference** — Eq. 10 planned one candidate density at a
  time, one chunk at a time, in plain Python floats, through the scalar
  leaves that have production traffic of their own:
  ``ChunkSpec.bytes_at_density`` / ``points_at_density``, the SR latency
  model's ``__call__``, ``SRQualityModel.sr_ratio_for`` / ``quality`` and
  Eq. 10's three per-chunk terms (``tests/metrics/reference_qoe.py``, the
  term-by-term oracle of ``QoEModel.session``).  Its sum order differs
  from production's, so ``tests/streaming/test_abr_parity.py`` pins
  ``plan_values`` / ``decide`` / ``decide_batch`` against it at 1e-9.
* **The tensor planner** — the ``(H, N, C)`` NumPy pass (horizon step,
  decision row, candidate) that production ran before its one-pass float
  loop: window tensors stacked from the same scalar leaves, first-chunk
  rows from ``QoEModel.first_chunk_values``, the buffer recursion in array calls
  and ``first − γ·s₀ + Σᵢ (later − γ·sᵢ)`` over the stall tensor.  It
  performs the same float operations in the same order as production,
  so values and first-max decisions are pinned with ``==``.

Both read a controller's configuration only (``candidates``,
``quality_model``, ``qoe_model``, ``sr_latency``, ``horizon``,
``fetch_fraction``) and the ``SAFETY`` discount, never its caches; and
nothing here shares a name with a production array path, which
``tests/test_code_shape.py`` keeps honest.
"""

from __future__ import annotations

import numpy as np

from repro.streaming.abr import SAFETY, AbrContext, Decision
from tests.metrics.reference_qoe import quality_term, stall_term, variation_term


def plan_value(qoe_model, qualities, stalls, prev_quality) -> float:
    """Eq. 10 summed over one candidate plan (the scalar ``QoEModel`` loop)."""
    if len(qualities) != len(stalls):
        raise ValueError("qualities and stalls must align")
    w = qoe_model.weights
    total = 0.0
    prev = prev_quality
    for q, s in zip(qualities, stalls):
        total += quality_term(w, q) - variation_term(w, q, prev) - stall_term(w, s)
        prev = q
    return total


def mpc_plan_value(mpc, density: float, ctx: AbrContext) -> float:
    """QoE of fetching the next ``mpc.horizon`` chunks at ``density``.

    The robust-MPC simplification: a constant decision over the horizon,
    priced at a safety-discounted throughput estimate.
    """
    tput = ctx.throughput_bps * SAFETY
    s = mpc.quality_model.sr_ratio_for(density)
    q = mpc.quality_model.quality(density, s)
    buffer = ctx.buffer_level
    qualities, stalls = [], []
    for chunk in ctx.next_chunks[: mpc.horizon]:
        dl = chunk.bytes_at_density(density) * mpc.fetch_fraction * 8.0 / tput
        sr = chunk.n_frames * mpc.sr_latency(chunk.points_at_density(density), s)
        # Download and SR overlap across chunks (pipelined client), so
        # the steady-state readiness interval is the slower stage.
        ready = max(dl, sr)
        stalls.append(max(0.0, ready - buffer))
        buffer = max(buffer - ready, 0.0) + chunk.duration
        qualities.append(q)
    return plan_value(mpc.qoe_model, qualities, stalls, ctx.prev_quality)


def scalar_values(mpc, ctx: AbrContext) -> list[float]:
    """:func:`mpc_plan_value` for every candidate density, in grid order."""
    return [mpc_plan_value(mpc, float(d), ctx) for d in mpc.candidates]


def scalar_decide(mpc, ctx: AbrContext) -> Decision:
    """First-maximum candidate of :func:`scalar_values` (``argmax``'s tie rule)."""
    values = scalar_values(mpc, ctx)
    density = float(mpc.candidates[values.index(max(values))])
    return Decision(
        density=density, sr_ratio=mpc.quality_model.sr_ratio_for(density)
    )


# -- the tensor planner ------------------------------------------------------


def candidate_qualities(mpc) -> np.ndarray:
    """Quality ``Q`` of each candidate density, ``(C,)``."""
    qm = mpc.quality_model
    return np.array(
        [qm.quality(d, qm.sr_ratio_for(d)) for d in mpc.candidates.tolist()]
    )


def window_tensors(mpc, chunks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fetched bits and SR seconds ``(H, 1, C)`` and durations ``(H, 1, 1)``
    of one horizon window, cell by cell through the scalar leaves."""
    cands = mpc.candidates.tolist()
    ratios = [mpc.quality_model.sr_ratio_for(d) for d in cands]
    bits = np.array([
        [c.bytes_at_density(d) * mpc.fetch_fraction * 8.0 for d in cands]
        for c in chunks
    ])
    sr = np.array([
        [
            c.n_frames * mpc.sr_latency(c.points_at_density(d), r)
            for d, r in zip(cands, ratios)
        ]
        for c in chunks
    ])
    dur = np.array([c.duration for c in chunks])
    return bits[:, None, :], sr[:, None, :], dur[:, None, None]


def horizon_values(qoe_model, first, later, stalls) -> np.ndarray:
    """``first − γ·s₀ + Σᵢ (later − γ·sᵢ)`` over a leading horizon axis.

    ``first`` and ``later`` are ``QoEModel.first_chunk_values`` rows — with
    the plan's previous quality and with ``None`` — and broadcast against
    the plan axes of ``stalls``.
    """
    s = np.asarray(stalls, dtype=np.float64)
    if s.ndim < 1:
        raise ValueError("need a horizon axis")
    stall = qoe_model.weights.gamma * s
    total = first - stall[0]
    for i in range(1, len(stall)):
        total = total + (later - stall[i])
    return total


def tensor_values(mpc, ctxs: list[AbrContext]) -> np.ndarray:
    """Plan values ``(N, C)`` of contexts sharing one effective horizon."""
    windows = [window_tensors(mpc, c.next_chunks[: mpc.horizon]) for c in ctxs]
    if len({len(w[0]) for w in windows}) != 1:
        raise ValueError("contexts must share one effective horizon")
    bits, sr, dur = (np.concatenate(t, axis=1) for t in zip(*windows))
    tput = (np.array([c.throughput_bps for c in ctxs]) * SAFETY)[:, None]
    buffer = np.array([c.buffer_level for c in ctxs])[:, None]
    q = candidate_qualities(mpc)[None, :]
    first = np.concatenate(
        [mpc.qoe_model.first_chunk_values(q, c.prev_quality) for c in ctxs]
    )
    ready = bits / tput                                    # (H, N, C)
    np.maximum(ready, sr, out=ready)
    last = len(ready) - 1
    for h, (r, d) in enumerate(zip(ready, dur)):
        # stall = max(0, r - b) written over r; b' = d - min(r - b, 0)
        x = r - buffer
        np.maximum(0.0, x, out=r)
        if h < last:
            buffer = d - np.minimum(x, 0.0, out=x)
    return horizon_values(mpc.qoe_model, first, mpc.qoe_model.first_chunk_values(q), ready)


def tensor_decide(mpc, ctx: AbrContext) -> Decision:
    """``argmax`` of :func:`tensor_values` for one context."""
    c = int(np.argmax(tensor_values(mpc, [ctx])[0]))
    density = float(mpc.candidates[c])
    return Decision(density, mpc.quality_model.sr_ratio_for(density))
