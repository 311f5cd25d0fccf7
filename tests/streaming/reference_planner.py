"""Scalar reference for the MPC planners in :mod:`repro.streaming.abr`.

The oracle of the vectorized-MPC parity instance: Eq. 10 planned one
candidate density at a time, one chunk at a time, in plain Python floats.
It reads a controller's configuration (``candidates``, ``quality_model``,
``qoe_model``, ``sr_latency``, ``horizon``, ``fetch_fraction``) and the
``SAFETY`` discount, and otherwise touches only the scalar leaves that
have production traffic of their own — ``ChunkSpec.bytes_at_density`` /
``points_at_density``, the SR latency model's ``__call__``,
``SRQualityModel.sr_ratio_for`` / ``quality`` and Eq. 10's three
per-chunk terms (``tests/metrics/reference_qoe.py``, the term-by-term
oracle of ``QoEModel.session``).  Nothing of the array path is imported, on purpose:
``tests/streaming/test_abr_parity.py`` pins ``plan_values`` / ``decide`` /
``decide_batch`` against this module at 1e-9, and
``tests/test_code_shape.py`` keeps the import list honest.
"""

from __future__ import annotations

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
