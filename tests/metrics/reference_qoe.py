"""Term-by-term reference for :meth:`repro.metrics.qoe.QoEModel.session`.

Eq. 10 written one term per function, as ``QoEModel`` computed it before
``session`` folded the records in one pass: ``α·Q``, ``β·V`` (0 for the
first chunk, ``drop_multiplier`` on a drop) and ``γ·S`` per chunk, and a
session as the running sum of :func:`chunk_qoe`.  ``session`` must equal
:func:`session_sum` with ``==``; the scalar planner oracle
(``tests/streaming/reference_planner.py``) sums the same terms.
"""

from __future__ import annotations

from repro.metrics.qoe import ChunkRecord, QoEWeights


def quality_term(w: QoEWeights, quality: float) -> float:
    """α·Q for one chunk."""
    return w.alpha * float(quality)


def variation_term(w: QoEWeights, quality: float, prev_quality: float | None) -> float:
    """β·V between consecutive chunks (0 for the first chunk)."""
    if prev_quality is None:
        return 0.0
    delta = quality - prev_quality
    mult = w.drop_multiplier if delta < 0 else 1.0
    return w.beta * mult * abs(delta)


def stall_term(w: QoEWeights, stall: float) -> float:
    """γ·S for one chunk."""
    if stall < 0:
        raise ValueError("stall must be non-negative")
    return w.gamma * float(stall)


def chunk_qoe(w: QoEWeights, rec: ChunkRecord, prev_quality: float | None) -> float:
    """Per-chunk contribution to the session QoE."""
    return (
        quality_term(w, rec.quality)
        - variation_term(w, rec.quality, prev_quality)
        - stall_term(w, rec.stall)
    )


def session_sum(w: QoEWeights, records: list[ChunkRecord]) -> float:
    """Total QoE of a session, one :func:`chunk_qoe` at a time."""
    total, prev = 0.0, None
    for rec in records:
        total += chunk_qoe(w, rec, prev)
        prev = rec.quality
    return total
