"""QoE model (paper §5.1, Eq. 10 — borrowed from YuZu's formulation).

    QoE = Σ_i ( α·Q(r_i) − β·V(r_i, r_{i−1}) − γ·S(r_i) )

* ``Q`` — visual quality, the post-SR point density viewed by the user,
  normalized by the full-density point count so Q ∈ [0, 1] per chunk;
* ``V`` — quality-variation penalty between consecutive chunks, with a
  higher weight on quality *drops* (more noticeable to viewers);
* ``S`` — stall time in seconds attributed to the chunk.

The same model is used both inside the MPC controller (to plan) and by the
evaluation harness (to score finished sessions), exactly as in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "QoEWeights",
    "ChunkRecord",
    "QoEModel",
    "session_qoe",
    "aggregate_qoe",
    "bootstrap_ci",
]


@dataclass(frozen=True)
class QoEWeights:
    """Coefficients of Eq. 10.

    ``drop_multiplier`` scales the variation penalty when quality decreases
    ("higher weights for quality drops").
    """

    alpha: float = 1.0
    beta: float = 0.5
    gamma: float = 2.0
    drop_multiplier: float = 2.0

    def __post_init__(self) -> None:
        for f in fields(self):  # a negative γ rewards stalls; 0 turns a term off
            value = getattr(self, f.name)
            if not 0 <= value < math.inf:  # chained: NaN fails it
                raise ValueError(
                    f"QoEWeights.{f.name} must be finite and non-negative, got {value!r}"
                )


@dataclass
class ChunkRecord:
    """What the viewer experienced for one chunk."""

    #: displayed (post-SR) point density as a fraction of full density
    quality: float
    #: rebuffering time attributed to this chunk, seconds
    stall: float = 0.0
    #: bytes downloaded for this chunk (media + any models/metadata)
    bytes_downloaded: int = 0


class QoEModel:
    """Evaluates Eq. 10 over chunk sequences."""

    def __init__(self, weights: QoEWeights | None = None):
        self.weights = weights or QoEWeights()

    def session(self, records: list[ChunkRecord]) -> float:
        """Total QoE of a session: per chunk ``α·Q − β·V − γ·S`` (``V`` is 0
        for the first chunk and weighted ``drop_multiplier`` on a drop),
        summed in record order.  One pass with the weights in locals; the
        same float operations, in the same order, as the term-by-term sum
        in ``tests/metrics/reference_qoe.py``."""
        w = self.weights
        alpha, beta, gamma = w.alpha, w.beta, w.gamma
        beta_drop = beta * w.drop_multiplier
        total, prev = 0.0, None
        for rec in records:
            q, stall = rec.quality, rec.stall
            if stall < 0:
                raise ValueError("stall must be non-negative")
            value = alpha * float(q)
            if prev is not None:  # the first chunk's variation is 0
                delta = q - prev
                value -= (beta_drop if delta < 0 else beta) * abs(delta)
            total += value - gamma * float(stall)
            prev = q
        return total

    def first_chunk_values(
        self, qualities: np.ndarray, prev_quality: float | None = None
    ) -> np.ndarray:
        """Stall-free value of a plan's first chunk, ``α·q − β·V(q, prev)``.

        A *plan* holds one quality for the whole horizon (the Robust-MPC
        simplification), so ``qualities`` has the plan axes only —
        candidate density, ... — and ``prev_quality`` is the one previous
        chunk they all follow, or ``None`` for none.  With ``None`` the row
        is ``α·q``, which is also what every *later* chunk of a plan adds
        before its stall: after the first chunk the quality does not
        change, so the variation term is exactly ``+0.0``.

        The row depends on nothing a throughput sample or a buffer level
        moves, so a planner builds it once per previous quality and adds
        each planned chunk's ``−γ·s`` to it on every call.
        """
        q = np.asarray(qualities, dtype=np.float64)
        w = self.weights
        quality = w.alpha * q
        if prev_quality is None:
            return quality
        delta = q - prev_quality
        variation = np.where(
            delta < 0, w.beta * w.drop_multiplier, w.beta
        ) * np.abs(delta)
        return quality - variation


def session_qoe(
    records: list[ChunkRecord], weights: QoEWeights | None = None
) -> dict[str, float]:
    """Score a session; returns QoE plus the aggregates the paper reports."""
    model = QoEModel(weights)
    qoe = model.session(records)
    total_bytes = sum(r.bytes_downloaded for r in records)
    stall = sum(r.stall for r in records)
    mean_q = float(np.mean([r.quality for r in records])) if records else 0.0
    return {
        "qoe": qoe,
        "bytes": float(total_bytes),
        "stall_seconds": stall,
        "mean_quality": mean_q,
        "n_chunks": float(len(records)),
    }


def aggregate_qoe(
    qoes: list[float],
    stall_seconds: list[float],
    played_seconds: list[float],
) -> dict[str, float]:
    """Population-level QoE statistics over many sessions (fleet report).

    Returns the aggregates a service operator watches: mean and tail
    (p5/p95) per-session QoE, and the fleet stall ratio — total rebuffering
    time over total session time (playback + stalls), the fraction of
    viewer wall-clock spent frozen.
    """
    if not qoes:
        raise ValueError("need at least one session")
    if not len(qoes) == len(stall_seconds) == len(played_seconds):
        raise ValueError("per-session lists must align")
    if any(s < 0 for s in stall_seconds) or any(p <= 0 for p in played_seconds):
        raise ValueError("stalls must be non-negative, playback positive")
    q = np.asarray(qoes, dtype=np.float64)
    total_stall = float(np.sum(stall_seconds))
    total_play = float(np.sum(played_seconds))
    return {
        "mean_qoe": float(np.mean(q)),
        "p5_qoe": float(np.percentile(q, 5)),
        "p95_qoe": float(np.percentile(q, 95)),
        "stall_ratio": total_stall / (total_play + total_stall),
        "total_stall_seconds": total_stall,
        "n_sessions": float(len(qoes)),
    }


def bootstrap_ci(
    values: list[float] | np.ndarray,
    *,
    n_boot: int = 1000,
    confidence: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval for the mean of ``values``.

    Resamples the per-session values with replacement ``n_boot`` times
    (seeded :func:`numpy.random.default_rng`, so reruns are identical)
    and returns the (lo, hi) percentile interval of the resampled means.
    This is how the policy-zoo A/B reports uncertainty on mean QoE:
    nonparametric, so the heavy left tail a stall-prone policy produces
    widens its interval instead of being assumed away.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("need a non-empty 1-D sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if n_boot < 1:
        raise ValueError("n_boot must be positive")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, v.size, size=(n_boot, v.size))
    means = v[idx].mean(axis=1)
    tail = 100.0 * (1.0 - confidence) / 2.0
    lo, hi = np.percentile(means, [tail, 100.0 - tail])
    return float(lo), float(hi)
