"""Adaptive bitrate controllers (paper §5).

VoLUT's contribution here is **continuous** adaptation: because the
two-stage SR supports arbitrary ratios at stable latency, the MPC can pick
any fetch density in ``(0, 1]`` rather than a handful of encoded levels.
Three controllers share the MPC machinery:

* :class:`ContinuousMPC` — VoLUT (H1): fine-grained density grid,
  effectively continuous;
* :class:`DiscreteMPC` — H2 / YuZu-style: densities restricted to the
  reciprocals of the discrete SR options;
* :class:`BufferBased` — the classic threshold controller, used as a
  sanity baseline.

The SR-quality model maps a {density, SR-ratio} decision to the perceived
quality ``Q`` of Eq. 10: the post-SR density discounted by a per-doubling
SR efficiency (SR'd points are almost, not exactly, as good as native
ones — the discount is calibrated from the SR-quality experiments).

The MPC planners evaluate every decision row in ``decide_batch`` —
"group by effective horizon, one array pass, argmax" — and ``decide`` is
its one-row call; the scalar per-candidate reference they are pinned
against lives in ``tests/streaming/reference_planner.py``.

**Layout: ``(H, N, C)`` — horizon step, decision row, candidate
density.**  A fleet step plans about one row per call, so a call costs
what its NumPy dispatches cost, not what its arithmetic costs; the
layout is chosen so that a call makes as few of them as it can.

* *Per controller* (fixed at construction): the candidate grid ``(C,)``,
  its SR ratios, its qualities and one :class:`Decision` per candidate,
  which ``decide_batch`` hands out by ``argmax`` index.
* *Per chunk window* (:meth:`_MPCBase._horizon_tensors`, keyed on the
  tuple of chunk specs): fetched bits and SR seconds ``(H, 1, C)`` and
  chunk durations ``(H, 1, 1)`` — checked finite and non-negative once,
  already in the planner's shape.  Horizon leads, so a one-row call uses
  the cached tensors as they are and a batch is one ``concatenate`` along
  the row axis; ``tensor[h]`` is a contiguous ``(N, C)`` step.
* *Per call*: throughput, buffer and previous quality — Python floats for
  one row, ``(N, 1)`` columns for a batch, the same expressions either
  way — then ``ready = max(bits / tput, sr)`` on the whole tensor, the
  buffer recursion step by step, and ``QoEModel.plan_values``.

A plan holds one density over its horizon (the Robust-MPC
simplification), so quality changes only between the previous chunk and
the first planned one: after step 0 the variation term of Eq. 10 is
exactly ``+0.0`` and a step adds ``α·q − γ·s_i`` — the same additions in
the same order as the term-by-term sum, so values are bit-equal to it.

The non-MPC controllers of the policy zoo (BOLA, throughput rule,
hybrid) live in :mod:`repro.streaming.policies` along with the
string-keyed registry — ``get_policy("bola")`` — that the experiment
CLIs resolve ``--abr`` names against; every controller here is
registered there too.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..metrics.qoe import QoEModel
from .chunks import ChunkSpec, batched_chunk_bytes, batched_points_at_density
from .latency import SRLatency, latency_batch

__all__ = [
    "SRQualityModel",
    "AbrContext",
    "Decision",
    "AbrController",
    "ContinuousMPC",
    "DiscreteMPC",
    "BufferBased",
    "YUZU_DENSITY_LEVELS",
]

#: Fetch densities reachable with YuZu's discrete SR options.  The paper
#: lists them as factor pairs (1x2, 2x2, 1x3, 1x4, 4x1, 2x1), i.e. end-to-end
#: ratios {2, 3, 4} — so a discrete client can never fetch below 1/4 density.
YUZU_DENSITY_LEVELS = (1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0)


class SRQualityModel:
    """Maps a {density, SR-ratio} pair to perceived quality Q ∈ [0, 1].

    ``Q = min(1, density · sr_ratio) · efficiency^log2(sr_ratio)`` — the
    post-SR point density, discounted per upsampling doubling.  The default
    efficiency (0.93) reproduces the PSNR gap between SR'd and native
    content measured in §7.2 (×4 SR sits a few dB below ×2).
    """

    def __init__(self, max_ratio: float = 8.0, efficiency: float = 0.93):
        if max_ratio < 1.0:
            raise ValueError("max_ratio must be >= 1")
        if not 0.0 < efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        self.max_ratio = float(max_ratio)
        self.efficiency = float(efficiency)

    def sr_ratio_for(self, density: float) -> float:
        """SR ratio the client will apply for a fetch density."""
        if not 0.0 < density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {density}")
        return float(min(self.max_ratio, 1.0 / density))

    def quality(self, density: float, sr_ratio: float | None = None) -> float:
        """Perceived quality of Eq. 10's Q term."""
        s = self.sr_ratio_for(density) if sr_ratio is None else float(sr_ratio)
        if s < 1.0:
            raise ValueError("sr_ratio must be >= 1")
        restored = min(1.0, density * s)
        discount = self.efficiency ** np.log2(max(s, 1.0))
        return float(restored * discount)

    # -- batched forms (one candidate-density axis) --------------------
    def sr_ratios_for(self, densities: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`sr_ratio_for` (identical arithmetic)."""
        d = np.asarray(densities, dtype=np.float64)
        if np.any((d <= 0.0) | (d > 1.0)):
            raise ValueError("densities must be in (0, 1]")
        return np.minimum(self.max_ratio, 1.0 / d)

    def qualities(
        self, densities: np.ndarray, sr_ratios: np.ndarray | None = None
    ) -> np.ndarray:
        """Vectorized :meth:`quality` (identical arithmetic)."""
        d = np.asarray(densities, dtype=np.float64)
        s = (
            self.sr_ratios_for(d)
            if sr_ratios is None
            else np.asarray(sr_ratios, dtype=np.float64)
        )
        if np.any(s < 1.0):
            raise ValueError("sr_ratio must be >= 1")
        restored = np.minimum(1.0, d * s)
        discount = self.efficiency ** np.log2(np.maximum(s, 1.0))
        return restored * discount


@dataclass
class AbrContext:
    """Client state available to the controller at decision time."""

    throughput_bps: float
    buffer_level: float
    prev_quality: float | None
    next_chunks: Sequence[ChunkSpec]

    def __post_init__(self) -> None:
        # Stated as ``not (x > 0)`` so NaN fails every comparison it meets;
        # an infinite throughput is legal (it plans a zero-time download).
        if not self.throughput_bps > 0:
            raise ValueError(
                "AbrContext.throughput_bps must be positive, got "
                f"{self.throughput_bps!r}"
            )
        if not self.buffer_level >= 0:
            raise ValueError(
                "AbrContext.buffer_level must be non-negative, got "
                f"{self.buffer_level!r}"
            )
        if self.prev_quality is not None and math.isnan(self.prev_quality):
            raise ValueError(
                "AbrContext.prev_quality must be a number or None (no "
                f"previous chunk), got {self.prev_quality!r}"
            )
        if not self.next_chunks:
            raise ValueError(
                "AbrContext.next_chunks must contain at least the next chunk, "
                f"got {self.next_chunks!r}"
            )


@dataclass(frozen=True)
class Decision:
    """{to-be-fetched point density, SR ratio} (paper §5.1)."""

    density: float
    sr_ratio: float

    def __post_init__(self) -> None:
        if not 0.0 < self.density <= 1.0:
            raise ValueError(
                f"Decision.density must be in (0, 1], got {self.density!r}"
            )
        if self.sr_ratio < 1.0:
            raise ValueError(
                f"Decision.sr_ratio must be >= 1, got {self.sr_ratio!r}"
            )


class AbrController:
    """Interface: pick a decision for the next chunk.

    The contract every registered policy
    (:mod:`repro.streaming.policies`) meets: each decision is a function
    of its own context only, so batch composition, order and call history
    are invisible to it.
    """

    def decide(self, ctx: AbrContext) -> Decision:
        raise NotImplementedError

    def decide_batch(self, ctxs: list[AbrContext]) -> list[Decision]:
        """Decide for many independent contexts at once.

        The default loops over :meth:`decide`; MPC controllers override it
        with a single array pass so a fleet driver can resolve every
        session waiting on a decision in one call.  Must be equivalent to
        ``[self.decide(c) for c in ctxs]`` — the fleet parity tests rely
        on it.
        """
        return [self.decide(ctx) for ctx in ctxs]


class _MPCBase(AbrController):
    """Shared horizon-planning logic (Eq. 10 maximization).

    Robust-MPC simplification: one constant density over the next
    ``horizon`` chunks, priced at a safety-discounted throughput estimate.
    Every row is evaluated, so a decision depends on its context alone —
    never on what the object was asked before.
    """

    def __init__(
        self,
        candidates: np.ndarray,
        quality_model: SRQualityModel,
        qoe_model: QoEModel,
        sr_latency: SRLatency,
        horizon: int = 5,
        safety: float = 0.9,
        fetch_fraction: float = 1.0,
    ):
        cand = np.asarray(candidates, dtype=np.float64)
        if cand.ndim != 1 or len(cand) == 0:
            raise ValueError("need a non-empty 1-D candidate density array")
        if np.any((cand <= 0) | (cand > 1)):
            raise ValueError("candidate densities must be in (0, 1]")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0 < safety <= 1:
            raise ValueError("safety must be in (0, 1]")
        if not 0.0 < fetch_fraction <= 1.0:
            raise ValueError("fetch_fraction must be in (0, 1]")
        self.candidates = np.sort(cand)
        self.quality_model = quality_model
        self.qoe_model = qoe_model
        self.sr_latency = sr_latency
        self.horizon = int(horizon)
        self.safety = float(safety)
        # Fraction of each chunk's bytes actually fetched (ViVo's
        # visibility culling); must match the session's fetch_fraction so
        # the plan prices downloads correctly.
        self.fetch_fraction = float(fetch_fraction)
        #: the candidate grid is fixed, so its SR ratios and qualities are too
        self._sr_ratios = quality_model.sr_ratios_for(self.candidates)
        self._qualities = quality_model.qualities(self.candidates, self._sr_ratios)
        #: one Decision per candidate, handed out by :meth:`decide_batch`
        self._decisions = [
            Decision(d, s)
            for d, s in zip(self.candidates.tolist(), self._sr_ratios.tolist())
        ]
        #: chunk window -> its tensors (see :meth:`_horizon_tensors`)
        self._horizon_cache: dict[tuple, tuple] = {}
        #: lifetime count of rows :meth:`decide_batch` has evaluated
        self.decide_rows = 0

    # ------------------------------------------------------------------
    def _horizon_tensors(
        self, chunks: tuple
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Throughput-independent tensors of one horizon window.

        ``(fetched bits, SR seconds, chunk durations)`` depend only on the
        chunk specs, the fixed candidate densities and the (fixed) SR
        latency model — so they are computed once per distinct window,
        checked once, and replayed already in the planner's layout:
        ``(H, 1, C)``, ``(H, 1, C)`` and ``(H, 1, 1)``.  A hostile latency
        model (NaN, negative, infinite seconds) is refused here, naming
        the chunk and density, instead of planning ``argmax`` of an
        all-NaN row for ever; a refused window is not cached, so every
        call that needs it raises.
        """
        cached = self._horizon_cache.get(chunks)
        if cached is None:
            ppf = np.array([c.points_per_frame for c in chunks])
            nf = np.array([c.n_frames for c in chunks], dtype=np.int64)
            bpp = np.array([c.bytes_per_point for c in chunks])
            dur = np.array([c.duration for c in chunks])
            pts = batched_points_at_density(ppf[:, None], self.candidates)  # (H, C)
            nbytes = batched_chunk_bytes(nf[:, None], pts, bpp[:, None])
            bits = nbytes * self.fetch_fraction * 8.0
            sr = nf[:, None] * latency_batch(self.sr_latency, pts, self._sr_ratios)
            for what, grid in (("fetched bits", bits), ("SR seconds", sr)):
                bad = ~((grid >= 0.0) & (grid < np.inf))  # NaN fails both
                if bad.any():
                    h, c = np.argwhere(bad)[0]
                    raise ValueError(
                        f"{what} of a planned chunk must be finite and "
                        f"non-negative, got {float(grid[h, c])!r} for chunk "
                        f"{chunks[h].index} at density {self.candidates[c]:.6g}"
                    )
            cached = (bits[:, None, :], sr[:, None, :], dur[:, None, None])
            self._horizon_cache[chunks] = cached
        return cached

    def _batch_plan_values(self, ctxs: list[AbrContext]) -> np.ndarray:
        """Plan values for every (context, candidate) pair in one pass.

        All contexts must share the same effective horizon length
        (:meth:`decide_batch` groups by it).  Returns
        ``(n_ctx, n_candidates)``: the QoE of fetching each context's next
        ``horizon`` chunks at each candidate density.
        """
        windows = [
            self._horizon_tensors(tuple(ctx.next_chunks[: self.horizon]))
            for ctx in ctxs
        ]
        if len(ctxs) == 1:
            # The fleet's common call: the cached (H, 1, C) tensors as they
            # are, context scalars as Python floats — same expressions below.
            (bits, sr, dur), ctx = windows[0], ctxs[0]
            tput = ctx.throughput_bps * self.safety
            buffer = ctx.buffer_level
            prev = ctx.prev_quality
        else:
            bits, sr, dur = (np.concatenate(t, axis=1) for t in zip(*windows))
            tput = (np.array([c.throughput_bps for c in ctxs]) * self.safety)[:, None]
            buffer = np.array([c.buffer_level for c in ctxs])[:, None]
            # NaN is plan_values' "no previous chunk" mark; AbrContext admits no other.
            prev = np.array(
                [np.nan if c.prev_quality is None else c.prev_quality for c in ctxs]
            )[:, None]

        ready = bits / tput                                    # (H, N, C)
        # Download and SR overlap across chunks (pipelined client), so the
        # steady-state readiness interval is the slower stage.
        np.maximum(ready, sr, out=ready)
        stalls = np.empty_like(ready)
        last = len(ready) - 1
        for h, (r, stall, d) in enumerate(zip(ready, stalls, dur)):
            # stall = max(0, r - b), then b' = max(b - r, 0) + d written as
            # d - min(r - b, 0): the same float for every input (b - r is
            # exactly -(r - b)), infinities included, in four array calls.
            x = r - buffer
            np.maximum(0.0, x, out=stall)
            if h < last:
                buffer = d - np.minimum(x, 0.0, out=x)
        return self.qoe_model.plan_values(self._qualities, stalls, prev)

    def plan_values(self, ctx: AbrContext) -> np.ndarray:
        """Plan values over all candidate densities, ``(C,)``."""
        return self._batch_plan_values([ctx])[0]

    def decide(self, ctx: AbrContext) -> Decision:
        return self.decide_batch([ctx])[0]

    def decide_batch(self, ctxs: list[AbrContext]) -> list[Decision]:
        """One array pass per effective horizon length, every row evaluated.

        Contexts near the end of their video have fewer chunks left than
        the horizon, so rows are grouped by how many they can plan over.
        """
        self.decide_rows += len(ctxs)
        groups: dict[int, list[int]] = {}
        for i, ctx in enumerate(ctxs):
            groups.setdefault(min(len(ctx.next_chunks), self.horizon), []).append(i)
        decisions: list[Decision | None] = [None] * len(ctxs)
        for idxs in groups.values():
            values = self._batch_plan_values([ctxs[i] for i in idxs])
            for i, c in zip(idxs, values.argmax(axis=1).tolist()):
                decisions[i] = self._decisions[c]
        return decisions  # type: ignore[return-value]


class ContinuousMPC(_MPCBase):
    """VoLUT's continuous ABR: a fine density grid (§5.1).

    A 64-point geometric grid over ``[min_density, 1]`` is dense enough
    that adjacent candidates differ by <5% in byte size — adaptation is
    effectively continuous while the argmax stays a 'simple constrained
    optimization' as in the paper.
    """

    def __init__(
        self,
        quality_model: SRQualityModel,
        qoe_model: QoEModel,
        sr_latency: SRLatency,
        min_density: float = 1.0 / 8.0,
        n_grid: int = 64,
        horizon: int = 5,
        safety: float = 0.9,
        fetch_fraction: float = 1.0,
    ):
        if not 0 < min_density < 1:
            raise ValueError("min_density must be in (0, 1)")
        grid = np.geomspace(min_density, 1.0, n_grid)
        super().__init__(
            grid, quality_model, qoe_model, sr_latency, horizon, safety, fetch_fraction
        )


class DiscreteMPC(_MPCBase):
    """Discrete-level MPC (H2 / YuZu-style): density ∈ 1/ratio levels."""

    def __init__(
        self,
        quality_model: SRQualityModel,
        qoe_model: QoEModel,
        sr_latency: SRLatency,
        levels: tuple[float, ...] = YUZU_DENSITY_LEVELS,
        horizon: int = 5,
        safety: float = 0.9,
    ):
        super().__init__(
            np.asarray(levels), quality_model, qoe_model, sr_latency, horizon, safety
        )


class BufferBased(AbrController):
    """Classic threshold rule: density grows linearly with buffer level."""

    def __init__(
        self,
        quality_model: SRQualityModel,
        min_density: float = 1.0 / 8.0,
        low_buffer: float = 1.0,
        high_buffer: float = 6.0,
    ):
        if not 0 < min_density <= 1:
            raise ValueError("min_density must be in (0, 1]")
        if low_buffer >= high_buffer:
            raise ValueError("low_buffer must be below high_buffer")
        self.quality_model = quality_model
        self.min_density = float(min_density)
        self.low_buffer = float(low_buffer)
        self.high_buffer = float(high_buffer)

    def decide(self, ctx: AbrContext) -> Decision:
        lvl = ctx.buffer_level
        if lvl <= self.low_buffer:
            d = self.min_density
        elif lvl >= self.high_buffer:
            d = 1.0
        else:
            frac = (lvl - self.low_buffer) / (self.high_buffer - self.low_buffer)
            d = self.min_density + frac * (1.0 - self.min_density)
        return Decision(density=d, sr_ratio=self.quality_model.sr_ratio_for(d))
