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

The non-MPC controllers of the policy zoo (BOLA, throughput rule,
hybrid) live in :mod:`repro.streaming.policies` along with the
string-keyed registry — ``get_policy("bola")`` — that the experiment
CLIs resolve ``--abr`` names against; every controller here is
registered there too.
"""

from __future__ import annotations

from collections import OrderedDict
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
    "COARSE_DEDUP_QUANTA",
]

#: Fetch densities reachable with YuZu's discrete SR options.  The paper
#: lists them as factor pairs (1x2, 2x2, 1x3, 1x4, 4x1, 2x1), i.e. end-to-end
#: ratios {2, 3, 4} — so a discrete client can never fetch below 1/4 density.
YUZU_DENSITY_LEVELS = (1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0)

#: Coarse decision-dedup quanta preset for ``dedup_quanta=``: 10 kbps on
#: throughput, 0.1 s on buffer level, 0.01 on prev quality.  Merges many
#: more steady-state rows per tensor pass than the conservative default;
#: the resulting QoE perturbation is bounded (test-pinned at <5% relative
#: mean-QoE drift on a 48-viewer, 2-edge CDN fleet, see
#: ``tests/streaming/test_abr_parity.py::TestDedupQuanta``).  Use when
#: decision-pass wall time matters more than exact-default fidelity.
COARSE_DEDUP_QUANTA = (-4, 1, 2)


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
    next_chunks: list[ChunkSpec]

    def __post_init__(self) -> None:
        if self.throughput_bps <= 0:
            raise ValueError(
                "AbrContext.throughput_bps must be positive, got "
                f"{self.throughput_bps!r}"
            )
        if self.buffer_level < 0:
            raise ValueError(
                "AbrContext.buffer_level must be non-negative, got "
                f"{self.buffer_level!r}"
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
    """Interface: pick a decision for the next chunk."""

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
    """Shared horizon-planning logic (Eq. 10 maximization)."""

    def __init__(
        self,
        candidates: np.ndarray,
        quality_model: SRQualityModel,
        qoe_model: QoEModel,
        sr_latency: SRLatency,
        horizon: int = 5,
        safety: float = 0.9,
        fetch_fraction: float = 1.0,
        dedup_quanta: tuple[int, int, int] | None = None,
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
        self.candidates = np.sort(cand)
        self.quality_model = quality_model
        self.qoe_model = qoe_model
        self.sr_latency = sr_latency
        self.horizon = int(horizon)
        self.safety = float(safety)
        if not 0.0 < fetch_fraction <= 1.0:
            raise ValueError("fetch_fraction must be in (0, 1]")
        #: lazily cached (sr_ratios, qualities) of the candidate grid
        self._candidate_stats: tuple[np.ndarray, np.ndarray] | None = None
        #: horizon-window tensors keyed by the chunk tuple (see
        #: :meth:`_horizon_tensors`)
        self._horizon_cache: dict[tuple, tuple] = {}
        #: dedupe identical decision rows in :meth:`decide_batch` (and
        #: memoize them across calls).  Decisions are pure functions of
        #: their context, so two rows with the same quantized state and
        #: chunk window get the same answer — computed once.  Flip off to
        #: recover the one-tensor-row-per-context reference path (the
        #: dedup parity test pins the two against each other).
        self.dedup = True
        if dedup_quanta is not None:
            if len(dedup_quanta) != 3:
                raise ValueError(
                    "dedup_quanta must be (tput, buffer, prev) decimal "
                    f"counts, got {dedup_quanta!r}"
                )
            # Instance overrides of the conservative class-level quanta
            # (see the block comment above _dedup_key).  Coarser quanta
            # merge more rows per tensor pass at the price of a bounded
            # QoE perturbation — COARSE_DEDUP_QUANTA documents the
            # measured bound.
            self._TPUT_DECIMALS = int(dedup_quanta[0])
            self._BUFFER_DECIMALS = int(dedup_quanta[1])
            self._PREV_DECIMALS = int(dedup_quanta[2])
        #: decision memo: quantized state -> Decision, bounded LRU
        self._decision_memo: OrderedDict[tuple, Decision] = OrderedDict()
        self._memo_capacity = 1 << 16
        #: lifetime counters: rows seen by decide_batch, rows that needed
        #: a fresh tensor evaluation, rows answered from the cross-call memo
        self.decide_rows = 0
        self.decide_unique = 0
        self.decide_memo_hits = 0
        # Fraction of each chunk's bytes actually fetched (ViVo's
        # visibility culling); must match the session's fetch_fraction so
        # the plan prices downloads correctly.
        self.fetch_fraction = float(fetch_fraction)

    # ------------------------------------------------------------------
    def _plan_value(self, density: float, ctx: AbrContext) -> float:
        """QoE of fetching the next ``horizon`` chunks at ``density``.

        Uses the robust-MPC simplification of a constant decision over the
        horizon with a safety-discounted throughput estimate.

        This is the scalar **reference oracle**: ``decide`` runs the
        vectorized :meth:`plan_values` instead, and the parity test grid
        pins the two paths against each other (the analogue of the kNN
        three-backend parity oracle).
        """
        tput = ctx.throughput_bps * self.safety
        s = self.quality_model.sr_ratio_for(density)
        q = self.quality_model.quality(density, s)
        horizon_chunks = ctx.next_chunks[: self.horizon]
        buffer = ctx.buffer_level
        qualities, stalls = [], []
        for chunk in horizon_chunks:
            dl = chunk.bytes_at_density(density) * self.fetch_fraction * 8.0 / tput
            sr = chunk.n_frames * self.sr_latency(
                chunk.points_at_density(density), s
            )
            # Download and SR overlap across chunks (pipelined client), so
            # the steady-state readiness interval is the slower stage.
            ready = max(dl, sr)
            stall = max(0.0, ready - buffer)
            buffer = max(buffer - ready, 0.0) + chunk.duration
            qualities.append(q)
            stalls.append(stall)
        return self.qoe_model.plan_value(qualities, stalls, ctx.prev_quality)

    def _horizon_tensors(
        self, chunks: tuple
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Throughput-independent tensors of one horizon window.

        ``(fetched bits, SR seconds, chunk durations)`` over the
        ``(chunk, candidate)`` grid depend only on the chunk specs, the
        fixed candidate densities, and the (fixed) SR latency model — so
        they are computed once per distinct window and replayed.  Fleet
        drivers call the planner with batches of one per completion
        event, which makes this cache the difference between re-deriving
        the whole tensor per chunk and a dictionary hit.
        """
        cached = self._horizon_cache.get(chunks)
        if cached is None:
            d = self.candidates
            s, _ = self._candidate_stats  # type: ignore[misc]
            ppf = np.array([c.points_per_frame for c in chunks])
            nf = np.array([c.n_frames for c in chunks], dtype=np.int64)
            bpp = np.array([c.bytes_per_point for c in chunks])
            dur = np.array([c.duration for c in chunks])
            pts = batched_points_at_density(ppf[:, None], d)   # (H, C)
            nbytes = batched_chunk_bytes(nf[:, None], pts, bpp[:, None])
            bits = nbytes * self.fetch_fraction * 8.0
            sr = nf[:, None] * latency_batch(self.sr_latency, pts, s)
            cached = (bits, sr, dur)
            self._horizon_cache[chunks] = cached
        return cached

    def _batch_plan_values(self, ctxs: list[AbrContext]) -> np.ndarray:
        """Plan values for every (context, candidate) pair in one pass.

        All contexts must share the same effective horizon length (the
        public entry points group by it).  Returns ``(n_ctx, n_candidates)``.
        The arithmetic replicates :meth:`_plan_value` operation for
        operation with a candidate axis appended — rounding modes included —
        so both paths produce bit-identical values.
        """
        # The candidate grid is fixed at construction, so its SR ratios
        # and qualities are too.
        if self._candidate_stats is None:
            d = self.candidates
            qm = self.quality_model
            srr = qm.sr_ratios_for(d)                          # (C,)
            self._candidate_stats = (srr, qm.qualities(d, srr))
        s, q = self._candidate_stats
        per_ctx = [
            self._horizon_tensors(tuple(ctx.next_chunks[: self.horizon]))
            for ctx in ctxs
        ]
        n_ctx, h_len = len(ctxs), len(per_ctx[0][2])
        if n_ctx == 1:
            bits, sr, dur = (t[None] for t in per_ctx[0])      # (1, H, ...)
        else:
            bits = np.stack([t[0] for t in per_ctx])           # (N, H, C)
            sr = np.stack([t[1] for t in per_ctx])
            dur = np.stack([t[2] for t in per_ctx])            # (N, H)

        tput = (
            np.array([ctx.throughput_bps for ctx in ctxs]) * self.safety
        )                                                      # (N,)
        dl = bits / tput[:, None, None]
        ready = np.maximum(dl, sr)                             # (N, H, C)

        buffer = np.array([ctx.buffer_level for ctx in ctxs])[:, None]
        stalls = np.empty((h_len, n_ctx, len(self.candidates)))
        for h in range(h_len):
            r = ready[:, h, :]
            stalls[h] = np.maximum(0.0, r - buffer)
            buffer = np.maximum(buffer - r, 0.0) + dur[:, h, None]

        prev = np.array(
            [
                np.nan if ctx.prev_quality is None else ctx.prev_quality
                for ctx in ctxs
            ]
        )[:, None]                                             # (N, 1)
        return self.qoe_model.plan_values(q, stalls, prev)

    def plan_values(self, ctx: AbrContext) -> np.ndarray:
        """Vectorized plan values over all candidate densities, ``(C,)``."""
        return self._batch_plan_values([ctx])[0]

    def _decision_for(self, density: float) -> Decision:
        return Decision(
            density=density, sr_ratio=self.quality_model.sr_ratio_for(density)
        )

    def decide(self, ctx: AbrContext) -> Decision:
        best = self.candidates[int(np.argmax(self.plan_values(ctx)))]
        return self._decision_for(float(best))

    #: decision-row quantization: states closer than these quanta are the
    #: same decision problem.  Deliberately conservative — well below any
    #: difference the planner's argmax can see in practice — so dedup
    #: collapses genuinely-identical steady states (co-watching viewers,
    #: every first decision per video) without materially perturbing
    #: near-boundary ones.
    _TPUT_DECIMALS = 3     # 0.001 bps quantum on throughput (bps-valued)
    _BUFFER_DECIMALS = 6   # 1 µs quantum on buffer level (seconds-valued)
    _PREV_DECIMALS = 9     # quality is in [0, 1]

    def _dedup_key(self, ctx: AbrContext) -> tuple:
        """Quantized decision-row identity of one context.

        The chunk window (value-hashed frozen specs) pins the video,
        position, and effective horizon; the quantized scalars pin the
        client state.  Equal keys ⇒ the same decision.
        """
        prev = ctx.prev_quality
        return (
            round(ctx.throughput_bps, self._TPUT_DECIMALS),
            round(ctx.buffer_level, self._BUFFER_DECIMALS),
            None if prev is None else round(prev, self._PREV_DECIMALS),
            tuple(ctx.next_chunks[: self.horizon]),
        )

    def _memo_store(self, key: tuple, decision: Decision) -> None:
        self._decision_memo[key] = decision
        if len(self._decision_memo) > self._memo_capacity:
            self._decision_memo.popitem(last=False)

    def decide_batch(self, ctxs: list[AbrContext]) -> list[Decision]:
        """One array pass per horizon length over the *unique* rows.

        At fleet steady state many sessions face the same decision — same
        chunk window, same quantized buffer/throughput state (the widest
        case is the first decision of every co-watching viewer) — so the
        batch is first deduped by :meth:`_dedup_key` and checked against
        the bounded cross-call memo; only the surviving representative
        rows enter the tensor evaluation, and their decisions are
        scattered back to every duplicate.  The tensor pass therefore
        costs O(unique states), not O(sessions).  Contexts near the end
        of their video have shorter horizons, so unique rows are still
        grouped by effective horizon length.  ``self.dedup = False``
        restores the evaluate-every-row reference path.
        """
        decisions: list[Decision | None] = [None] * len(ctxs)
        if not self.dedup:
            groups: dict[int, list[int]] = {}
            for i, ctx in enumerate(ctxs):
                groups.setdefault(
                    len(ctx.next_chunks[: self.horizon]), []
                ).append(i)
            for idxs in groups.values():
                values = self._batch_plan_values([ctxs[i] for i in idxs])
                best = self.candidates[np.argmax(values, axis=1)]
                for j, i in enumerate(idxs):
                    decisions[i] = self._decision_for(float(best[j]))
            return decisions  # type: ignore[return-value]

        keys = [self._dedup_key(ctx) for ctx in ctxs]
        self.decide_rows += len(keys)
        memo = self._decision_memo
        fresh_order: list[tuple] = []        # unique unseen keys, first-seen order
        fresh_idxs: dict[tuple, list[int]] = {}
        for i, key in enumerate(keys):
            hit = memo.get(key)
            if hit is not None:
                memo.move_to_end(key)
                self.decide_memo_hits += 1
                decisions[i] = hit
                continue
            idxs = fresh_idxs.get(key)
            if idxs is None:
                fresh_order.append(key)
                fresh_idxs[key] = [i]
            else:
                idxs.append(i)
        self.decide_unique += len(fresh_order)
        by_horizon: dict[int, list[tuple]] = {}
        for key in fresh_order:
            by_horizon.setdefault(len(key[3]), []).append(key)
        for group in by_horizon.values():
            # The representative row is the first context that produced
            # the key; duplicates inherit its decision verbatim.
            reps = [ctxs[fresh_idxs[key][0]] for key in group]
            values = self._batch_plan_values(reps)
            best = self.candidates[np.argmax(values, axis=1)]
            for key, b in zip(group, best):
                decision = self._decision_for(float(b))
                self._memo_store(key, decision)
                for i in fresh_idxs[key]:
                    decisions[i] = decision
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
        dedup_quanta: tuple[int, int, int] | None = None,
    ):
        if not 0 < min_density < 1:
            raise ValueError("min_density must be in (0, 1)")
        grid = np.geomspace(min_density, 1.0, n_grid)
        super().__init__(
            grid, quality_model, qoe_model, sr_latency, horizon, safety,
            fetch_fraction, dedup_quanta,
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
        dedup_quanta: tuple[int, int, int] | None = None,
    ):
        super().__init__(
            np.asarray(levels), quality_model, qoe_model, sr_latency,
            horizon, safety, dedup_quanta=dedup_quanta,
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
