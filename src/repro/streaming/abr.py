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

The MPC planners plan each distinct decision row of a call once, in
Python floats — one candidate at a time, one planned chunk at a time — and
``decide`` is ``decide_batch``'s one-row call.  A fleet step plans about
one row per call, and such a call run as NumPy on a ``(H, N, C)`` tensor
pays for ~19 array dispatches, not for the 48 cells of the fleet's
16 × 3 grid.
Every per-candidate constant and cache comes from the scalar calls the
session scores a chunk with, so a plan's Q is the session's Q, float for
float.  The tests hold two oracles in ``tests/streaming/reference_planner.py``:
the scalar term-by-term reference (1e-9) and the tensor planner (``==``).

**The loop's contract.**

* *Per controller* (fixed at construction): the candidate grid ``(C,)``,
  its SR ratios and qualities as float lists, one :class:`Decision`
  per candidate, which ``decide_batch`` hands out by index, and the
  later-chunk row ``L = α·q`` with its suffix maxima, as tuples of floats.
* *Per previous quality* (:meth:`_MPCBase._first_row`, keyed on the
  float, bounded by ``FIRST_ROWS_LIMIT``): the stall-free first-chunk row
  ``F = α·q − β·V(q, prev)`` and its suffix maxima, as tuples of floats.
  A session's previous quality is one of a handful of values, so the
  variation term is built once per value, not per call.
* *Per chunk window* (:meth:`_MPCBase._window`, keyed on the tuple of
  chunk specs): per planned chunk, the fetched bits and SR seconds of
  every candidate as two float lists, the chunk's duration as a float —
  checked finite and non-negative once — and the suffix minima of both
  lists.  ``decide_batch`` finds a row's window first by the identity of
  its first chunk (bounded by ``WINDOW_IDS_LIMIT``), so a fleet's
  sessions, which share their video's chunk table, hash no chunk spec
  once the window is known.
* *Per call* (:meth:`_MPCBase.decide_batch`, a dict that dies with the
  call): each distinct row — the chunk window, then ``(throughput,
  buffer, previous quality)`` as the exact floats the plan reads — is
  picked once, and every row with its key gets its :class:`Decision`.
  Keys compare with ``==``, so a zero of either sign is one key; the plan
  never reads a zero's sign.  A flash crowd of co-watching viewers hands
  in many equal rows at once.
* *Per distinct row, per candidate* (:func:`_plan`): ``r = max(bits /
  tput, sr)``, ``x = r − b``, stall ``max(0, x)`` and ``b' = d − min(x,
  0)`` (the same float as ``max(b − r, 0) + d`` for every input,
  infinities included), accumulated as ``first − γ·s_0 + Σ_i (later −
  γ·s_i)``.  The comparisons are written so a NaN propagates as it does
  in NumPy's ``maximum`` / ``minimum``.

**The pick** (:meth:`_MPCBase._pick`).  A row's decision is its first
maximum, or its first NaN, as ``argmax`` picks over every candidate's
value; the pick plans candidates in grid order and stops early when the
rest cannot change it.  A NaN ends the row at once.  Once a planned value
is not above the best so far, the pick plans one *bound* on every
candidate ``c ≥ k`` after it — the same loop on the suffix minima
``min(bits_h[k:])``, ``min(sr_h[k:])`` and the suffix maxima ``F[k]``,
``L[k]`` — and stops if the bound is ``<=`` the best: no later candidate
can be a strictly greater first maximum.  The bound is exact, float for
float:

* every step is a correctly rounded ``+``, ``−``, ``max``, ``÷ tput > 0``
  or ``× γ ≥ 0``, each monotone in its inputs, so a step fed costs no
  larger and values and a buffer no smaller returns a value and a buffer
  no smaller — by induction the bound is ``>=`` every candidate ``c ≥ k``
  while no NaN appears;
* with ``γ > 0`` a plan value is NaN only through ``inf − inf``: a
  partial sum at ``+inf`` (then so is the bound's, which ends ``+inf`` or
  NaN, never ``<=`` a finite best — and the pick does not prune once the
  best is ``+inf``), or a buffer that overflowed to ``+inf`` (then so did
  the bound's, which stays ``+inf`` or NaN, and the pick prunes only on a
  finite final bound buffer);
* with ``γ = 0`` an infinite stall plans ``0 · inf = NaN``, which no
  bound sees, so the pick plans every candidate, as ``argmax`` does.

An overloaded fleet, whose sparsest candidate wins most rows because
stalls dominate, plans two or three of the sixteen; a row whose values
rise along the grid computes no bound.

A plan holds one density over its horizon (the Robust-MPC
simplification), so quality changes only between the previous chunk and
the first planned one: after step 0 the variation term of Eq. 10 is
exactly ``+0.0``, so a plan's value is ``first − γ·s_0 + Σ_i (α·q −
γ·s_i)`` — the same float operations in the same order as the tensor
planner, so values are bit-equal to it and decisions equal.

The non-MPC controllers of the policy zoo (BOLA, throughput rule) live
in :mod:`repro.streaming.policies` along with the
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
from .chunks import ChunkSpec
from .latency import SRLatency

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

#: per-doubling quality of SR'd points relative to native ones
#: (:class:`SRQualityModel`), calibrated from the SR-quality experiments
SR_EFFICIENCY = 0.93

#: throughput-estimate discount every rate-aware controller plans with
SAFETY = 0.9

#: sparsest fetch density the density-grid controllers consider by default
MIN_DENSITY = 1.0 / 8.0

#: :class:`BufferBased` fetches ``MIN_DENSITY`` at or below the low
#: buffer level, full density at or above the high one, linear between
BUFFER_LOW = 1.0
BUFFER_HIGH = 6.0


class SRQualityModel:
    """Maps a {density, SR-ratio} pair to perceived quality Q ∈ [0, 1].

    ``Q = min(1, density · sr_ratio) · SR_EFFICIENCY^log2(sr_ratio)`` —
    the post-SR point density, discounted per upsampling doubling.  The
    efficiency (0.93) reproduces the PSNR gap between SR'd and native
    content measured in §7.2 (×4 SR sits a few dB below ×2).
    """

    def __init__(self, max_ratio: float = 8.0):
        if not 1.0 <= max_ratio < math.inf:  # chained: NaN fails it
            raise ValueError(f"max_ratio must be finite and >= 1, got {max_ratio!r}")
        self.max_ratio = float(max_ratio)

    def sr_ratio_for(self, density: float) -> float:
        """SR ratio the client will apply for a fetch density."""
        if not 0.0 < density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {density}")
        return float(min(self.max_ratio, 1.0 / density))

    def quality(self, density: float, sr_ratio: float | None = None) -> float:
        """Perceived quality of Eq. 10's Q term."""
        if sr_ratio is None:
            s = self.sr_ratio_for(density)  # checks density; min(max_ratio, 1/d) >= 1
        else:
            s = float(sr_ratio)
            if not 0.0 < density <= 1.0:  # chained so NaN fails them
                raise ValueError(f"density must be in (0, 1], got {density!r}")
            if not 1.0 <= s < math.inf:
                raise ValueError(f"sr_ratio must be finite and >= 1, got {s!r}")
        restored = min(1.0, density * s)
        discount = SR_EFFICIENCY ** math.log2(s)
        return float(restored * discount)


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
        if not 0 <= self.buffer_level < math.inf:
            raise ValueError(
                "AbrContext.buffer_level must be finite and non-negative, got "
                f"{self.buffer_level!r}"
            )
        if self.prev_quality is not None and not math.isfinite(self.prev_quality):
            raise ValueError(
                "AbrContext.prev_quality must be a finite number or None (no "
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
        if not 1.0 <= self.sr_ratio < math.inf:  # chained: NaN fails it
            raise ValueError(
                f"Decision.sr_ratio must be finite and >= 1, got {self.sr_ratio!r}"
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

        The default loops over :meth:`decide`; the planners override it
        (the grid policies with one array pass per group, the MPC
        controllers with their float loop) so a fleet driver can resolve
        every session waiting on a decision in one call.  Must be equivalent to
        ``[self.decide(c) for c in ctxs]`` — the fleet parity tests rely
        on it.
        """
        return [self.decide(ctx) for ctx in ctxs]


class _MPCBase(AbrController):
    """Shared horizon-planning logic (Eq. 10 maximization).

    Robust-MPC simplification: one constant density over the next
    ``horizon`` chunks, priced at a safety-discounted throughput estimate.
    A plan is a pure function of its row (chunk window, throughput,
    buffer, previous quality), so each distinct row of a call is picked
    once and its decision shared; no key outlives the call, so a decision
    depends on its context alone — never on the rest of the batch or on
    what the object was asked before.

    The pick is Eq. 10's argmax without planning every candidate: it
    plans the grid in order, keeps the first maximum (or first NaN), and
    stops once an exact upper bound on the remaining candidates — the
    plan loop run on their suffix-minimum costs and suffix-maximum row
    values — is ``<=`` the best so far.  The bound is not used with
    ``γ = 0``, where an infinite stall plans NaN; the module docstring
    gives the exactness argument.  :meth:`plan_values` plans every
    candidate, for the tests' oracles.
    """

    #: most first-chunk rows :meth:`_first_row` keeps before it starts over
    FIRST_ROWS_LIMIT = 1024
    #: most first-chunk identities :meth:`_window` keeps before it starts over
    WINDOW_IDS_LIMIT = 4096

    def __init__(
        self,
        candidates: np.ndarray,
        quality_model: SRQualityModel,
        qoe_model: QoEModel,
        sr_latency: SRLatency,
        horizon: int = 5,
        fetch_fraction: float = 1.0,
    ):
        cand = np.asarray(candidates, dtype=np.float64)
        if cand.ndim != 1 or len(cand) == 0:
            raise ValueError("need a non-empty 1-D candidate density array")
        if np.any((cand <= 0) | (cand > 1)):
            raise ValueError("candidate densities must be in (0, 1]")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0.0 < fetch_fraction <= 1.0:
            raise ValueError("fetch_fraction must be in (0, 1]")
        self.candidates = np.sort(cand)
        self.quality_model = quality_model
        self.qoe_model = qoe_model
        self.sr_latency = sr_latency
        self.horizon = int(horizon)
        # Fraction of each chunk's bytes actually fetched (ViVo's
        # visibility culling); must match the session's fetch_fraction so
        # the plan prices downloads correctly.
        self.fetch_fraction = float(fetch_fraction)
        #: the candidate grid is fixed, so its SR ratios and qualities are
        #: too: the session's own scalar Q, candidate by candidate
        densities = self.candidates.tolist()
        self._sr_ratios = [quality_model.sr_ratio_for(d) for d in densities]
        self._qualities = [
            quality_model.quality(d, s) for d, s in zip(densities, self._sr_ratios)
        ]
        #: one Decision per candidate, handed out by :meth:`decide_batch`
        self._decisions = [Decision(d, s) for d, s in zip(densities, self._sr_ratios)]
        #: chunk window, by value -> its per-chunk floats (see
        #: :meth:`_window`); value-equal windows share one floats object
        self._horizon_cache: dict[tuple, tuple] = {}
        #: ``id`` of a window's first chunk -> ``(window, its floats)``;
        #: the entry holds the chunk, so the id names it while it is kept
        self._window_ids: dict[int, tuple[tuple, tuple]] = {}
        #: every planned chunk after the first adds this value per
        #: candidate before its stall (the first-chunk row of no previous
        #: chunk)
        later = qoe_model.first_chunk_values(self._qualities)
        self._later_row = tuple(later.tolist())
        #: ``max(later_row[k:])``: the later-chunk value :meth:`_pick`'s
        #: bound on candidates ``k, k+1, …`` adds
        self._later_max = tuple(_suffix(np.maximum, later))
        #: previous quality -> its first-chunk row and that row's suffix
        #: maxima (see :meth:`_first_row`)
        self._first_rows: dict[float | None, tuple] = {
            None: (self._later_row, self._later_max)
        }
        #: lifetime count of rows handed to :meth:`decide_batch`
        self.decide_rows = 0
        #: lifetime count of rows it planned: one per distinct row of a call
        self.decide_unique = 0
        #: lifetime count of candidates those rows planned before their
        #: pick was settled (the grid's size when nothing is pruned)
        self.decide_candidates = 0

    # ------------------------------------------------------------------
    def _window(self, chunks: tuple) -> tuple:
        """Throughput-independent floats of one horizon window.

        ``(steps, floors)``: per planned chunk, ``steps`` holds ``(fetched
        bits, SR seconds, duration)`` — two lists over the candidate grid
        and a float — and ``floors`` the same chunk's suffix minima, whose
        ``k``-th entries ``min(bits[k:])`` and ``min(sr[k:])`` are what
        :meth:`_pick`'s bound on candidates ``k, k+1, …`` plans with.
        They depend only on the chunk specs, the fixed candidate densities
        and the (fixed) SR latency model — so they are computed once per
        distinct window, through the scalar leaves the session charges a
        chunk with, checked once, and replayed.  A hostile latency model
        (NaN, negative, infinite seconds) is refused here, naming the
        chunk and density, instead of planning the argmax of an all-NaN
        row for ever; a refused window is not cached, so every call that
        needs it raises.

        A window found or filled here is also filed under the identity of
        its first chunk, where :meth:`decide_batch` looks first; that map
        starts over once it holds :attr:`WINDOW_IDS_LIMIT` entries.
        """
        cached = self._horizon_cache.get(chunks)
        if cached is None:
            densities = self.candidates.tolist()
            steps = tuple(
                (
                    [c.bytes_at_density(d) * self.fetch_fraction * 8.0 for d in densities],
                    [
                        float(c.n_frames * self.sr_latency(c.points_at_density(d), s))
                        for d, s in zip(densities, self._sr_ratios)
                    ],
                    float(c.duration),
                )
                for c in chunks
            )
            for what, k in (("fetched bits", 0), ("SR seconds", 1)):
                for chunk, row in zip(chunks, steps):
                    for d, x in zip(densities, row[k]):
                        if not 0.0 <= x < math.inf:  # chained: NaN fails it
                            raise ValueError(
                                f"{what} of a planned chunk must be finite and "
                                f"non-negative, got {x!r} for chunk "
                                f"{chunk.index} at density {d:.6g}"
                            )
            floors = tuple(
                (_suffix(np.minimum, bits), _suffix(np.minimum, sr), d)
                for bits, sr, d in steps
            )
            cached = self._horizon_cache[chunks] = (steps, floors)
        window_ids = self._window_ids
        if len(window_ids) >= self.WINDOW_IDS_LIMIT:
            window_ids.clear()
        window_ids[id(chunks[0])] = (chunks, cached)
        return cached

    def _first_row(self, prev_quality: float | None) -> tuple:
        """Stall-free first-chunk value per candidate after ``prev_quality``,
        and its suffix maxima.

        ``α·q − β·V(q, prev)`` depends only on the fixed candidate grid
        and the previous chunk's quality — one of a handful of values in a
        real session — so it is built once per distinct value, with
        NumPy, and kept as a tuple of floats beside the tuple of its
        suffix maxima ``max(row[k:])`` (:meth:`_pick`'s bound).  A caller
        feeding arbitrary qualities cannot grow the cache without bound:
        it starts over once it holds :attr:`FIRST_ROWS_LIMIT` rows.
        """
        rows = self._first_rows.get(prev_quality)
        if rows is None:
            if len(self._first_rows) >= self.FIRST_ROWS_LIMIT:
                self._first_rows = {None: (self._later_row, self._later_max)}
            row = self.qoe_model.first_chunk_values(self._qualities, prev_quality)
            rows = self._first_rows[prev_quality] = (
                tuple(row.tolist()), tuple(_suffix(np.maximum, row))
            )
        return rows

    def _pick(
        self,
        window: tuple,
        throughput_bps: float,
        buffer_level: float,
        prev_quality: float | None,
    ) -> tuple[int, int]:
        """One row's decision index, and how many candidates it planned.

        A row is a chunk window's floats (:meth:`_window`) and the three
        scalars of its context; nothing else is read.  Candidates are
        planned in grid order (:func:`_plan`) and the first maximum is
        kept, or the first NaN, which ends the row as ``argmax`` would.
        Once a planned value is not above the best, the loop plans one
        bound on every candidate after it — :func:`_plan` of the suffix
        minima of the costs and the suffix maxima of the row values — and
        stops if that bound is ``<=`` the best: no later candidate can be
        a strictly greater first maximum.  The module docstring states why
        the bound is exact, and when it is not used (``γ = 0``, a best of
        ``+inf``, a bound whose buffer overflowed).
        """
        steps, floors = window
        first_row, first_max = self._first_row(prev_quality)
        later_row, later_max = self._later_row, self._later_max
        tput = throughput_bps * SAFETY
        gamma = self.qoe_model.weights.gamma
        prune = gamma > 0.0
        best = _plan(steps, 0, first_row[0], later_row[0], tput, buffer_level, gamma)[0]
        if best != best:
            return 0, 1
        pick, n = 0, len(later_row)
        for c in range(1, n):
            value = _plan(steps, c, first_row[c], later_row[c], tput, buffer_level, gamma)[0]
            if value > best:
                best, pick = value, c
            elif value != value:
                return c, c + 1
            elif prune and best < math.inf and c + 1 < n:
                k = c + 1
                bound, b = _plan(
                    floors, k, first_max[k], later_max[k], tput, buffer_level, gamma
                )
                if bound <= best and b < math.inf:
                    return pick, k
        return pick, n

    def plan_values(self, ctx: AbrContext) -> np.ndarray:
        """Plan values over all candidate densities, ``(C,)``: every
        candidate planned, none pruned — what :meth:`decide_batch`'s pick
        is the first maximum (or first NaN) of."""
        steps, _ = self._window(tuple(ctx.next_chunks[: self.horizon]))
        first_row, _ = self._first_row(ctx.prev_quality)
        tput = ctx.throughput_bps * SAFETY
        gamma = self.qoe_model.weights.gamma
        return np.array([
            _plan(steps, c, first, later, tput, ctx.buffer_level, gamma)[0]
            for c, (first, later) in enumerate(zip(first_row, self._later_row))
        ])

    def decide(self, ctx: AbrContext) -> Decision:
        return self.decide_batch([ctx])[0]

    def decide_batch(self, ctxs: list[AbrContext]) -> list[Decision]:
        """Each distinct row of the call picked once (:meth:`_pick`): its
        first maximum, or its first NaN if it has one, as ``argmax`` does.

        A row's key is its chunk window, then ``(throughput, buffer,
        previous quality)`` — the exact floats :meth:`_pick` reads — so
        rows with equal keys plan equal values and share one
        :class:`Decision`.  A row finds its window's floats by the identity
        of its first chunk, confirmed with tuple ``==`` (which compares
        identical elements without calling theirs), so a row whose chunk
        table the controller has seen hashes no chunk spec; any other row
        goes through :meth:`_window`'s value-keyed cache.  The window
        enters the key by the identity of its cached floats: that cache
        holds every window for the controller's life, so an identity names
        one window.  The keys live for one call only.
        """
        self.decide_rows += len(ctxs)
        window_of, window_ids, horizon = self._window, self._window_ids, self.horizon
        planned: dict[tuple, Decision] = {}
        decisions = []
        for ctx in ctxs:
            chunks = tuple(ctx.next_chunks[:horizon])
            known = window_ids.get(id(chunks[0]))
            if known is not None and known[0] == chunks:
                window = known[1]
            else:
                window = window_of(chunks)
            tput, buffer, prev = ctx.throughput_bps, ctx.buffer_level, ctx.prev_quality
            key = (id(window), tput, buffer, prev)
            decision = planned.get(key)
            if decision is None:
                pick, n_planned = self._pick(window, tput, buffer, prev)
                self.decide_candidates += n_planned
                decision = planned[key] = self._decisions[pick]
            decisions.append(decision)
        self.decide_unique += len(planned)
        return decisions


def _suffix(op, row) -> list[float]:
    """``out[k] = op.reduce(row[k:])``: a row's suffix minima or maxima."""
    return op.accumulate(np.asarray(row, dtype=np.float64)[::-1])[::-1].tolist()


def _plan(steps, c, first, later, tput, buffer, gamma) -> tuple[float, float]:
    """Eq. 10 value of candidate ``c``'s plan over ``steps``, and the
    buffer it ends with.

    One planned chunk at a time, in Python floats (the module docstring
    states the contract).  ``value`` starts at ``-0.0``, which every
    float ``y`` added to it returns unchanged, so the first step's value
    is ``first − γ·s₀`` exactly.  A step whose readiness fits in the
    buffer (``x <= 0``) stalls ``0.0``, so its stall term ``γ·0.0`` is
    ``+0.0`` (``γ`` is finite and non-negative) and subtracting it
    returns the value unchanged, every float ``-0.0`` included: the step
    adds the candidate's row value as it is, and its buffer is ``d − x``.
    Any other ``x`` (a stall, or a NaN, which both expressions carry on
    as NumPy's ``maximum`` / ``minimum`` do) goes the long way.
    """
    value, gain, b = -0.0, first, buffer
    for bits, sr, d in steps:
        # Download and SR overlap across chunks (pipelined client), so
        # the steady-state readiness interval is the slower stage.
        r, s = bits[c] / tput, sr[c]
        if s > r:
            r = s
        x = r - b
        if x <= 0.0:
            value, b = value + gain, d - x
        else:
            value, b = value + (gain - gamma * x), (d if x > 0.0 else d - x)
        gain = later
    return value, b


def geometric_grid(lo: float, hi: float, n: int) -> list[float]:
    """``n`` densities from ``lo`` to ``hi``, evenly spaced in log10.

    ``np.geomspace``'s arithmetic in stdlib floats (``linspace``'s
    ``i * step + a``, then ``10.0 ** y``, both ends pinned), so the grid
    is the same on every CPU: NumPy dispatches ``log10`` and ``power`` to
    SIMD kernels whose last bits differ between AVX2 and AVX-512.
    """
    if n < 2:
        return [lo][:n]
    a = math.log10(lo)
    step = (math.log10(hi) - a) / (n - 1)
    return [lo, *(10.0 ** (i * step + a) for i in range(1, n - 1)), hi]


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
        min_density: float = MIN_DENSITY,
        n_grid: int = 64,
        horizon: int = 5,
        fetch_fraction: float = 1.0,
    ):
        if not 0 < min_density < 1:
            raise ValueError("min_density must be in (0, 1)")
        super().__init__(
            geometric_grid(min_density, 1.0, n_grid), quality_model,
            qoe_model, sr_latency, horizon, fetch_fraction,
        )


class DiscreteMPC(_MPCBase):
    """Discrete-level MPC (H2 / YuZu-style): density ∈ 1/ratio levels."""

    def __init__(
        self,
        quality_model: SRQualityModel,
        qoe_model: QoEModel,
        sr_latency: SRLatency,
        horizon: int = 5,
    ):
        super().__init__(
            np.asarray(YUZU_DENSITY_LEVELS), quality_model, qoe_model,
            sr_latency, horizon,
        )


class BufferBased(AbrController):
    """Classic threshold rule: density grows linearly with buffer level,
    from ``MIN_DENSITY`` at ``BUFFER_LOW`` to 1.0 at ``BUFFER_HIGH``."""

    def __init__(self, quality_model: SRQualityModel):
        self.quality_model = quality_model

    def decide(self, ctx: AbrContext) -> Decision:
        lvl = ctx.buffer_level
        if lvl <= BUFFER_LOW:
            d = MIN_DENSITY
        elif lvl >= BUFFER_HIGH:
            d = 1.0
        else:
            frac = (lvl - BUFFER_LOW) / (BUFFER_HIGH - BUFFER_LOW)
            d = MIN_DENSITY + frac * (1.0 - MIN_DENSITY)
        return Decision(density=d, sr_ratio=self.quality_model.sr_ratio_for(d))
