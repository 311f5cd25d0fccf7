"""ABR policy zoo: a registry of controllers and the non-MPC families.

Every controller is an :class:`~repro.streaming.abr.AbrController` —
``decide`` / ``decide_batch``, the contract the fleet driver programs
against.  This module adds a string-keyed registry (a dict literal) so
experiments and CLIs resolve controllers by name (``get_policy("bola")``), and fills
out the zoo with the classic non-MPC control families:

* :class:`BolaController` — BOLA-style Lyapunov utility over buffer
  occupancy (Spiteri et al.): pick the candidate maximizing
  ``(V·(u_c + γp) − buffer) / size_c``;
* :class:`ThroughputRuleController` — the rate rule: largest candidate
  whose chunk downloads within one chunk duration at the (safety-
  discounted, :data:`~repro.streaming.abr.SAFETY`) harmonic-mean
  throughput estimate.  The estimate arrives
  as ``ctx.throughput_bps``, produced by the session pipeline's
  :class:`~repro.net.estimator.HarmonicMeanEstimator` — the controller
  itself stays stateless so batch order cannot perturb decisions.

Every grid policy is one vectorized ``decide_batch`` — rows grouped by
next chunk, one index rule per policy — and ``decide`` is its one-row
call.  All candidate-grid constants (densities, SR ratios, utilities,
per-chunk bit sizes) are precomputed once, from the scalar calls the
session scores a chunk with, so a row's arithmetic is elementwise and
batch composition cannot change a decision.  Their
oracle is the first-principles re-derivations in
``tests/streaming/test_abr_parity.py`` (the policy zoo's instance of the
oracle-parity convention).
"""

from __future__ import annotations

import inspect
import math
from typing import Callable

import numpy as np

from ..metrics.qoe import QoEModel
from .abr import (
    MIN_DENSITY,
    SAFETY,
    AbrContext,
    AbrController,
    BufferBased,
    ContinuousMPC,
    Decision,
    DiscreteMPC,
    SRQualityModel,
    geometric_grid,
)
from .chunks import ChunkSpec
from .latency import ZERO_LATENCY

__all__ = [
    "BolaController",
    "ThroughputRuleController",
    "get_policy",
    "available_policies",
]

#: :class:`BolaController`'s buffer level (seconds) at which the argmax
#: reaches the densest candidate, and its utility offset ``γp``
BOLA_BUFFER_TARGET = 6.0
BOLA_GAMMA_P = 5.0


# ----------------------------------------------------------------------
# the rule-based zoo
# ----------------------------------------------------------------------


class _GridPolicy(AbrController):
    """Shared candidate-grid machinery for the rule-based controllers.

    Everything throughput-independent is precomputed here once: the
    density grid (geometric, like :class:`ContinuousMPC`), its SR
    ratios and qualities, and — lazily, per distinct chunk — the fetched
    bit size of every candidate.  Subclasses supply one index rule,
    :meth:`_indices`.
    """

    def __init__(self, quality_model: SRQualityModel, n_grid: int = 16):
        if n_grid < 2:
            raise ValueError("n_grid must be >= 2")
        self.quality_model = quality_model
        self.candidates = np.array(geometric_grid(MIN_DENSITY, 1.0, n_grid))
        densities = self.candidates.tolist()
        ratios = [quality_model.sr_ratio_for(d) for d in densities]
        self._sr_ratios = np.array(ratios)
        self._qualities = np.array(
            [quality_model.quality(d, s) for d, s in zip(densities, ratios)]
        )
        #: chunk -> fetched bits per candidate.  Keyed by the frozen,
        #: value-hashed spec itself: an ``id()`` key outlives its chunk and
        #: is handed to the next object allocated at that address.
        self._bits_cache: dict[ChunkSpec, np.ndarray] = {}

    def _chunk_bits(self, chunk: ChunkSpec) -> np.ndarray:
        bits = self._bits_cache.get(chunk)
        if bits is None:
            sizes = [chunk.bytes_at_density(d) for d in self.candidates.tolist()]
            bits = np.array(sizes) * 8.0
            self._bits_cache[chunk] = bits
        return bits

    def _decision_for(self, i: int) -> Decision:
        return Decision(
            density=float(self.candidates[i]),
            sr_ratio=float(self._sr_ratios[i]),
        )

    def _indices(
        self, tput: np.ndarray, buf: np.ndarray, chunk: ChunkSpec
    ) -> np.ndarray:
        """The policy's rule: candidate index per row, over same-chunk rows."""
        raise NotImplementedError

    # -- the two protocol entry points ---------------------------------
    def decide(self, ctx: AbrContext) -> Decision:
        return self.decide_batch([ctx])[0]

    def decide_batch(self, ctxs: list[AbrContext]) -> list[Decision]:
        """Group rows by next chunk, one vectorized pass per group.

        Grouping only batches the arithmetic — every row's score math is
        elementwise, so group membership cannot change any decision.
        """
        groups: dict[ChunkSpec, list[int]] = {}
        for i, ctx in enumerate(ctxs):
            groups.setdefault(ctx.next_chunks[0], []).append(i)
        decisions: list[Decision | None] = [None] * len(ctxs)
        for chunk, idxs in groups.items():
            t = np.array(
                [ctxs[i].throughput_bps for i in idxs], dtype=np.float64
            )
            b = np.array(
                [ctxs[i].buffer_level for i in idxs], dtype=np.float64
            )
            best = self._indices(t, b, chunk)
            for j, i in enumerate(idxs):
                decisions[i] = self._decision_for(int(best[j]))
        return decisions  # type: ignore[return-value]


def _bola_indices(vu: np.ndarray, buf: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Argmax of the BOLA objective ``(V·(u_c + γp) − buffer) / size_c``."""
    return np.argmax((vu[None, :] - buf[:, None]) / bits[None, :], axis=1)


def _rate_indices(bits: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Largest candidate that downloads within ``limit`` bits, else 0.

    ``bits`` is non-decreasing (byte size is monotone in density), so
    the feasible set is a prefix and its length minus one is the answer.
    """
    count = (bits[None, :] <= limit[:, None]).sum(axis=1)
    return np.where(count > 0, count - 1, 0)


class BolaController(_GridPolicy):
    """BOLA-style buffer controller: Lyapunov utility over occupancy.

    Candidate ``c`` scores ``(V·(u_c + γp) − buffer) / size_c`` with
    utilities ``u_c = ln(q_c / q_min)`` from the SR-quality model and
    ``V`` derived so the scores cross zero — and the argmax reaches the
    densest candidate — as the buffer approaches ``BOLA_BUFFER_TARGET``
    (``V = BOLA_BUFFER_TARGET / (u_max + γp)``, ``γp = BOLA_GAMMA_P``).  Below target the rule
    favors small chunks (build buffer); at/above target the least
    negative score divided by the largest size wins (spend buffer on
    quality).  Purely buffer-driven: the throughput estimate is ignored.
    """

    def __init__(self, quality_model: SRQualityModel, n_grid: int = 16):
        super().__init__(quality_model, n_grid)
        # math.log per candidate: NumPy's SIMD log may round differently
        # on another CPU, and these utilities rank every decision
        u = np.array([math.log(q) for q in self._qualities.tolist()])
        u -= u[0]
        self.lyapunov_v = BOLA_BUFFER_TARGET / (float(u[-1]) + BOLA_GAMMA_P)
        #: ``V·(u_c + γp)`` — the only per-candidate constant the score needs
        self._vu = self.lyapunov_v * (u + BOLA_GAMMA_P)

    def _indices(self, tput, buf, chunk) -> np.ndarray:
        return _bola_indices(self._vu, buf, self._chunk_bits(chunk))


class ThroughputRuleController(_GridPolicy):
    """Rate rule: densest candidate sustainable at the estimated rate.

    Feasibility is ``size_bits ≤ throughput · SAFETY · chunk_duration``
    — the chunk must download within its own playback duration at the
    safety-discounted estimate.  The estimate is the harmonic mean the
    session pipeline maintains (:class:`~repro.net.estimator.
    HarmonicMeanEstimator`), delivered as ``ctx.throughput_bps`` —
    keeping the controller stateless, so decisions are independent of
    batch composition and order.  When nothing is
    feasible the sparsest candidate is fetched (the session must make
    progress to re-estimate).
    """

    def _indices(self, tput, buf, chunk) -> np.ndarray:
        return _rate_indices(
            self._chunk_bits(chunk), tput * SAFETY * chunk.duration
        )


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

#: policy name -> factory; :func:`get_policy` calls it with whichever of
#: the base models (``quality_model`` / ``qoe_model`` / ``sr_latency``)
#: and extra keywords its signature accepts
_REGISTRY: dict[str, Callable] = {
    "continuous-mpc": ContinuousMPC,
    "discrete-mpc": DiscreteMPC,
    "bola": BolaController,
    "throughput": ThroughputRuleController,
    "buffer-linear": BufferBased,
}


def available_policies() -> list[str]:
    """Registered policy names, sorted."""
    return sorted(_REGISTRY)


def _keyword_test(factory: Callable) -> Callable[[str], bool]:
    """Predicate: does ``factory``'s signature take this keyword?"""
    params = inspect.signature(factory).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return lambda key: True
    return params.__contains__


def get_policy(
    name: str,
    *,
    quality_model: SRQualityModel | None = None,
    qoe_model: QoEModel | None = None,
    sr_latency=None,
    **kwargs,
):
    """Build the policy registered as ``name``.

    The base models default to ``SRQualityModel()`` / ``QoEModel()`` /
    ``ZERO_LATENCY`` and — like the extra ``kwargs`` — are forwarded
    only when the factory's signature accepts them (the experiments-CLI
    flag-forwarding convention: ``n_grid`` reaches grid-based policies
    and is dropped for :class:`DiscreteMPC`).  A keyword that *no*
    registered policy accepts is a misspelling, not a forwarded flag, and
    raises a ``ValueError`` naming it; unknown names raise one listing
    the registry.
    """
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown policy {name!r}; available: "
            f"{', '.join(available_policies())}"
        )
    accepts = _keyword_test(factory)
    for key in kwargs:
        if not accepts(key) and not any(
            _keyword_test(f)(key) for f in _REGISTRY.values()
        ):
            raise ValueError(
                f"get_policy({name!r}) got keyword {key!r}, which no "
                "registered policy accepts"
            )
    offered = {
        "quality_model": quality_model
        if quality_model is not None
        else SRQualityModel(),
        "qoe_model": qoe_model if qoe_model is not None else QoEModel(),
        "sr_latency": sr_latency if sr_latency is not None else ZERO_LATENCY,
        **kwargs,
    }
    return factory(**{k: v for k, v in offered.items() if accepts(k)})
