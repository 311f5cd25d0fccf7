"""ABR policy zoo: a registry of controllers behind one explicit protocol.

:mod:`repro.streaming.abr` grew the controller *interface* implicitly —
``decide`` / ``decide_batch`` — with only the MPC family vectorizing
the batch entry point.  This module makes the contract explicit
(:class:`AbrPolicy`), adds a string-keyed registry so experiments and
CLIs resolve controllers by name
(``get_policy("bola")``), and fills out the zoo with the classic
non-MPC control families:

* :class:`BolaController` — BOLA-style Lyapunov utility over buffer
  occupancy (Spiteri et al.): pick the candidate maximizing
  ``(V·(u_c + γp) − buffer) / size_c``;
* :class:`ThroughputRuleController` — the rate rule: largest candidate
  whose chunk downloads within one chunk duration at the (safety-
  discounted) harmonic-mean throughput estimate.  The estimate arrives
  as ``ctx.throughput_bps``, produced by the session pipeline's
  :class:`~repro.net.estimator.HarmonicMeanEstimator` — the controller
  itself stays stateless so batch order cannot perturb decisions;
* :class:`HybridController` — throughput-gated BOLA: BOLA steady-state,
  clamped by the throughput rule while the buffer is below a gate.

Every grid policy is one vectorized ``decide_batch`` — rows grouped by
next chunk, one index rule per policy — and ``decide`` is its one-row
call.  All candidate-grid constants (densities, SR ratios, utilities,
per-chunk bit sizes) are precomputed once, so a row's arithmetic is
elementwise and batch composition cannot change a decision.  Their
oracle is the first-principles re-derivations in
``tests/streaming/test_abr_parity.py`` (the policy zoo's instance of the
oracle-parity convention).
"""

from __future__ import annotations

import inspect
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from ..metrics.qoe import QoEModel
from .abr import (
    AbrContext,
    AbrController,
    BufferBased,
    ContinuousMPC,
    Decision,
    DiscreteMPC,
    SRQualityModel,
)
from .chunks import ChunkSpec
from .latency import ZERO_LATENCY

__all__ = [
    "AbrPolicy",
    "BolaController",
    "ThroughputRuleController",
    "HybridController",
    "register_policy",
    "get_policy",
    "available_policies",
]


@runtime_checkable
class AbrPolicy(Protocol):
    """The controller contract the fleet driver programs against.

    * ``decide_batch(ctxs)`` — one call resolving every session parked
      on a decision at an event step; the implementation of every array
      policy.  Each decision is a function of its own context only:
      batch composition, order and call history are invisible.
    * ``decide(ctx)`` — the one-row call; ``decide_batch(ctxs)`` must
      equal ``[decide(c) for c in ctxs]``.  The independent references
      the parity grids compare against live under ``tests/streaming/``.
    * ``quality_model`` — the :class:`~repro.streaming.abr.SRQualityModel`
      the policy prices decisions with (fleet drivers and experiments
      read it to keep session quality accounting consistent).
    """

    quality_model: SRQualityModel

    def decide(self, ctx: AbrContext) -> Decision: ...

    def decide_batch(self, ctxs: list[AbrContext]) -> list[Decision]: ...


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

    def __init__(
        self,
        quality_model: SRQualityModel,
        min_density: float = 1.0 / 8.0,
        n_grid: int = 16,
        fetch_fraction: float = 1.0,
    ):
        if not 0 < min_density < 1:
            raise ValueError("min_density must be in (0, 1)")
        if n_grid < 2:
            raise ValueError("n_grid must be >= 2")
        if not 0.0 < fetch_fraction <= 1.0:
            raise ValueError("fetch_fraction must be in (0, 1]")
        self.quality_model = quality_model
        self.candidates = np.geomspace(min_density, 1.0, n_grid)
        self._sr_ratios = quality_model.sr_ratios_for(self.candidates)
        self._qualities = quality_model.qualities(
            self.candidates, self._sr_ratios
        )
        self.fetch_fraction = float(fetch_fraction)
        #: chunk -> fetched bits per candidate.  Keyed by the frozen,
        #: value-hashed spec itself: an ``id()`` key outlives its chunk and
        #: is handed to the next object allocated at that address.
        self._bits_cache: dict[ChunkSpec, np.ndarray] = {}

    def _chunk_bits(self, chunk: ChunkSpec) -> np.ndarray:
        bits = self._bits_cache.get(chunk)
        if bits is None:
            bits = (
                chunk.bytes_at_densities(self.candidates)
                * self.fetch_fraction
                * 8.0
            )
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
    densest candidate — as the buffer approaches ``buffer_target``
    (``V = buffer_target / (u_max + γp)``).  Below target the rule
    favors small chunks (build buffer); at/above target the least
    negative score divided by the largest size wins (spend buffer on
    quality).  Purely buffer-driven: the throughput estimate is ignored.
    """

    def __init__(
        self,
        quality_model: SRQualityModel,
        min_density: float = 1.0 / 8.0,
        n_grid: int = 16,
        buffer_target: float = 6.0,
        gamma_p: float = 5.0,
        fetch_fraction: float = 1.0,
    ):
        super().__init__(quality_model, min_density, n_grid, fetch_fraction)
        if buffer_target <= 0:
            raise ValueError("buffer_target must be positive")
        if gamma_p <= 0:
            raise ValueError("gamma_p must be positive")
        self.buffer_target = float(buffer_target)
        self.gamma_p = float(gamma_p)
        u = np.log(self._qualities) - np.log(self._qualities[0])
        self.lyapunov_v = self.buffer_target / (float(u[-1]) + self.gamma_p)
        #: ``V·(u_c + γp)`` — the only per-candidate constant the score needs
        self._vu = self.lyapunov_v * (u + self.gamma_p)

    def _indices(self, tput, buf, chunk) -> np.ndarray:
        return _bola_indices(self._vu, buf, self._chunk_bits(chunk))


class ThroughputRuleController(_GridPolicy):
    """Rate rule: densest candidate sustainable at the estimated rate.

    Feasibility is ``size_bits ≤ throughput · safety · chunk_duration``
    — the chunk must download within its own playback duration at the
    safety-discounted estimate.  The estimate is the harmonic mean the
    session pipeline maintains (:class:`~repro.net.estimator.
    HarmonicMeanEstimator`), delivered as ``ctx.throughput_bps`` —
    keeping the controller stateless, so decisions are independent of
    batch composition and order.  When nothing is
    feasible the sparsest candidate is fetched (the session must make
    progress to re-estimate).
    """

    def __init__(
        self,
        quality_model: SRQualityModel,
        min_density: float = 1.0 / 8.0,
        n_grid: int = 16,
        safety: float = 0.9,
        fetch_fraction: float = 1.0,
    ):
        super().__init__(quality_model, min_density, n_grid, fetch_fraction)
        if not 0 < safety <= 1:
            raise ValueError("safety must be in (0, 1]")
        self.safety = float(safety)

    def _indices(self, tput, buf, chunk) -> np.ndarray:
        return _rate_indices(
            self._chunk_bits(chunk), tput * self.safety * chunk.duration
        )


class HybridController(BolaController):
    """Throughput-gated BOLA: rate-capped while the buffer is thin.

    Runs BOLA's score argmax, but while ``buffer < gate_buffer`` clamps
    the pick to the throughput rule's largest-feasible candidate
    (``min`` of the two indices on the shared ascending grid).  Once
    the buffer clears the gate, pure BOLA steady-state takes over —
    the standard cure for BOLA's slow cold-start ramp without giving up
    its buffer-driven stability.
    """

    def __init__(
        self,
        quality_model: SRQualityModel,
        min_density: float = 1.0 / 8.0,
        n_grid: int = 16,
        buffer_target: float = 6.0,
        gamma_p: float = 5.0,
        safety: float = 0.9,
        gate_buffer: float = 2.0,
        fetch_fraction: float = 1.0,
    ):
        super().__init__(
            quality_model, min_density, n_grid, buffer_target, gamma_p,
            fetch_fraction,
        )
        if not 0 < safety <= 1:
            raise ValueError("safety must be in (0, 1]")
        if gate_buffer < 0:
            raise ValueError("gate_buffer must be non-negative")
        self.safety = float(safety)
        self.gate_buffer = float(gate_buffer)

    def _indices(self, tput, buf, chunk) -> np.ndarray:
        bits = self._chunk_bits(chunk)
        bidx = _bola_indices(self._vu, buf, bits)
        tidx = _rate_indices(bits, tput * self.safety * chunk.duration)
        return np.where(buf >= self.gate_buffer, bidx, np.minimum(bidx, tidx))


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, Callable] = {}


def register_policy(name: str, factory: Callable, *, replace: bool = False):
    """Register ``factory`` (usually a controller class) under ``name``.

    ``get_policy(name, ...)`` will call it with whichever of the base
    models (``quality_model`` / ``qoe_model`` / ``sr_latency``) and
    extra kwargs its signature accepts.  Re-registering an existing
    name requires ``replace=True`` — silent shadowing hides typos.
    """
    if not name:
        raise ValueError("policy name must be non-empty")
    if not replace and name in _REGISTRY:
        raise ValueError(
            f"policy {name!r} is already registered (pass replace=True "
            "to override)"
        )
    _REGISTRY[name] = factory


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


register_policy("continuous-mpc", ContinuousMPC)
register_policy("discrete-mpc", DiscreteMPC)
register_policy("bola", BolaController)
register_policy("throughput", ThroughputRuleController)
register_policy("hybrid", HybridController)
register_policy("buffer-linear", BufferBased)
