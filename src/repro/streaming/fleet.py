"""Multi-session fleet simulator: N clients on a shared serving topology.

The paper's evaluation (§7.4–§7.5) is single-client.  Serving heavy
traffic means many concurrent sessions contending for shared bandwidth, so
this module runs a *fleet* of :class:`~repro.streaming.simulator.SessionMachine`
state machines against a shared network in virtual time:

* each session joins at its own ``join_time`` and runs its own ABR
  controller and SR latency model;
* every transfer is scheduled per hop through a
  :class:`~repro.net.topology.PathScheduler` — the classic single
  bottleneck is the degenerate one-hop path, and a
  :class:`~repro.streaming.cdn.CDNTopology` routes each viewer over its
  edge's access link (cache hit) or the origin → edge → viewer two-hop
  path (miss), gated by the origin's bounded encode queue;
* each link splits capacity among in-flight downloads with a configurable
  policy (``fair`` processor sharing or ``weighted`` by session weight);
* an optional :class:`SRResultCache` shares super-resolution results
  across co-watching sessions of the same video, so the Nth viewer of a
  popular chunk pays nothing for SR — the amortization lever that makes
  client-assist serving scale;
* the result is every per-session :class:`SessionResult` plus a
  :class:`FleetReport` of the aggregates an operator watches (mean/p5/p95
  QoE, stall ratio, cache hit rates, origin egress, encode-queue waits,
  delivered bytes).

Everything is deterministic given (session specs, trace/topology, policy):
the scheduler resolves simultaneous events by session id.  A fleet of one
session reproduces :func:`~repro.streaming.simulator.simulate_session`
bit-exactly, and a degenerate one-edge topology on an unconstrained
backhaul reproduces the bare single-link fleet bit-exactly (both enforced
by parity tests).
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace as dc_replace
from typing import TYPE_CHECKING

from ..metrics.qoe import QoEWeights, aggregate_qoe
from ..obs.events import (
    EV_CHUNK_COMPLETE,
    EV_CHUNK_DECISION,
    EV_CHUNK_FETCH,
    EV_CHUNK_RETRY,
    EV_CHUNK_STALL,
    EV_OUTAGE_EVACUATE,
    EV_RETRY_HEDGE,
    EV_RETRY_TIMEOUT,
    EV_SESSION_ABANDON,
    EV_SESSION_FINISH,
    EV_SESSION_RESTEER,
    EV_SESSION_START,
)
from ..obs.profiler import NULL_PROFILER
from ..net.link import SharedLink
from ..net.topology import NetworkPath, PathScheduler
from ..net.traces import NetworkTrace
from .cdn import CDNTopology, wait_percentile
from .abr import AbrController, SRQualityModel
from .chunks import VideoSpec
from .control import FleetView, RecoveryTracker
from .faults import DegradedTrace
from .latency import SRLatency, ZERO_LATENCY
from .simulator import (
    AbandonPolicy,
    DecisionRequest,
    DownloadRequest,
    SessionConfig,
    SessionMachine,
    SessionResult,
)
from .spec import FleetSpec

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .cost import CostReport

__all__ = [
    "FleetSession",
    "SRResultCache",
    "FleetReport",
    "FleetResult",
    "OpsStats",
    "simulate_fleet",
]

#: Stall weight in the control plane's health signal — matches the default
#: :class:`~repro.metrics.qoe.QoEWeights` gamma, so "health" tracks the
#: same trade-off the QoE report scores.
_HEALTH_STALL_WEIGHT = 2.0

#: Monitor cadence (virtual seconds) when faults are injected without a
#: controller — the recovery tracker still needs samples.
_DEFAULT_SAMPLE_INTERVAL = 1.0

#: How an in-flight download's bytes were charged at dispatch — the class
#: of counter an outage cancellation must credit back (see ``live_req``).
_CHARGE_HIT = 0
_CHARGE_ORIGIN = 1
_CHARGE_COALESCED = 2


@dataclass
class FleetSession:
    """One client in a fleet: content, controller, join time, link weight.

    Controllers may be shared across sessions (the ABR classes are
    stateless between ``decide`` calls) or instantiated per session.
    ``weight`` only matters under the ``weighted`` sharing policy — e.g.
    premium tiers or operator-prioritized flows.
    """

    spec: VideoSpec
    controller: AbrController
    sr_latency: SRLatency = ZERO_LATENCY
    quality_model: SRQualityModel | None = None
    config: SessionConfig | None = None
    qoe_weights: QoEWeights | None = None
    join_time: float = 0.0
    weight: float = 1.0
    #: viewer stall patience; None = never abandons
    churn: AbandonPolicy | None = None

    def __post_init__(self) -> None:
        if self.join_time < 0:
            raise ValueError("join_time must be non-negative")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


class SRResultCache:
    """LRU cache of finished SR computations, shared across sessions.

    Keyed by (video, chunk index, fetch density, SR ratio) — the tuple that
    fully determines an SR output in the simulator.  An entry carries the
    virtual time its computation finished: a session hits only if the
    result already exists *at the moment its SR would start* (a result
    still being computed by another session is not shared — the simpler,
    deterministic model; hits then cost zero SR time).
    """

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._entries: OrderedDict[tuple, float] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def acquire(self, key: tuple, at_time: float, cost: float) -> float:
        """SR cost actually paid by a session needing ``key`` at ``at_time``.

        Returns 0.0 on a hit; on a miss, records the result as ready at
        ``at_time + cost`` and returns ``cost``.
        """
        ready = self._entries.get(key)
        if ready is not None and ready <= at_time:
            self._entries.move_to_end(key)
            self.hits += 1
            return 0.0
        self.misses += 1
        # Keep whichever computation finishes first: a slower recompute must
        # not push back a result another session already has in flight.
        done = at_time + cost
        if ready is None or done < ready:
            self._entries[key] = done
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return cost

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        """Return to the as-constructed state (entries and counters)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class FleetReport:
    """Aggregate service health over one fleet run.

    The CDN fields are populated when the fleet ran over a
    :class:`~repro.streaming.cdn.CDNTopology`; on a bare link every byte
    comes from the origin, so ``origin_egress_bytes == total_bytes`` and
    the edge/encode fields stay at their defaults.
    """

    n_sessions: int
    mean_qoe: float
    p5_qoe: float
    p95_qoe: float
    stall_ratio: float
    total_stall_seconds: float
    total_bytes: int
    mean_quality: float
    cache_hit_rate: float
    makespan: float  # virtual seconds, first join → last download completion
    n_abandoned: int = 0
    abandon_rate: float = 0.0
    #: per-edge SR-result hit rates (``sr_cache="per-edge"`` only),
    #: topology edge order; ``cache_hit_rate`` is then request-weighted
    #: across the edges
    sr_edge_hit_rates: tuple[float, ...] = ()
    #: bytes that crossed an origin → edge backhaul (cold misses + startup)
    origin_egress_bytes: int = 0
    #: chunk misses that attached to an in-flight fill (request coalescing)
    coalesced_fills: int = 0
    #: bytes those coalesced requests delivered without touching the origin
    coalesced_bytes: int = 0
    #: request-weighted hit rate across all edge chunk caches
    edge_hit_rate: float = 0.0
    #: per-edge chunk-cache hit rates, topology edge order
    edge_hit_rates: tuple[float, ...] = ()
    #: encode-queue wait percentiles over cold chunk variants (seconds)
    encode_wait_p50: float = 0.0
    encode_wait_p95: float = 0.0
    # -- control plane / fault injection (defaults = no faults, no controller)
    #: viewers moved to another edge (outage failover + controller re-steers)
    sessions_resteered: int = 0
    #: fault events the run was configured with
    faults_injected: int = 0
    #: control-plane intervals that actually fired
    control_ticks: int = 0
    #: encode-pool resize actions the controller issued
    encode_pool_resizes: int = 0
    #: health drop below the pre-fault baseline (QoE-per-chunk units)
    qoe_dip_depth: float = 0.0
    #: virtual seconds from first fault to health back within tolerance of
    #: baseline; 0.0 = no measurable dip, ``inf`` = never recovered in-run
    time_to_recover_s: float = 0.0
    # -- client resilience (RetryPolicy / gray failures) -------------------
    #: transfer attempts re-issued after an outage evacuation, a retry
    #: timeout, or a gray-failure drop
    chunk_retries: int = 0
    #: attempts a :class:`~repro.streaming.faults.RetryPolicy` virtual-time
    #: timeout cancelled
    requests_timed_out: int = 0
    #: timed-out requests whose retry hedged to a second live edge
    requests_hedged: int = 0
    #: bytes dispatched through a :class:`~repro.streaming.faults.GrayFailure`
    #: capacity window (served degraded, not lost)
    gray_degraded_bytes: int = 0
    #: completions by failed-attempt count: element ``k-1`` = chunks
    #: delivered after exactly ``k`` failed attempts (drops, timeouts,
    #: evacuations); chunks delivered first try are not listed
    retry_attempts: tuple[int, ...] = ()
    #: per fault domain ``(region, qoe_dip_depth, time_to_recover_s)``,
    #: sorted by region name — populated when the topology declares
    #: regions and faults were injected
    region_recovery: tuple[tuple[str, float, float], ...] = ()
    #: origin transcode core-seconds actually occupied (encode-queue busy
    #: time summed over jobs) — what the cost model prices as compute
    encode_core_seconds: float = 0.0
    #: infrastructure bill (attached when the run carried a
    #: :class:`~repro.streaming.cost.CostModel`; None otherwise, so
    #: uncosted runs stay field-for-field comparable)
    cost: "CostReport | None" = None


@dataclass(frozen=True)
class OpsStats:
    """Control-plane and fault-recovery aggregates for one fleet run.

    Carried separately from the plain serving aggregates so the sharded
    executor can merge them explicitly; :func:`build_fleet_report` folds
    them into the :class:`FleetReport` fields of the same names.
    """

    sessions_resteered: int = 0
    faults_injected: int = 0
    control_ticks: int = 0
    encode_pool_resizes: int = 0
    qoe_dip_depth: float = 0.0
    time_to_recover_s: float = 0.0
    chunk_retries: int = 0
    requests_timed_out: int = 0
    requests_hedged: int = 0
    gray_degraded_bytes: int = 0
    retry_attempts: tuple[int, ...] = ()
    region_recovery: tuple[tuple[str, float, float], ...] = ()


@dataclass
class FleetResult:
    """Per-session outcomes plus the fleet-level report."""

    sessions: list[SessionResult]
    report: FleetReport
    sr_cache: SRResultCache | None = None
    session_specs: list[FleetSession] = field(default_factory=list)
    #: the serving topology the fleet ran over (None = bare single link)
    topology: CDNTopology | None = None
    #: viewer → edge index per session (empty without a topology)
    assignment: list[int] = field(default_factory=list)
    #: per-session virtual completion instants (last download finish),
    #: session order — what the sharded executor merges makespans from
    end_times: list[float] = field(default_factory=list)


def _batched_decisions(
    machines: list[SessionMachine], session_ids: list[int], clamp=None
) -> list[tuple[int, DownloadRequest]]:
    """Resolve every machine parked on a :class:`DecisionRequest`.

    Machines sharing a controller object are decided in one vectorized
    ``decide_batch`` array pass (the MPC classes evaluate the whole
    (session, candidate, horizon) tensor at once); per-session controllers
    degrade to batches of one.  Decisions are pure functions of their
    context, so batching cannot change any session's outcome.  Returns the
    download request each decision unblocked.  ``clamp``, when given,
    rewrites each decision before the machine advances on it — the
    control plane's graceful-degradation levers (quality cap, SR off);
    applied before the machine advances on the decision.
    """
    by_controller: dict[int, list[int]] = {}
    for sid in session_ids:
        by_controller.setdefault(id(machines[sid].controller), []).append(sid)
    out: list[tuple[int, DownloadRequest]] = []
    for ids in by_controller.values():
        controller = machines[ids[0]].controller
        ctxs = []
        for sid in ids:
            pending = machines[sid].pending
            assert isinstance(pending, DecisionRequest)
            ctxs.append(pending.ctx)
        for sid, decision in zip(ids, controller.decide_batch(ctxs)):
            if clamp is not None:
                decision = clamp(decision)
            req = machines[sid].advance(decision)
            # A decision is always followed by the chunk's transfer.
            assert isinstance(req, DownloadRequest)
            out.append((sid, req))
    return out


def build_fleet_report(
    results: list[SessionResult],
    sessions: list[FleetSession],
    end_times: list[float],
    *,
    origin_egress: int | None,
    edge_stats: list[tuple[int, int, int, int]],
    edge_hit_rates: tuple[float, ...],
    encode_waits: list[float],
    sr_hits: int,
    sr_misses: int,
    sr_edge_hit_rates: tuple[float, ...],
    ops: OpsStats | None = None,
    encode_core_seconds: float = 0.0,
) -> FleetReport:
    """One :class:`FleetReport` from plain per-run aggregates.

    The single aggregation rulebook: :func:`simulate_fleet` feeds it the
    statistics read off its live topology objects, the sharded executor
    (:mod:`repro.streaming.shard`) feeds it the merged per-shard sums —
    both paths share every formula, which is what the ``workers=1``
    bit-exact parity rests on.  ``edge_stats`` rows are ``(hits, misses,
    coalesced, coalesced_bytes)`` in topology edge order;
    ``origin_egress=None`` means "no edges — every byte left the origin"
    (the single-link mode).  ``ops`` carries the control-plane / fault
    aggregates when the run injected faults or ran a controller.
    """
    if ops is None:
        ops = OpsStats()
    agg = aggregate_qoe(
        [r.qoe for r in results],
        [r.stall_seconds for r in results],
        [r.watched_seconds for r in results],
    )
    first_join = min(s.join_time for s in sessions)
    n_abandoned = sum(1 for r in results if r.abandoned)
    total_bytes = sum(r.total_bytes for r in results)
    lookups = sum(h + m for h, m, _, _ in edge_stats)
    edge_hits = sum(h for h, _, _, _ in edge_stats)
    sr_total = sr_hits + sr_misses
    return FleetReport(
        n_sessions=len(results),
        mean_qoe=agg["mean_qoe"],
        p5_qoe=agg["p5_qoe"],
        p95_qoe=agg["p95_qoe"],
        stall_ratio=agg["stall_ratio"],
        total_stall_seconds=agg["total_stall_seconds"],
        total_bytes=total_bytes,
        mean_quality=sum(r.mean_quality for r in results) / len(results),
        cache_hit_rate=sr_hits / sr_total if sr_total else 0.0,
        makespan=max(end_times) - first_join,
        n_abandoned=n_abandoned,
        abandon_rate=n_abandoned / len(results),
        sr_edge_hit_rates=sr_edge_hit_rates,
        origin_egress_bytes=(
            total_bytes if origin_egress is None else origin_egress
        ),
        coalesced_fills=sum(c for _, _, c, _ in edge_stats),
        coalesced_bytes=sum(b for _, _, _, b in edge_stats),
        edge_hit_rate=edge_hits / lookups if lookups else 0.0,
        edge_hit_rates=edge_hit_rates,
        encode_wait_p50=wait_percentile(encode_waits, 50.0),
        encode_wait_p95=wait_percentile(encode_waits, 95.0),
        sessions_resteered=ops.sessions_resteered,
        faults_injected=ops.faults_injected,
        control_ticks=ops.control_ticks,
        encode_pool_resizes=ops.encode_pool_resizes,
        qoe_dip_depth=ops.qoe_dip_depth,
        time_to_recover_s=ops.time_to_recover_s,
        chunk_retries=ops.chunk_retries,
        requests_timed_out=ops.requests_timed_out,
        requests_hedged=ops.requests_hedged,
        gray_degraded_bytes=ops.gray_degraded_bytes,
        retry_attempts=ops.retry_attempts,
        region_recovery=ops.region_recovery,
        encode_core_seconds=encode_core_seconds,
    )


def _chunk_key(req: DownloadRequest) -> tuple | None:
    """Edge-cache / encode-queue key of a cacheable chunk request.

    Density is rounded like the SR-result cache key so float planner
    jitter cannot split one encoded variant into many.
    """
    if req.chunk_index is None:
        return None
    assert req.density is not None
    return (req.video, req.chunk_index, round(req.density, 3))


class _FleetSampler:
    """Interval health sampler, optionally recording into a registry.

    Health is QoE-per-chunk over the chunks completed since the previous
    sample, with the default stall weight — sequential float arithmetic
    identical to the pre-telemetry ``_health_sample`` closure, so running
    with a metrics registry attached (or none) cannot perturb the value
    the control plane's :class:`~repro.streaming.control.FleetView` and
    the :class:`~repro.streaming.control.RecoveryTracker` read.  When a
    registry is present every sample also lands in its ``fleet.health``
    time series — the single source downstream consumers read.
    """

    __slots__ = ("_prev", "_series")

    def __init__(self, registry) -> None:
        self._prev = (0, 0.0, 0.0)
        self._series = (
            registry.timeseries("fleet.health")
            if registry is not None
            else None
        )

    def health_sample(
        self, t: float, chunks: int, qsum: float, stall: float
    ) -> float | None:
        """Health over the interval ending at ``t``; None when no chunk
        landed in it (nothing to score)."""
        d_chunks = chunks - self._prev[0]
        d_qsum = qsum - self._prev[1]
        d_stall = stall - self._prev[2]
        self._prev = (chunks, qsum, stall)
        if d_chunks == 0:
            return None
        health = (d_qsum - _HEALTH_STALL_WEIGHT * d_stall) / d_chunks
        if self._series is not None:
            self._series.record(t, health)
        return health


class _RetryState:
    """Client-resilience bookkeeping for one fleet run.

    Folds the old standalone ``retry_offset`` dict (sunk virtual seconds
    on attempts an outage killed) together with the attempt counters the
    :class:`~repro.streaming.faults.RetryPolicy` machinery needs, so
    every failure path — evacuation, timeout, gray drop — shares one
    accounting contract:

    * ``offset[sid]`` — virtual seconds session ``sid`` already spent on
      failed attempts of its *current* request (including backoff
      waits); added to the elapsed time of the attempt that finally
      completes, so the session's buffer math sees the true wall span.
      **Audit note (chained outages / abandonment):** an entry is
      created only when a live attempt is killed and consumed exactly
      once, at the next completion of that session — chained outages
      accumulate into one entry whose sum telescopes to
      ``final_finish - first_issue``; a session that abandons *at* the
      completing attempt has already consumed its entry (abandonment is
      decided inside ``advance`` after elapsed is applied); and since
      every re-issued request either completes or is re-killed into the
      same entry, no entry can outlive the run
      (``test_faults.py::TestRetryOffsetAccounting`` pins all three).
    * ``attempts[sid]`` — failed attempts on the current request; popped
      into ``histogram`` (attempt count → completions) when the request
      finally lands.  Feeds the ``max_attempts`` budget and the
      report's ``retry_attempts`` tuple.
    * counters — ``retries`` (every re-issued attempt), ``timed_out``,
      ``hedged``, and ``gray_bytes`` (bytes dispatched through a gray
      capacity window; cancelled attempts credit theirs back).
    """

    __slots__ = (
        "offset", "attempts", "histogram", "retries", "timed_out",
        "hedged", "gray_bytes",
    )

    def __init__(self) -> None:
        self.offset: dict[int, float] = {}
        self.attempts: dict[int, int] = {}
        self.histogram: dict[int, int] = {}
        self.retries = 0
        self.timed_out = 0
        self.hedged = 0
        self.gray_bytes = 0

    def add_attempt(self, sid: int) -> int:
        """Count one failed attempt for ``sid``; returns the new count."""
        n = self.attempts.get(sid, 0) + 1
        self.attempts[sid] = n
        self.retries += 1
        return n

    def complete(self, sid: int) -> float:
        """Close ``sid``'s current request: fold its failed-attempt count
        into the histogram and return (consuming) its sunk time."""
        n = self.attempts.pop(sid, 0)
        if n:
            self.histogram[n] = self.histogram.get(n, 0) + 1
        return self.offset.pop(sid, 0.0)

    def attempt_counts(self) -> tuple[int, ...]:
        """Dense histogram tuple: element ``k-1`` = completions that took
        exactly ``k`` failed attempts."""
        if not self.histogram:
            return ()
        top = max(self.histogram)
        return tuple(self.histogram.get(k, 0) for k in range(1, top + 1))


def simulate_fleet(
    sessions: list[FleetSession],
    spec: FleetSpec | None = None,
    **fields,
) -> FleetResult:
    """Run a fleet of sessions over a shared serving topology.

    Configuration lives in a :class:`~repro.streaming.spec.FleetSpec`:
    pass one as ``spec=``, or pass its fields as keywords, which are
    forwarded verbatim to ``FleetSpec(**fields)`` (so the field list,
    defaults, and unknown-name errors live once, in ``spec.py``; mixing
    the two forms is rejected).  All cross-field validation happens
    once, in :meth:`~repro.streaming.spec.FleetSpec.validate`.

    Exactly one of ``trace`` (the classic single bottleneck link, run as
    a one-hop path) and ``topology`` (a CDN: per-edge caches, backhaul +
    access hops, origin encode contention) must be given.  ``policy``
    configures the single link; a topology's links carry their own
    sharing policies, so combining it with a non-default ``policy`` is
    rejected rather than silently ignored.  ``scheduler_engine`` selects
    the :class:`~repro.net.topology.PathScheduler` implementation
    (``"vector"`` array math by default, ``"scalar"`` the bit-exact
    reference oracle).  The session layer is one
    :class:`~repro.streaming.simulator.SessionMachine` per viewer.

    ``cost_model`` attaches a :class:`~repro.streaming.cost.CostModel`'s
    dollarization of the run to ``report.cost`` (see
    :func:`~repro.streaming.cost.attach_cost`); pricing happens after
    the run from the report's own counters, so it cannot perturb the
    simulation.

    ``sr_cache`` may be a shared :class:`SRResultCache`, ``None`` (no SR
    sharing), or the string ``"per-edge"`` (topology mode only): each
    :class:`~repro.streaming.cdn.EdgeNode` then carries its own SR-result
    cache, sessions share SR work only with co-watchers on their edge,
    and the report gains per-edge SR hit rates — the configuration the
    process-parallel shard executor runs, since it needs no cross-shard
    cache traffic.

    ``assignment`` overrides the topology's viewer → edge policy with a
    precomputed per-session edge index.  The shard executor uses this to
    pin a sub-fleet to the assignment computed over the *full* session
    list (the ``static`` policy hashes the session's position, so
    re-deriving it on a re-indexed subset would disagree).

    The scheduler advances virtual time event to event: it asks the path
    scheduler for the next instant any link's fluid allocation can
    change, advances every in-flight download to that instant, and
    resumes each session whose transfer finished — which runs that
    session's ABR/buffer logic forward until it suspends on its next
    request.  Sessions that suspend on an ABR decision are parked for the
    rest of the event step and resolved together in one vectorized
    ``decide_batch`` call per shared controller.

    Under a topology, each chunk request consults its edge's cache at
    request time: a hit travels the one-hop access path; a miss waits for
    the origin to have the encoded variant (bounded encode workers),
    travels backhaul + access, and fills the edge cache when the transfer
    completes.

    ``faults`` injects chaos events (topology mode only): edge outages
    cancel the dead edge's in-flight transfers, fail its viewers over to
    the least-loaded live edge and restart the edge cold; region outages
    resolve through the topology's fault domains and take every member
    edge down together (and the report gains per-region recovery
    metrics, attributed by each session's home edge); gray failures
    brown out an edge's access capacity through the same
    :class:`~repro.streaming.faults.DegradedTrace` window machinery and
    deterministically drop a fraction of its dispatches, each drop
    retrying after ``drop_delay_s``; backhaul degradations scale an
    edge's backhaul trace; flash-crowd entries only inform the recovery
    metrics (materialize their sessions first via
    :meth:`~repro.streaming.faults.FaultSchedule.expand_population`).

    ``retry_policy`` attaches the client resilience layer
    (:class:`~repro.streaming.faults.RetryPolicy`, topology mode only).
    A finite ``timeout_s`` arms a virtual-time timer per transfer
    attempt: at the deadline the attempt is cancelled (its charged bytes
    credited back), counted in ``requests_timed_out``, and re-issued
    after capped exponential backoff — or immediately against the
    least-loaded other live edge when ``hedge`` is set.  The last
    attempt of the ``max_attempts`` budget runs untimed, so every chunk
    eventually delivers and the report records how hard the client
    fought (``retry_attempts``).  Evacuation retries pay the same
    backoff when a policy is attached.  The default
    ``RetryPolicy()`` (infinite timeout) arms nothing, and a policy on a
    fault-free run is bit-exact with no policy at all (the disabled-mode
    parity suite pins both).
    ``controller`` runs a :class:`~repro.streaming.control.ControlPlane`
    every control interval on a sampled :class:`FleetView` — encode-pool
    resizing, saturation re-steering, QoE-driven arrival autoscale
    feedback.  Both default to off, and the disabled configuration is
    bit-exact with the plain simulator: control ticks piggyback on
    instants the event loop already wakes at, so monitoring alone never
    perturbs the fluid-flow arithmetic (a parity test enforces this).

    ``telemetry`` attaches a :class:`~repro.obs.Telemetry` bundle: its
    tracer collects typed virtual-time events from every subsystem (the
    driver wires it into the edge caches, the origin encode queue, and
    the controller for the duration of the run, and unwires it on
    exit), its metrics registry receives the interval
    samples (health proxy, buffer occupancy, per-edge load, encode
    busy/workers), and its profiler wraps the hot loop's four stages
    (``scheduler`` / ``advance`` / ``planner`` / ``control``) in
    wall-clock spans.  Each layer toggles independently; ``None`` (the
    default) executes the exact pre-telemetry instruction stream, and
    the enabled tracer is bit-exact with the disabled one (an
    oracle-parity instance).

    A topology handed to ``simulate_fleet`` is reset to its
    as-constructed state first (caches cold, counters zeroed, encode pool
    at its configured size), so reusing one topology object across runs
    measures each run from cold rather than silently warm-starting.
    """
    if not sessions:
        raise ValueError("fleet needs at least one session")
    spec = FleetSpec.resolve(spec, fields)
    spec.validate()
    trace = spec.trace
    topology = spec.topology
    policy = spec.policy
    sr_cache = spec.sr_cache
    assignment = spec.assignment
    faults = spec.faults
    retry_policy = spec.retry_policy
    controller = spec.controller
    telemetry = spec.telemetry
    tracer = telemetry.tracer if telemetry is not None else None
    metrics = telemetry.metrics if telemetry is not None else None
    prof = (
        telemetry.profiler
        if telemetry is not None and telemetry.profiler is not None
        else NULL_PROFILER
    )
    if topology is None:
        assert trace is not None
        base_path: NetworkPath | None = NetworkPath(
            (SharedLink(trace, policy=policy),), name="bottleneck"
        )
        assignment = []
    else:
        base_path = None
        topology.reset()
        if faults is not None:
            faults.validate_topology(len(topology.edges), topology.regions)
        if assignment is None:
            assignment = topology.assign(sessions)
        else:
            assignment = list(assignment)
            if len(assignment) != len(sessions):
                raise ValueError(
                    f"assignment names {len(assignment)} sessions, "
                    f"fleet has {len(sessions)}"
                )
            if any(not 0 <= e < len(topology.edges) for e in assignment):
                raise ValueError(
                    f"assignment edge indices must be in [0, "
                    f"{len(topology.edges)})"
                )
    per_edge_sr = isinstance(sr_cache, str)
    if per_edge_sr:
        # Mode string already validated by spec.validate().
        for edge in topology.edges:
            if edge.sr_cache is None:
                edge.sr_cache = SRResultCache()
        session_sr_caches = [topology.edges[e].sr_cache for e in assignment]
    else:
        session_sr_caches = [sr_cache] * len(sessions)
    machines = [
        SessionMachine(
            s.spec,
            s.controller,
            sr_latency=s.sr_latency,
            quality_model=s.quality_model,
            config=s.config,
            qoe_weights=s.qoe_weights,
            start_time=s.join_time,
            sr_cache=session_sr_caches[sid],
            churn=s.churn,
        )
        for sid, s in enumerate(sessions)
    ]
    if tracer is not None:
        # Wire the tracer into the stateful subsystems for this run only
        # (the finally below unwires it, so a reused topology or
        # controller never keeps emitting into a finished run's stream).
        if topology is not None:
            for e_idx, edge in enumerate(topology.edges):
                edge.cache.tracer = tracer
                edge.cache.edge = e_idx
            topology.origin.queue.tracer = tracer
        if controller is not None:
            controller.tracer = tracer
        for sid, s in enumerate(sessions):
            if topology is not None:
                tracer.emit(
                    s.join_time, EV_SESSION_START, session=sid,
                    edge=assignment[sid],
                )
            else:
                tracer.emit(s.join_time, EV_SESSION_START, session=sid)
        if faults is not None:
            faults.emit_scheduled(tracer)
    sched = PathScheduler(engine=spec.scheduler_engine)
    #: flows that must fill an edge cache on completion: sid -> (edge idx, key, bytes)
    pending_fill: dict[int, tuple] = {}
    #: requests coalesced onto an in-flight fill: (edge idx, key) -> [(sid, req)]
    fill_waiters: dict[tuple, list[tuple[int, DownloadRequest]]] = {}
    origin_egress = 0

    # -- fault / control runtime -------------------------------------------
    n_edges = len(topology.edges) if topology is not None else 0
    regions = topology.regions if topology is not None else None
    outage_bounds = faults.boundary_times() if faults is not None else []
    #: every (edge, start, end) total-outage window — EdgeOutage events
    #: plus RegionOutage events resolved through the topology's regions;
    #: evacuation and edge_down recomputation read spans, never events
    outage_spans = (
        faults.edge_outage_spans(regions) if faults is not None else []
    )
    next_bound = 0
    edge_down = [False] * n_edges
    #: gray failures by edge (drop draws and byte accounting at dispatch)
    gray_by_edge: dict[int, list] = {}
    if faults is not None:
        for g in faults.gray_failures:
            gray_by_edge.setdefault(g.edge, []).append(g)
    #: timeouts are armed only when they can ever fire — the default
    #: RetryPolicy(timeout_s=inf) keeps the no-timeout path untouched
    arm_timeouts = (
        retry_policy is not None
        and math.isfinite(retry_policy.timeout_s)
        and topology is not None
    )
    #: outage/timeout handling needs to know which flows ride which edge;
    #: the bookkeeping is gated so fault-free runs skip every extra dict op
    track_live = bool(outage_spans) or arm_timeouts
    #: any failure path live this run (gates the per-completion retry
    #: accounting; gray drops count attempts without tracking flows)
    resilience = track_live or bool(gray_by_edge)
    #: in-flight downloads: sid -> (request, edge the flow was routed via,
    #: how the bytes were charged at dispatch — origin egress, cache hit,
    #: or coalesced attach.  A cancellation (outage or timeout) credits the
    #: matching counter back, so the re-issued attempt does not count its
    #: bytes against delivered totals twice.
    live_req: dict[int, tuple[DownloadRequest, int, int]] = {}
    rstate = _RetryState()
    #: armed per-request timeouts: (deadline, sid, token) heap entries; a
    #: token mismatch marks an entry stale (the attempt already resolved)
    timeout_heap: list[tuple[float, int, int]] = []
    flow_token: dict[int, int] = {}
    resteered_total = 0
    monitor = faults is not None or controller is not None
    #: a metrics registry alone also wants the interval samples — the
    #: sample block is pure observation, so widening the gate cannot
    #: perturb the run (same argument as monitoring without a controller)
    sampling = monitor or metrics is not None
    ticks0 = resizes0 = 0
    if controller is not None:
        sample_interval = controller.policy.interval
        ticks0 = controller.ticks
        resizes0 = controller.encode_resizes
    else:
        sample_interval = _DEFAULT_SAMPLE_INTERVAL
    tracker = (
        RecoveryTracker(min(ev.start for ev in faults.events))
        if faults is not None
        else None
    )
    #: per fault domain recovery metrics: region -> (sampler, tracker);
    #: sessions are attributed to the region of their *home* (initial)
    #: edge, so an evacuated region's viewers keep reporting into it —
    #: the dip measures what the region's audience experienced, not
    #: where their bytes happened to come from afterwards
    region_track: dict[str, tuple[_FleetSampler, RecoveryTracker]] = {}
    region_home: list[str | None] = []
    if faults is not None and regions:
        fault_start = min(ev.start for ev in faults.events)
        region_track = {
            name: (_FleetSampler(None), RecoveryTracker(fault_start))
            for name in sorted(regions)
        }
        region_of_edge: list[str | None] = [None] * n_edges
        for name, members in regions.items():
            for e in members:
                region_of_edge[e] = name
        region_home = [region_of_edge[e] for e in assignment]
    next_sample = sample_interval
    sampler = _FleetSampler(metrics)
    encode_waits_seen = 0
    # Degradations act purely through the trace wrapper: the scheduler's
    # piecewise integration segments at the window boundaries on its own,
    # so no loop events are injected.  Restored in the finally below so a
    # reused topology is never left wearing a fault.
    wrapped_links: list[tuple[SharedLink, NetworkTrace]] = []
    if faults is not None and faults.degradations:
        deg_windows: dict[int, list[tuple[float, float, float]]] = {}
        for d in faults.degradations:
            deg_windows.setdefault(d.edge, []).append((d.start, d.end, d.factor))
        for e, wins in sorted(deg_windows.items()):
            link = topology.edges[e].backhaul
            wrapped_links.append((link, link.trace))
            link.trace = DegradedTrace(link.trace, wins)
    # A gray failure's capacity brownout rides the same window machinery,
    # on the edge's *access* link (the edge keeps serving, slower) — so
    # gray windows compose with backhaul degradations exactly like any
    # other DegradedTrace windows.
    if gray_by_edge:
        for e, grays in sorted(gray_by_edge.items()):
            wins = [
                (g.start, g.end, g.capacity_factor)
                for g in grays
                if g.capacity_factor != 1.0
            ]
            if not wins:
                continue
            link = topology.edges[e].access
            wrapped_links.append((link, link.trace))
            link.trace = DegradedTrace(link.trace, wins)
    #: topology requests dated beyond the current event, ordered by
    #: (start_time, session id).  Cache lookups and encode reservations
    #: are *stateful and time-stamped*, so a future-dated request (a
    #: session's join, a buffer-headroom wait) must not consult them
    #: until virtual time reaches its start — a viewer joining at t=60
    #: sees every fill and encode that completed before t=60.
    deferred: list[tuple[float, int, DownloadRequest]] = []
    clock = 0.0

    def _gray_dispatch(edge_idx: int, sid: int, req: DownloadRequest):
        """(drop retransmit delay, gray-window bytes) for one dispatch.

        Bytes count once however many gray windows overlap the instant;
        the deterministic drop draw is per window, and a dropped request
        is modeled as its own retransmit — the transfer starts
        ``drop_delay_s`` late and the attempt counts as failed.
        """
        delay = 0.0
        gbytes = 0
        for g in gray_by_edge.get(edge_idx, ()):
            if g.covers(req.start_time):
                gbytes = req.nbytes
                if g.drops(sid, req.start_time):
                    delay += g.drop_delay_s
        return delay, gbytes

    def _gray_bytes_at(edge_idx: int, req: DownloadRequest) -> int:
        """Gray-window bytes a cancelled dispatch must credit back."""
        for g in gray_by_edge.get(edge_idx, ()):
            if g.covers(req.start_time):
                return req.nbytes
        return 0

    def _gray_drop(edge_idx: int, sid: int, req: DownloadRequest) -> float:
        """Gray bookkeeping for one dispatch; returns the drop delay."""
        gdelay, gbytes = _gray_dispatch(edge_idx, sid, req)
        rstate.gray_bytes += gbytes
        if gdelay > 0.0:
            rstate.add_attempt(sid)
            if tracer is not None:
                tracer.emit(
                    req.start_time, EV_CHUNK_RETRY, session=sid,
                    nbytes=req.nbytes, reason="gray-drop",
                )
        return gdelay

    def _arm_timeout(sid: int, req: DownloadRequest) -> None:
        """Arm the retry policy's virtual-time timeout for one attempt.

        Skipped once the attempt budget is spent — the final attempt
        runs to completion untimed (a simulated chunk must eventually
        deliver; the report records how hard the client fought).
        """
        if not arm_timeouts:
            return
        if rstate.attempts.get(sid, 0) + 1 >= retry_policy.max_attempts:
            return
        token = flow_token.get(sid, 0) + 1
        flow_token[sid] = token
        heapq.heappush(
            timeout_heap,
            (req.start_time + retry_policy.timeout_s, sid, token),
        )

    def _disarm(sid: int) -> None:
        """Invalidate any armed timeout for ``sid`` (attempt resolved)."""
        if arm_timeouts:
            flow_token[sid] = flow_token.get(sid, 0) + 1

    def dispatch(sid: int, req: DownloadRequest) -> None:
        nonlocal origin_egress
        if base_path is not None:
            if tracer is not None:
                tracer.emit(
                    req.start_time, EV_CHUNK_FETCH, session=sid,
                    route="link", nbytes=req.nbytes,
                )
            sched.add_flow(
                sid, req.nbytes, req.start_time, base_path,
                weight=sessions[sid].weight,
            )
            return
        assert topology is not None
        edge_idx = assignment[sid]
        edge = topology.edges[edge_idx]
        key = _chunk_key(req)
        if key is not None and edge.cache.lookup(key, req.nbytes, req.start_time):
            gdelay = _gray_drop(edge_idx, sid, req) if gray_by_edge else 0.0
            if track_live:
                live_req[sid] = (req, edge_idx, _CHARGE_HIT)
            _arm_timeout(sid, req)
            if tracer is not None:
                tracer.emit(
                    req.start_time, EV_CHUNK_FETCH, session=sid,
                    route="hit", edge=edge_idx, nbytes=req.nbytes,
                )
            sched.add_flow(
                sid, req.nbytes, req.start_time, edge.hit_path,
                weight=sessions[sid].weight, extra_delay=gdelay,
            )
            return
        delay = 0.0
        if key is not None:
            if edge.cache.fill_in_flight(key):
                # Another viewer is already pulling this chunk: coalesce.
                # The request parks until that one backhaul transfer
                # lands, then streams from the edge over the access link.
                edge.cache.attach(key, req.nbytes, at_time=req.start_time)
                fill_waiters.setdefault((edge_idx, key), []).append((sid, req))
                if tracer is not None:
                    tracer.emit(
                        req.start_time, EV_CHUNK_FETCH, session=sid,
                        route="coalesce", edge=edge_idx, nbytes=req.nbytes,
                    )
                return
            # Cold chunk: the origin must hold the encoded variant before
            # the backhaul transfer starts (bounded transcode workers).
            ready = topology.origin.variant_ready(key, req.start_time)
            delay = ready - req.start_time
            if edge.cache.capacity_bytes > 0:
                edge.cache.begin_fill(key)
            pending_fill[sid] = (edge_idx, key, req.nbytes)
        if gray_by_edge:
            delay += _gray_drop(edge_idx, sid, req)
        origin_egress += req.nbytes
        if track_live:
            live_req[sid] = (req, edge_idx, _CHARGE_ORIGIN)
        _arm_timeout(sid, req)
        if tracer is not None:
            tracer.emit(
                req.start_time, EV_CHUNK_FETCH, session=sid,
                route="origin", edge=edge_idx, nbytes=req.nbytes,
                delay=delay,
            )
        sched.add_flow(
            sid, req.nbytes, req.start_time, edge.miss_path,
            weight=sessions[sid].weight, extra_delay=delay,
        )

    def needs_clock(sid: int, req: DownloadRequest) -> bool:
        """Does resolving this request read time-stamped mutable state?

        Only cacheable chunks on a topology with a live edge cache or a
        non-zero encode cost do.  Everything else (single-link mode,
        startup payloads, caching and encoding disabled) resolves the
        same way at any instant, and registering the flow immediately
        keeps the degenerate topology bit-exact with the single-link
        scheduler — a waiting flow in the pool is what disables the
        solo-flow fast path, exactly as in :class:`SharedLink`.
        """
        if base_path is not None or req.chunk_index is None:
            return False
        assert topology is not None
        edge = topology.edges[assignment[sid]]
        return (
            edge.cache.capacity_bytes > 0
            or topology.origin.encode_seconds > 0.0
        )

    def queue(sid: int, req: DownloadRequest) -> None:
        if req.start_time > clock and needs_clock(sid, req):
            heapq.heappush(deferred, (req.start_time, sid, req))
        else:
            dispatch(sid, req)

    def queue_decided(pairs: list[tuple[int, DownloadRequest]]) -> None:
        """Queue freshly decided requests, tracing each decision."""
        for sid, req in pairs:
            if tracer is not None:
                tracer.emit(
                    req.start_time, EV_CHUNK_DECISION, session=sid,
                    chunk=req.chunk_index, nbytes=req.nbytes,
                )
            queue(sid, req)

    def _live_totals() -> tuple[int, float, float]:
        """Fleet-wide live counters, summed in session order."""
        chunks = 0
        qsum = 0.0
        stall = 0.0
        for m in machines:
            chunks += m.live_chunks
            qsum += m.live_quality_sum
            stall += m.live_stall
        return chunks, qsum, stall

    def _region_live_totals() -> dict[str, tuple[int, float, float]]:
        """Per fault domain live counters, summed in ascending session id
        order over each session's *home* region."""
        totals = {name: (0, 0.0, 0.0) for name in region_track}
        for sid, name in enumerate(region_home):
            if name is None:
                continue
            m = machines[sid]
            c, q, s = totals[name]
            totals[name] = (
                c + m.live_chunks,
                q + m.live_quality_sum,
                s + m.live_stall,
            )
        return totals

    # -- graceful degradation (control-plane levers) -----------------------
    # The clamp rewrites ABR decisions while a lever is pulled; while no
    # lever is active the decision call sites receive clamp=None, so the
    # no-op configuration executes the exact pre-lever instruction stream.
    decision_cap = math.inf
    sr_disabled = False
    clamp_active = False

    def _clamp(d):
        """One ABR decision under the active degradation levers."""
        if decision_cap < math.inf and d.density > decision_cap:
            d = dc_replace(d, density=decision_cap)
        if sr_disabled and d.sr_ratio != 1.0:
            d = dc_replace(d, sr_ratio=1.0)
        return d

    def _decide(ids: list[int]) -> list[tuple[int, DownloadRequest]]:
        """Resolve parked decisions, routed through the degradation
        clamp only while a lever is pulled."""
        return _batched_decisions(
            machines, ids, clamp=_clamp if clamp_active else None
        )

    def _evacuate(edge_idx: int, t: float) -> None:
        """Fail edge ``edge_idx`` over at instant ``t``: re-steer its
        viewers to the least-loaded live edges, cancel its in-flight
        transfers and re-issue them from ``t`` (time already spent counts
        against the session via the retry state's sunk-time offset, plus
        any :class:`~repro.streaming.faults.RetryPolicy` backoff),
        restart its cache cold.
        """
        nonlocal resteered_total, origin_egress
        assert topology is not None and faults is not None
        edge = topology.edges[edge_idx]
        # Outstanding work riding the dead edge, captured before any
        # re-assignment: in-flight transfers and parked coalesced waiters.
        # Each cancelled transfer hands back whatever it was charged at
        # dispatch — origin egress, cache hit bytes, or a coalesced attach
        # — so the re-issued attempt, billed on its own dispatch, never
        # counts one delivered chunk's bytes twice.  Gray-window bytes are
        # credited back the same way (coalesced attaches never paid any).
        riding = sorted(
            sid for sid, (_, e, _) in live_req.items() if e == edge_idx
        )
        retries = []
        for sid in riding:
            req, _, kind = live_req.pop(sid)
            if kind == _CHARGE_ORIGIN:
                origin_egress -= req.nbytes
            elif kind == _CHARGE_HIT:
                edge.cache.void_hit(req.nbytes, at_time=t)
            else:
                edge.cache.void_coalesced(req.nbytes, at_time=t)
            if gray_by_edge and kind != _CHARGE_COALESCED:
                rstate.gray_bytes -= _gray_bytes_at(edge_idx, req)
            _disarm(sid)
            retries.append((sid, req))
        for k in [k for k in fill_waiters if k[0] == edge_idx]:
            for wsid, wreq in fill_waiters.pop(k):
                edge.cache.void_coalesced(wreq.nbytes, at_time=t)
                retries.append((wsid, wreq))
        if tracer is not None:
            tracer.emit(
                t, EV_OUTAGE_EVACUATE, edge=edge_idx,
                cancelled=len(retries),
            )
        # Viewers whose join still lies beyond the end of this outage
        # (chained across back-to-back outage spans on the edge) will
        # find it healthy again — failing them over now would permanently
        # strand them on another edge for no reason.  Spans already fold
        # RegionOutage events through the topology's fault domains.
        until = t
        for e2, start, end in outage_spans:
            if e2 == edge_idx and start <= until:
                until = max(until, end)
        live = [e for e in range(n_edges) if not edge_down[e]]
        finished = [m.finished for m in machines]
        load = [0] * n_edges
        for sid, fin in enumerate(finished):
            if not fin:
                load[assignment[sid]] += 1
        for sid, fin in enumerate(finished):
            if fin or assignment[sid] != edge_idx:
                continue
            if sessions[sid].join_time >= until:
                continue
            target = min(live, key=lambda e: (load[e], e))
            load[edge_idx] -= 1
            load[target] += 1
            assignment[sid] = target
            if per_edge_sr:
                machines[sid].sr_cache = topology.edges[target].sr_cache
            resteered_total += 1
            if tracer is not None:
                tracer.emit(
                    t, EV_SESSION_RESTEER, session=sid, reason="outage",
                    from_edge=edge_idx, to_edge=target,
                )
        for sid in riding:
            sched.cancel(sid)
            pending_fill.pop(sid, None)
        # A restarted edge comes back cold: drop contents and in-flight
        # fill markers (their backhaul transfers were just cancelled).
        edge.cache.drop_all()
        # Re-issue the orphaned requests against each session's new edge.
        # Requests dated at/after the outage re-run unchanged; requests
        # already in flight restart here, carrying their sunk time plus
        # the retry policy's capped exponential backoff (no policy =
        # immediate restart, the historical behavior bit-exactly).
        for sid, req in sorted(retries):
            if tracer is not None:
                tracer.emit(t, EV_CHUNK_RETRY, session=sid, nbytes=req.nbytes)
            if req.start_time >= t:
                queue(sid, req)
            else:
                n = rstate.add_attempt(sid)
                delay = (
                    retry_policy.backoff(n)
                    if retry_policy is not None
                    else 0.0
                )
                rstate.offset[sid] = rstate.offset.get(sid, 0.0) + (
                    t + delay - req.start_time
                )
                queue(sid, dc_replace(req, start_time=t + delay))

    # Every session needs its first ABR decision at join time — the widest
    # batch of the run (startup-bytes sessions enter via a transfer first).
    # Decisions are pure functions of their context, so resolving them all
    # up front is safe; the *requests* they unblock go through queue(),
    # which holds future-dated ones until virtual time catches up.
    first_decisions = []
    for sid, machine in enumerate(machines):
        if isinstance(machine.pending, DownloadRequest):
            queue(sid, machine.pending)
        elif isinstance(machine.pending, DecisionRequest):
            first_decisions.append(sid)
    queue_decided(_decide(first_decisions))

    now = 0.0
    end_times = [0.0] * len(sessions)
    # Pre-bound phase spans: with profiling disabled each is the shared
    # no-op context manager, so the loop keeps one shape either way.
    ph_sched = prof.phase("scheduler")
    ph_advance = prof.phase("advance")
    ph_planner = prof.phase("planner")
    ph_control = prof.phase("control")
    try:
      while sched.busy() or deferred:
        with ph_sched:
            events = []
            if sched.busy():
                events.append(sched.next_event(now))
            if deferred:
                events.append(max(deferred[0][0], now))
            if next_bound < len(outage_bounds):
                # Outage boundaries mutate scheduler state, so the loop
                # must wake exactly at them (degradations and crowds need
                # no event).
                events.append(max(outage_bounds[next_bound], now))
            if timeout_heap:
                # Armed retry deadlines wake the loop too.  A stale entry
                # (its attempt already resolved) may wake it spuriously.
                events.append(max(timeout_heap[0][0], now))
            t = min(events)
            clock = t
            # advance() returns a materialized completion list, so the
            # fluid advance (scheduler phase) profiles separately from
            # the session transitions it unblocks (advance phase).
            completions = sched.advance(now, t) if sched.busy() else ()
        needs_decision: list[int] = []
        with ph_advance:
            for done in completions:
                if track_live:
                    live_req.pop(done.flow_id, None)
                if arm_timeouts:
                    # A completion that lands exactly at its deadline wins:
                    # completions are processed before the timeout block,
                    # and the token bump marks the heap entry stale.
                    _disarm(done.flow_id)
                fill = pending_fill.pop(done.flow_id, None)
                if fill is not None:
                    edge_idx, key, nbytes = fill
                    edge = topology.edges[edge_idx]
                    edge.cache.insert(key, nbytes, ready=done.finish_time)
                    # Release every request that coalesced onto this fill:
                    # the chunk now sits at the edge, so each waiter
                    # streams it over the one-hop access path, its data
                    # gated to the fill's landing instant (the elapsed
                    # time still counts from its own request).
                    for wsid, wreq in fill_waiters.pop((edge_idx, key), ()):
                        if track_live:
                            live_req[wsid] = (wreq, edge_idx, _CHARGE_COALESCED)
                        gate = done.finish_time - (
                            wreq.start_time + edge.hit_path.rtt
                        )
                        sched.add_flow(
                            wsid, wreq.nbytes, wreq.start_time, edge.hit_path,
                            weight=sessions[wsid].weight,
                            extra_delay=max(gate, 0.0),
                        )
                elapsed = done.elapsed
                if resilience:
                    elapsed += rstate.complete(done.flow_id)
                m = machines[done.flow_id]
                if tracer is None:
                    req = m.advance(elapsed)
                else:
                    # Live counters are pure telemetry, so diffing them
                    # across the transition recovers the chunk record
                    # without touching the generator's arithmetic.
                    lc0 = m.live_chunks
                    lq0 = m.live_quality_sum
                    ls0 = m.live_stall
                    req = m.advance(elapsed)
                    if m.live_chunks > lc0:
                        d_stall = m.live_stall - ls0
                        tracer.emit(
                            done.finish_time, EV_CHUNK_COMPLETE,
                            session=done.flow_id,
                            quality=m.live_quality_sum - lq0,
                            stall=d_stall, elapsed=elapsed,
                        )
                        if d_stall > 0.0:
                            tracer.emit(
                                done.finish_time, EV_CHUNK_STALL,
                                session=done.flow_id, seconds=d_stall,
                            )
                    if m.finished:
                        assert m.result is not None
                        tracer.emit(
                            done.finish_time,
                            EV_SESSION_ABANDON
                            if m.result.abandoned
                            else EV_SESSION_FINISH,
                            session=done.flow_id,
                        )
                if isinstance(req, DecisionRequest):
                    needs_decision.append(done.flow_id)
                elif req is not None:
                    queue(done.flow_id, req)
                else:
                    end_times[done.flow_id] = done.finish_time
        with ph_planner:
            queue_decided(_decide(needs_decision))
        if next_bound < len(outage_bounds) and outage_bounds[next_bound] <= t:
          with ph_control:
            # Bank any solo flow's progress before surgery on the flow set
            # (same contract as the deferred release below).
            sched.sync(t)
            while (
                next_bound < len(outage_bounds)
                and outage_bounds[next_bound] <= t
            ):
                tb = outage_bounds[next_bound]
                next_bound += 1
                newly_down = []
                for e in range(n_edges):
                    down = any(
                        e2 == e and s <= tb < end
                        for e2, s, end in outage_spans
                    )
                    if down and not edge_down[e]:
                        newly_down.append(e)
                    edge_down[e] = down
                for e in newly_down:
                    _evacuate(e, t)
        if timeout_heap and timeout_heap[0][0] <= t:
          with ph_control:
            # Collect every armed deadline due by t whose attempt is still
            # in flight.  Completions at the same instant were processed
            # above and bumped their tokens (completion-at-deadline wins);
            # an evacuation at a coincident outage boundary likewise
            # already popped its sids from live_req.
            fired: list[int] = []
            while timeout_heap and timeout_heap[0][0] <= t:
                _, sid, token = heapq.heappop(timeout_heap)
                if flow_token.get(sid, 0) != token or sid not in live_req:
                    continue
                flow_token[sid] = token + 1
                fired.append(sid)
            if fired:
                # Cancelling flows outside the completion-driven pattern —
                # bank any solo flow's progress first (same contract as
                # the deferred release below).
                sched.sync(t)
            for sid in fired:
                req, edge_idx, kind = live_req.pop(sid)
                edge = topology.edges[edge_idx]
                # Hand back whatever the attempt was charged at dispatch
                # (see _evacuate — identical credit-back contract).
                if kind == _CHARGE_ORIGIN:
                    origin_egress -= req.nbytes
                elif kind == _CHARGE_HIT:
                    edge.cache.void_hit(req.nbytes, at_time=t)
                else:
                    edge.cache.void_coalesced(req.nbytes, at_time=t)
                if gray_by_edge and kind != _CHARGE_COALESCED:
                    rstate.gray_bytes -= _gray_bytes_at(edge_idx, req)
                sched.cancel(sid)
                fill = pending_fill.pop(sid, None)
                if fill is not None:
                    f_edge, key, _ = fill
                    topology.edges[f_edge].cache.abort_fill(key)
                    # Requests coalesced onto the aborted fill retry on
                    # their own, each paying its own backoff.
                    for wsid, wreq in fill_waiters.pop((f_edge, key), ()):
                        topology.edges[f_edge].cache.void_coalesced(
                            wreq.nbytes, at_time=t
                        )
                        if tracer is not None:
                            tracer.emit(
                                t, EV_CHUNK_RETRY, session=wsid,
                                nbytes=wreq.nbytes, reason="fill-aborted",
                            )
                        if wreq.start_time >= t:
                            queue(wsid, wreq)
                            continue
                        wn = rstate.add_attempt(wsid)
                        wdelay = retry_policy.backoff(wn)
                        rstate.offset[wsid] = rstate.offset.get(
                            wsid, 0.0
                        ) + (t + wdelay - wreq.start_time)
                        queue(
                            wsid,
                            dc_replace(wreq, start_time=t + wdelay),
                        )
                rstate.timed_out += 1
                if tracer is not None:
                    tracer.emit(
                        t, EV_RETRY_TIMEOUT, session=sid, edge=edge_idx,
                        nbytes=req.nbytes,
                    )
                # Hedging re-steers the retry to the least-loaded other
                # live edge and skips the backoff wait (the point of a
                # hedge is to race a fresh path, not to sit out).
                hedged_now = False
                if retry_policy.hedge:
                    load = [0] * n_edges
                    for s2, other in enumerate(machines):
                        if not other.finished:
                            load[assignment[s2]] += 1
                    candidates = [
                        e for e in range(n_edges)
                        if e != edge_idx and not edge_down[e]
                    ]
                    if candidates:
                        target = min(candidates, key=lambda e: (load[e], e))
                        assignment[sid] = target
                        if per_edge_sr:
                            machines[sid].sr_cache = (
                                topology.edges[target].sr_cache
                            )
                        rstate.hedged += 1
                        resteered_total += 1
                        hedged_now = True
                        if tracer is not None:
                            tracer.emit(
                                t, EV_SESSION_RESTEER, session=sid,
                                reason="hedge", from_edge=edge_idx,
                                to_edge=target,
                            )
                            tracer.emit(
                                t, EV_RETRY_HEDGE, session=sid,
                                edge=target,
                            )
                n = rstate.add_attempt(sid)
                delay = 0.0 if hedged_now else retry_policy.backoff(n)
                rstate.offset[sid] = rstate.offset.get(sid, 0.0) + (
                    t + delay - req.start_time
                )
                if tracer is not None:
                    tracer.emit(
                        t, EV_CHUNK_RETRY, session=sid, nbytes=req.nbytes,
                        reason="timeout",
                    )
                queue(sid, dc_replace(req, start_time=t + delay))
        if sampling and t >= next_sample:
          with ph_control:
            # Control ticks piggyback on instants the loop already wakes
            # at — never injected — so pure monitoring cannot split a
            # fluid advance interval (the bit-exactness of the disabled /
            # no-op configurations rests on this).
            health = sampler.health_sample(t, *_live_totals())
            if tracker is not None and health is not None:
                tracker.sample(t, health)
            if region_track:
                region_totals = _region_live_totals()
                for name, (rsampler, rtracker) in region_track.items():
                    rh = rsampler.health_sample(t, *region_totals[name])
                    if rh is not None:
                        rtracker.sample(t, rh)
            finished_flags: list[bool] = []
            if metrics is not None or controller is not None:
                finished_flags = [m.finished for m in machines]
            if metrics is not None:
                active = 0
                buf_sum = 0.0
                for sid, fin in enumerate(finished_flags):
                    if not fin:
                        active += 1
                        buf_sum += machines[sid].live_buffer_level
                metrics.timeseries("fleet.active_sessions").record(t, active)
                metrics.timeseries("fleet.buffer_level").record(
                    t, buf_sum / active if active else 0.0
                )
                if topology is not None:
                    mloads = [0] * n_edges
                    for sid, fin in enumerate(finished_flags):
                        if not fin:
                            mloads[assignment[sid]] += 1
                    for e in range(n_edges):
                        metrics.timeseries(f"edge.load.{e}").record(
                            t, mloads[e]
                        )
                    oqueue = topology.origin.queue
                    metrics.timeseries("origin.encode_busy").record(
                        t, oqueue.busy_at(t)
                    )
                    metrics.gauge("origin.encode_workers").set(
                        oqueue.n_workers
                    )
            if controller is not None:
                assert topology is not None
                loads = [0] * n_edges
                by_edge: dict[int, list[int]] = {
                    e: [] for e in range(n_edges)
                }
                for sid, fin in enumerate(finished_flags):
                    if not fin:
                        by_edge[assignment[sid]].append(sid)
                        loads[assignment[sid]] += 1
                waits = topology.origin.queue.waits
                new_waits = tuple(waits[encode_waits_seen:])
                encode_waits_seen = len(waits)
                regions_dark = (
                    tuple(
                        name
                        for name in sorted(regions)
                        if all(edge_down[e] for e in regions[name])
                    )
                    if regions
                    else ()
                )
                actions = controller.tick(
                    FleetView(
                        now=t,
                        edge_load=tuple(loads),
                        edge_down=tuple(edge_down),
                        sessions_by_edge={
                            e: tuple(ids) for e, ids in by_edge.items()
                        },
                        encode_waits=new_waits,
                        encode_workers=topology.origin.queue.n_workers,
                        health=health,
                        regions_dark=regions_dark,
                    )
                )
                if actions.encode_workers is not None:
                    topology.origin.queue.resize(
                        actions.encode_workers, at_time=t
                    )
                for sid, target in actions.resteer:
                    if finished_flags[sid] or edge_down[target]:
                        continue
                    if tracer is not None:
                        tracer.emit(
                            t, EV_SESSION_RESTEER, session=sid,
                            reason="control", from_edge=assignment[sid],
                            to_edge=target,
                        )
                    assignment[sid] = target
                    if per_edge_sr:
                        machines[sid].sr_cache = topology.edges[target].sr_cache
                    resteered_total += 1
                if actions.quality_cap is not None:
                    decision_cap = actions.quality_cap
                if actions.sr_enabled is not None:
                    sr_disabled = not actions.sr_enabled
                clamp_active = decision_cap < math.inf or sr_disabled
            next_sample = (
                math.floor(t / sample_interval) + 1
            ) * sample_interval
        # Release deferred requests due by t only after the fills that
        # completed *at* t are inserted: a chunk resident at the instant
        # a request goes out counts as a hit (ready <= at_time).
        if deferred and deferred[0][0] <= t:
          with ph_advance:
            # A release injects flows outside the completion-driven
            # pattern the solo fast path assumes — bank any solo flow's
            # progress up to t first, or it would restart from scratch.
            sched.sync(t)
            while deferred and deferred[0][0] <= t:
                _, sid, req = heapq.heappop(deferred)
                dispatch(sid, req)
        now = t
    finally:
        for link, orig in wrapped_links:
            link.trace = orig
        if tracer is not None:
            # Unwire the tracer so a reused topology/controller never
            # emits into a finished run's stream.
            if topology is not None:
                for edge in topology.edges:
                    edge.cache.tracer = None
                    edge.cache.edge = None
                topology.origin.queue.tracer = None
            if controller is not None:
                controller.tracer = None
    if sampling:
        # Close the monitoring stream so a recovery that completes after
        # the last sample instant is still observed.
        health = sampler.health_sample(now, *_live_totals())
        if tracker is not None and health is not None:
            tracker.sample(now, health)
        if region_track:
            region_totals = _region_live_totals()
            for name, (rsampler, rtracker) in region_track.items():
                rh = rsampler.health_sample(now, *region_totals[name])
                if rh is not None:
                    rtracker.sample(now, rh)

    results = [m.result for m in machines]
    assert all(
        r is not None for r in results
    ), "fleet left unfinished sessions"
    assert not fill_waiters, "fleet left coalesced requests waiting"
    ops = None
    if monitor or resilience:
        # A retry policy without faults still needs its counters surfaced
        # (monitor alone would drop a retry-only run's timeout totals).
        if controller is not None and controller.autoscaler is not None:
            controller.autoscaler.finish()
        dip, recover = (
            tracker.metrics() if tracker is not None else (0.0, 0.0)
        )
        ops = OpsStats(
            sessions_resteered=resteered_total,
            faults_injected=len(faults) if faults is not None else 0,
            control_ticks=(
                controller.ticks - ticks0 if controller is not None else 0
            ),
            encode_pool_resizes=(
                controller.encode_resizes - resizes0
                if controller is not None
                else 0
            ),
            qoe_dip_depth=dip,
            time_to_recover_s=recover,
            chunk_retries=rstate.retries,
            requests_timed_out=rstate.timed_out,
            requests_hedged=rstate.hedged,
            gray_degraded_bytes=rstate.gray_bytes,
            retry_attempts=rstate.attempt_counts(),
            region_recovery=tuple(
                (name, *region_track[name][1].metrics())
                for name in sorted(region_track)
            ),
        )
    if topology is not None:
        edge_stats = [
            (e.cache.hits, e.cache.misses, e.cache.coalesced,
             e.cache.coalesced_bytes)
            for e in topology.edges
        ]
        edge_hit_rates = tuple(e.cache.hit_rate for e in topology.edges)
        encode_waits = list(topology.origin.queue.waits)
        encode_core_seconds = topology.origin.queue.busy_seconds
        egress: int | None = origin_egress
    else:
        # No edges: every byte leaves the origin (egress=None sentinel).
        edge_stats = []
        edge_hit_rates = ()
        encode_waits = []
        encode_core_seconds = 0.0
        egress = None
    if per_edge_sr:
        assert topology is not None
        sr_hits = sum(e.sr_cache.hits for e in topology.edges)
        sr_misses = sum(e.sr_cache.misses for e in topology.edges)
        sr_edge_hit_rates = tuple(e.sr_cache.hit_rate for e in topology.edges)
    else:
        sr_hits = sr_cache.hits if sr_cache is not None else 0
        sr_misses = sr_cache.misses if sr_cache is not None else 0
        sr_edge_hit_rates = ()
    report = build_fleet_report(
        results,
        sessions,
        end_times,
        origin_egress=egress,
        edge_stats=edge_stats,
        edge_hit_rates=edge_hit_rates,
        encode_waits=encode_waits,
        sr_hits=sr_hits,
        sr_misses=sr_misses,
        sr_edge_hit_rates=sr_edge_hit_rates,
        ops=ops,
        encode_core_seconds=encode_core_seconds,
    )
    result = FleetResult(
        sessions=results,
        report=report,
        sr_cache=None if per_edge_sr else sr_cache,
        session_specs=list(sessions),
        topology=topology,
        assignment=assignment,
        end_times=end_times,
    )
    if spec.cost_model is not None:
        from .cost import attach_cost

        result = attach_cost(result, spec.cost_model)
    return result
