"""Multi-session fleet simulator: N clients on a shared serving topology.

The paper's evaluation (§7.4–§7.5) is single-client.  Serving heavy
traffic means many concurrent sessions contending for shared bandwidth, so
this module runs a *fleet* of :class:`~repro.streaming.simulator.SessionMachine`
state machines against a shared network in virtual time:

* each session joins at its own ``join_time`` and runs its own ABR
  controller and SR latency model;
* every transfer is scheduled per hop through a
  :class:`~repro.net.topology.PathScheduler` over a
  :class:`~repro.streaming.cdn.CDNTopology`, which routes each viewer
  over its edge's access link (cache hit) or the origin → edge → viewer
  two-hop path (miss), gated by the origin's bounded encode queue — the
  classic single bottleneck is the one-edge
  :func:`~repro.streaming.cdn.single_link_cdn`;
* each link splits its capacity equally among its in-flight downloads
  (fair processor sharing);
* an optional :class:`SRResultCache` shares super-resolution results
  across co-watching sessions of the same video, so the Nth viewer of a
  popular chunk pays nothing for SR — the amortization lever that makes
  client-assist serving scale;
* the result is every per-session :class:`SessionResult` plus a
  :class:`FleetReport` of the aggregates an operator watches (mean/p5/p95
  QoE, stall ratio, cache hit rates, origin egress, encode-queue waits,
  delivered bytes).

Everything is deterministic given (session specs, topology): the
scheduler resolves simultaneous events by session id.
:func:`~repro.streaming.simulator.simulate_session` is a fleet of one on
:func:`~repro.streaming.cdn.single_link_cdn`, which is bit-exact with a
bare one-hop path on the same trace: its backhaul steps on the access
trace's own grid, so it adds no wake (golden digests pin this, odd-length
and irregular traces included).
"""

from __future__ import annotations

import heapq
import math
import numbers
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
    NULL_TRACER,
)
from ..obs.profiler import NULL_PROFILER
from ..net.link import SharedLink
from ..net.topology import PathScheduler
from ..net.traces import NetworkTrace
from .cdn import CDNTopology
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
    "simulate_fleet",
]

#: Stall weight in the control plane's health signal — matches the default
#: :class:`~repro.metrics.qoe.QoEWeights` gamma, so "health" tracks the
#: same trade-off the QoE report scores.
_HEALTH_STALL_WEIGHT = 2.0

#: Monitor cadence (virtual seconds) when faults are injected without a
#: controller — the recovery tracker still needs samples.
_DEFAULT_SAMPLE_INTERVAL = 1.0

#: ``abr.rows_per_call`` buckets: batch occupancy differs by octaves (one
#: row per call on a diurnal day, the whole population on a flash crowd).
_ROWS_PER_CALL_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: How an in-flight download's bytes were charged at dispatch — the class
#: of counter an outage cancellation must credit back (see ``live_req``).
_CHARGE_HIT = 0
_CHARGE_ORIGIN = 1
_CHARGE_COALESCED = 2

#: Watchdog: consecutive event steps on which virtual time may fail to
#: advance before the loop is declared stuck.  Measured at PR 14 over
#: tier-1, the fast benchmarks lane, and seeds 0-2 of the three fleet
#: bench workloads: the longest same-instant run is 0 steps (virtual time
#: advanced on every step of every run).  A legitimate same-instant step
#: (an outage bound or deadline at the current instant) consumes what woke
#: it, so runs stay O(1); a stuck loop repeats forever.  1000 is three
#: orders of magnitude of margin and still trips in well under a second.
_MAX_STALLED_STEPS = 1000


@dataclass
class FleetSession:
    """One client in a fleet: content, controller, join time, patience.

    Controllers may be shared across sessions (the ABR classes are
    stateless between ``decide`` calls) or instantiated per session.
    Every session's downloads take an equal share of each link they
    cross; there is no per-session priority.
    """

    spec: VideoSpec
    controller: AbrController
    sr_latency: SRLatency = ZERO_LATENCY
    quality_model: SRQualityModel | None = None
    config: SessionConfig | None = None
    qoe_weights: QoEWeights | None = None
    join_time: float = 0.0
    #: viewer stall patience; None = never abandons
    churn: AbandonPolicy | None = None

    def __post_init__(self) -> None:
        # chained so NaN fails them (every comparison with NaN is false)
        if not 0 <= self.join_time < math.inf:
            raise ValueError("join_time must be finite and non-negative")


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

    On :func:`~repro.streaming.cdn.single_link_cdn` every request misses
    the zero-capacity cache, so ``origin_egress_bytes == total_bytes``,
    ``edge_hit_rates == (0.0,)`` and the encode fields stay at zero.
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


@dataclass
class FleetResult:
    """Per-session outcomes plus the fleet-level report."""

    sessions: list[SessionResult]
    report: FleetReport
    #: the serving topology the fleet ran over
    topology: CDNTopology
    #: viewer → edge index per session, after any re-steering
    assignment: list[int]
    sr_cache: SRResultCache | None = None
    session_specs: list[FleetSession] = field(default_factory=list)
    #: per-session virtual completion instants (last download finish),
    #: session order — the report's makespan is their maximum
    end_times: list[float] = field(default_factory=list)


def _batched_decisions(
    machines: list[SessionMachine], session_ids: list[int], clamp=None,
    rows_per_call=None,
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
    ``rows_per_call``, when given, is a histogram fed each call's row count.
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
        if rows_per_call is not None:
            rows_per_call.observe(len(ctxs))
        for sid, decision in zip(ids, controller.decide_batch(ctxs)):
            if clamp is not None:
                decision = clamp(decision)
            req = machines[sid].advance(decision)
            # A decision is always followed by the chunk's transfer.
            assert isinstance(req, DownloadRequest)
            out.append((sid, req))
    return out


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

class _FleetRun:
    """One fleet run: the state the event loop shares, and its stages.

    :func:`simulate_fleet` builds one, calls :meth:`run`, then
    :meth:`report`.  The stage methods (:meth:`on_completion`,
    :meth:`decide`, :meth:`apply_outage_bounds`, :meth:`fire_timeouts`,
    :meth:`sample_and_control`, :meth:`release_deferred`) are called once
    per event step, in that order, by :meth:`run` (:meth:`decide` only when
    a completion parked a session on its ABR decision); each failure-handling
    block exists once — :meth:`_cancel` (credit-back), :meth:`_reissue`
    (attempt count, backoff, sunk time), :meth:`_resteer`,
    :meth:`_unfinished_by_edge`, :meth:`_sample_health`.
    """

    def __init__(self, sessions: list[FleetSession], spec: FleetSpec) -> None:
        if not sessions:
            raise ValueError("fleet needs at least one session")
        spec.validate()
        self.sessions = sessions
        self.spec = spec
        self.faults = spec.faults
        self.retry_policy = spec.retry_policy
        self.controller = spec.controller
        telemetry = spec.telemetry
        live = None if telemetry is None else telemetry.tracer
        #: every emission site calls this; the no-op form when tracing is off
        self.tracer = NULL_TRACER if live is None else live
        self.metrics = telemetry.metrics if telemetry is not None else None
        self.rows_per_call = (
            None if self.metrics is None
            else self.metrics.histogram("abr.rows_per_call", _ROWS_PER_CALL_BOUNDS)
        )
        prof = (
            telemetry.profiler
            if telemetry is not None and telemetry.profiler is not None
            else NULL_PROFILER
        )
        # Pre-bound phase spans: with profiling disabled each is the shared
        # no-op context manager, so the loop keeps one shape either way.
        self.ph_sched = prof.phase("scheduler")
        self.ph_advance = prof.phase("advance")
        self.ph_planner = prof.phase("planner")
        self.ph_control = prof.phase("control")
        self.sched = PathScheduler()
        self.topology = topology = spec.topology
        topology.reset()
        self.edges = topology.edges
        if self.faults is not None:
            self.faults.validate_topology(len(self.edges), topology.regions)
        self.assignment = self._resolve_assignment()
        self.per_edge_sr = isinstance(spec.sr_cache, str)
        if self.per_edge_sr:
            # Mode string already validated by spec.validate().
            for edge in self.edges:
                if edge.sr_cache is None:
                    edge.sr_cache = SRResultCache()
            sr_caches = [self.edges[e].sr_cache for e in self.assignment]
        else:
            sr_caches = [spec.sr_cache] * len(sessions)
        self.machines = [
            SessionMachine(
                s.spec,
                s.controller,
                sr_latency=s.sr_latency,
                quality_model=s.quality_model,
                config=s.config,
                qoe_weights=s.qoe_weights,
                start_time=s.join_time,
                sr_cache=sr_caches[sid],
                churn=s.churn,
            )
            for sid, s in enumerate(sessions)
        ]
        self.end_times = [0.0] * len(sessions)
        # -- serving state -------------------------------------------------
        #: flows that must fill an edge cache on completion:
        #: sid -> (edge idx, key, bytes)
        self.pending_fill: dict[int, tuple] = {}
        #: requests coalesced onto an in-flight fill:
        #: (edge idx, key) -> [(sid, req)]
        self.fill_waiters: dict[tuple, list[tuple[int, DownloadRequest]]] = {}
        self.origin_egress = 0
        #: requests dated beyond the current event, ordered by
        #: (start_time, session id).  Cache lookups and encode reservations
        #: are *stateful and time-stamped*, so a future-dated request (a
        #: session's join, a buffer-headroom wait) must not consult them
        #: until virtual time reaches its start — a viewer joining at t=60
        #: sees every fill and encode that completed before t=60.
        self.deferred: list[tuple[float, int, DownloadRequest]] = []
        self.clock = 0.0
        # -- resilience state ----------------------------------------------
        #: in-flight topology downloads: sid -> (request, edge the flow was
        #: routed via, how its bytes were charged at dispatch, attempt
        #: serial).  A cancellation credits the ``_CHARGE_*`` counter back,
        #: so the re-issued attempt never counts its bytes twice; the serial
        #: identifies the attempt to its armed timeout.
        self.live_req: dict[int, tuple[DownloadRequest, int, int, int]] = {}
        self.attempt_serial = 0
        #: armed per-attempt timeouts: (deadline, sid, attempt serial); an
        #: entry whose attempt is no longer the one in flight is stale (it
        #: may wake the loop spuriously, never fire)
        self.timeout_heap: list[tuple[float, int, int]] = []
        self.rstate = _RetryState()
        self.resteered = 0
        # -- graceful degradation (control-plane levers) -------------------
        self.decision_cap = math.inf
        self.sr_disabled = False
        self._init_faults()
        self._init_monitoring()

    def _resolve_assignment(self) -> list[int]:
        """The viewer → edge map: the spec's override, else the topology's.

        Every override entry must be an integer edge index (``bool`` is
        not one; a NumPy integer is) in ``[0, n_edges)``.
        """
        given = self.spec.assignment
        if given is None:
            return self.topology.assign(self.sessions)
        if len(given) != len(self.sessions):
            raise ValueError(
                f"assignment names {len(given)} sessions, "
                f"fleet has {len(self.sessions)}"
            )
        n_edges = len(self.edges)
        for sid, e in enumerate(given):
            if (
                isinstance(e, bool)
                or not isinstance(e, numbers.Integral)
                or not 0 <= e < n_edges
            ):
                raise ValueError(
                    f"assignment entry {e!r} of session {sid} is not an "
                    f"edge index in [0, {n_edges})"
                )
        return [int(e) for e in given]

    def _init_faults(self) -> None:
        """Fault runtime: outage spans and bounds, gray windows, timeouts."""
        faults = self.faults
        regions = self.topology.regions
        #: instants an outage begins or ends — the loop must wake exactly
        #: at them (degradations and crowds need no event)
        self.outage_bounds = faults.boundary_times() if faults is not None else []
        self.next_bound = 0
        #: every (edge, start, end) total-outage window — EdgeOutage events
        #: plus RegionOutage events resolved through the topology's regions;
        #: evacuation and edge_down recomputation read spans, never events
        self.outage_spans = (
            faults.edge_outage_spans(regions) if faults is not None else []
        )
        self.edge_down = [False] * len(self.edges)
        #: gray failures by edge (drop draws and byte accounting at dispatch)
        self.gray_by_edge: dict[int, list] = {}
        #: (link, the trace it wore before this run) — see :meth:`_wire`
        self.wrapped_links: list[tuple[SharedLink, NetworkTrace]] = []
        if faults is not None:
            for g in faults.gray_failures:
                self.gray_by_edge.setdefault(g.edge, []).append(g)
        #: timeouts are armed only when they can ever fire — the default
        #: RetryPolicy(timeout_s=inf) keeps the no-timeout path untouched
        self.arm_timeouts = self.retry_policy is not None and math.isfinite(
            self.retry_policy.timeout_s
        )

    def _init_monitoring(self) -> None:
        """Health sampling cadence, recovery trackers, controller baselines."""
        faults, controller = self.faults, self.controller
        #: a metrics registry alone also wants the interval samples — the
        #: sample block is pure observation, so widening the gate cannot
        #: perturb the run (same argument as monitoring without a controller)
        self.sampling = (
            faults is not None
            or controller is not None
            or self.metrics is not None
        )
        self.ticks0 = self.resizes0 = 0
        self.sample_interval = _DEFAULT_SAMPLE_INTERVAL
        if controller is not None:
            self.sample_interval = controller.policy.interval
            self.ticks0 = controller.ticks
            self.resizes0 = controller.encode_resizes
        self.next_sample = self.sample_interval
        self.sampler = _FleetSampler(self.metrics)
        self.encode_waits_seen = 0
        self.tracker: RecoveryTracker | None = None
        #: per fault domain recovery metrics: region -> (sampler, tracker);
        #: sessions are attributed to the region of their *home* (initial)
        #: edge, so an evacuated region's viewers keep reporting into it —
        #: the dip measures what the region's audience experienced, not
        #: where their bytes happened to come from afterwards
        self.region_track: dict[str, tuple[_FleetSampler, RecoveryTracker]] = {}
        self.region_home: list[str | None] = []
        if faults is None:
            return
        fault_start = min(ev.start for ev in faults.events)
        self.tracker = RecoveryTracker(fault_start)
        regions = self.topology.regions
        if regions:
            self.region_track = {
                name: (_FleetSampler(None), RecoveryTracker(fault_start))
                for name in sorted(regions)
            }
            region_of_edge: list[str | None] = [None] * len(self.edges)
            for name, members in regions.items():
                for e in members:
                    region_of_edge[e] = name
            self.region_home = [region_of_edge[e] for e in self.assignment]

    def _wire(self) -> None:
        """Attach this run to the shared objects it borrows: fault windows
        onto their links, the tracer into the stateful subsystems.
        :meth:`_unwire` undoes both, so a reused topology or controller
        never keeps wearing a fault or emitting into a finished run's
        stream.

        Degradations act purely through the trace wrapper: the scheduler's
        piecewise integration segments at the window boundaries on its
        own, so no loop events are injected.  A gray failure's brownout
        rides the same machinery on the edge's *access* link (the edge
        keeps serving, slower), so the two compose like any windows.
        """
        windows: list[tuple[SharedLink, tuple[float, float, float]]] = []
        if self.faults is not None:
            windows = [
                (self.edges[d.edge].backhaul, (d.start, d.end, d.factor))
                for d in self.faults.degradations
            ] + [
                (self.edges[g.edge].access, (g.start, g.end, g.capacity_factor))
                for g in self.faults.gray_failures
                if g.capacity_factor != 1.0
            ]
        by_link: dict[int, tuple[SharedLink, list]] = {}
        for link, win in windows:
            by_link.setdefault(id(link), (link, []))[1].append(win)
        for link, wins in by_link.values():
            self.wrapped_links.append((link, link.trace))
            link.trace = DegradedTrace(link.trace, wins)
        tracer = self.tracer
        for e_idx, edge in enumerate(self.edges):
            edge.cache.tracer = tracer
            edge.cache.edge = e_idx
        self.topology.origin.queue.tracer = tracer
        if self.controller is not None:
            self.controller.tracer = tracer
        for sid, s in enumerate(self.sessions):
            tracer.emit(
                s.join_time, EV_SESSION_START, session=sid,
                edge=self.assignment[sid],
            )
        if self.faults is not None:
            self.faults.emit_scheduled(tracer)

    def _unwire(self) -> None:
        for link, orig in self.wrapped_links:
            link.trace = orig
        for edge in self.edges:
            edge.cache.tracer = NULL_TRACER
            edge.cache.edge = None
        self.topology.origin.queue.tracer = NULL_TRACER
        if self.controller is not None:
            self.controller.tracer = NULL_TRACER

    # -- the event loop ----------------------------------------------------

    def run(self) -> None:
        """Drive virtual time event to event until every session ends."""
        sched = self.sched
        try:
            self._wire()
            self._queue_first_requests()
            now = 0.0
            stalled = 0
            while sched.busy() or self.deferred:
                with self.ph_sched:
                    t = self.clock = self._next_instant(now)
                    # advance() returns a materialized completion list, so
                    # the fluid advance (scheduler phase) profiles apart
                    # from the session transitions it unblocks (advance).
                    completions = sched.advance(now, t) if sched.busy() else ()
                if self.metrics is not None:
                    self._count_wake(t, completions)
                with self.ph_advance:
                    parked = [
                        done.flow_id
                        for done in completions
                        if self.on_completion(done)
                    ]
                # Gate, deferred and deadline wakes park no session.
                if parked:
                    with self.ph_planner:
                        self.decide(parked)
                self.apply_outage_bounds(t)
                self.fire_timeouts(t)
                self.sample_and_control(t)
                self.release_deferred(t)
                # Watchdog: `not t > now` also counts a NaN clock.
                stalled = 0 if t > now else stalled + 1
                if stalled > _MAX_STALLED_STEPS:
                    raise RuntimeError(self._stall_dump(stalled, t))
                now = t
        finally:
            self._unwire()
        if self.sampling:
            # Close the monitoring stream so a recovery that completes
            # after the last sample instant is still observed.
            self._sample_health(now)

    def _queue_first_requests(self) -> None:
        """Every session needs its first ABR decision at join time — the
        widest batch of the run (startup-bytes sessions enter via a
        transfer first).  Decisions are pure functions of their context,
        so resolving them all up front is safe; the *requests* they
        unblock go through :meth:`queue`, which holds future-dated ones
        until virtual time catches up."""
        first = []
        for sid, machine in enumerate(self.machines):
            if isinstance(machine.pending, DownloadRequest):
                self.queue(sid, machine.pending)
            elif isinstance(machine.pending, DecisionRequest):
                first.append(sid)
        self.decide(first)

    def _next_instant(self, now: float) -> float:
        """The next instant anything can change: a link allocation, a
        deferred request's start, an outage bound, an armed deadline (a
        stale one may wake the loop spuriously)."""
        events = []
        if self.sched.busy():
            events.append(self.sched.next_event(now))
        if self.deferred:
            events.append(max(self.deferred[0][0], now))
        if self.next_bound < len(self.outage_bounds):
            events.append(max(self.outage_bounds[self.next_bound], now))
        if self.timeout_heap:
            events.append(max(self.timeout_heap[0][0], now))
        return min(events)

    def _count_wake(self, t: float, completions) -> None:
        """Count why the loop woke at ``t``: one ``fleet.wake.*`` reason per
        step, the first that holds (an RTT / encode gate expiring changes
        shares; an armed deadline may be stale; what is left is a trace
        boundary).  Read before this step's stages consume what was due."""
        if completions:
            why = "completion"
        elif self.sched._gate_due(t):
            why = "gate"
        elif self.deferred and self.deferred[0][0] <= t:
            why = "deferred"
        elif self.timeout_heap and self.timeout_heap[0][0] <= t:
            why = "timeout"
        elif (
            self.next_bound < len(self.outage_bounds)
            and self.outage_bounds[self.next_bound] <= t
        ):
            why = "outage_bound"
        else:
            why = "trace"
        self.metrics.counter(f"fleet.wake.{why}").inc()

    def _stall_dump(self, steps: int, t: float) -> str:
        return (
            f"fleet event loop made no progress for {steps} consecutive "
            f"steps at virtual time {t!r}: {self.sched.n_flows} flows in "
            f"flight, deferred head "
            f"{self.deferred[0][:2] if self.deferred else None}, timeout "
            f"head {self.timeout_heap[0] if self.timeout_heap else None}"
        )

    # -- serving -----------------------------------------------------------

    def needs_clock(self, sid: int, req: DownloadRequest) -> bool:
        """Does resolving this request read time-stamped mutable state?

        Only cacheable chunks on an edge with a live cache or behind a
        non-zero encode cost do.  Everything else (startup payloads,
        caching and encoding disabled — :func:`single_link_cdn`) resolves
        the same way at any instant, so it is registered at once as a
        flow gated until its data start: a deferral wake at its request
        instant would split a fluid advance in two and move
        ``simulate_session``'s floats.
        """
        if req.chunk_index is None:
            return False
        edge = self.edges[self.assignment[sid]]
        return (
            edge.cache.capacity_bytes > 0
            or self.topology.origin.encode_seconds > 0.0
        )

    def queue(self, sid: int, req: DownloadRequest) -> None:
        if req.start_time > self.clock and self.needs_clock(sid, req):
            heapq.heappush(self.deferred, (req.start_time, sid, req))
        else:
            self.dispatch(sid, req)

    def dispatch(self, sid: int, req: DownloadRequest) -> None:
        """Route one request at its start instant: an edge hit (one-hop
        access path), a coalesced attach onto an in-flight fill, or an
        origin miss (encode wait, then backhaul + access)."""
        tracer = self.tracer
        edge_idx = self.assignment[sid]
        edge = self.edges[edge_idx]
        key = _chunk_key(req)
        hit = key is not None and edge.cache.lookup(
            key, req.nbytes, req.start_time
        )
        delay = 0.0
        if not hit and key is not None:
            if edge.cache.fill_in_flight(key):
                # Another viewer is already pulling this chunk: coalesce.
                # The request parks until that one backhaul transfer
                # lands, then streams from the edge over the access link.
                edge.cache.attach(key, req.nbytes, at_time=req.start_time)
                self.fill_waiters.setdefault((edge_idx, key), []).append(
                    (sid, req)
                )
                tracer.emit(
                    req.start_time, EV_CHUNK_FETCH, session=sid,
                    route="coalesce", edge=edge_idx, nbytes=req.nbytes,
                )
                return
            # Cold chunk: the origin must hold the encoded variant before
            # the backhaul transfer starts (bounded transcode workers).
            ready = self.topology.origin.variant_ready(key, req.start_time)
            delay = ready - req.start_time
            if edge.cache.capacity_bytes > 0:
                edge.cache.begin_fill(key)
            self.pending_fill[sid] = (edge_idx, key, req.nbytes)
        delay += self._gray_drop(edge_idx, sid, req)
        if hit:
            route, path, kind = "hit", edge.hit_path, _CHARGE_HIT
        else:
            route, path, kind = "origin", edge.miss_path, _CHARGE_ORIGIN
            self.origin_egress += req.nbytes
        self.attempt_serial += 1
        self.live_req[sid] = (req, edge_idx, kind, self.attempt_serial)
        # The last attempt of the retry budget runs untimed: a simulated
        # chunk must eventually deliver (the report records how hard the
        # client fought).
        if self.arm_timeouts and (
            self.rstate.attempts.get(sid, 0) + 1 < self.retry_policy.max_attempts
        ):
            heapq.heappush(
                self.timeout_heap,
                (
                    req.start_time + self.retry_policy.timeout_s, sid,
                    self.attempt_serial,
                ),
            )
        # only an origin fetch reports its start delay
        extra = {} if hit else {"delay": delay}
        tracer.emit(
            req.start_time, EV_CHUNK_FETCH, session=sid,
            route=route, edge=edge_idx, nbytes=req.nbytes, **extra,
        )
        self.sched.add_flow(
            sid, req.nbytes, req.start_time, path, extra_delay=delay
        )

    def _gray_drop(self, edge_idx: int, sid: int, req: DownloadRequest) -> float:
        """Gray-failure bookkeeping for one dispatch; returns the drop delay.

        Bytes count once however many gray windows overlap the instant;
        the deterministic drop draw is per window, and a dropped request
        is modeled as its own retransmit — the transfer starts
        ``drop_delay_s`` late and the attempt counts as failed.
        """
        delay = 0.0
        gbytes = 0
        for g in self.gray_by_edge.get(edge_idx, ()):
            if g.covers(req.start_time):
                gbytes = req.nbytes
                if g.drops(sid, req.start_time):
                    delay += g.drop_delay_s
        self.rstate.gray_bytes += gbytes
        if delay > 0.0:
            attempt = self.rstate.add_attempt(sid)
            self.tracer.emit(
                req.start_time, EV_CHUNK_RETRY, session=sid,
                nbytes=req.nbytes, reason="gray-drop", attempt=attempt,
            )
        return delay

    def on_completion(self, done) -> bool:
        """Resume the session whose transfer finished: land its edge fill,
        close its retry ledger, run its buffer logic forward to the next
        request.  True when the session parked on an ABR decision.

        A completion that lands exactly at its timeout deadline wins:
        completions run before :meth:`fire_timeouts`, and leaving
        ``live_req`` is what makes the armed entry stale.
        """
        sid = done.flow_id
        self.live_req.pop(sid, None)
        fill = self.pending_fill.pop(sid, None)
        if fill is not None:
            self._land_fill(*fill, done.finish_time)
        elapsed = done.elapsed + self.rstate.complete(sid)
        m = self.machines[sid]
        if self.tracer is NULL_TRACER:
            req = m.advance(elapsed)
        else:
            req = self._traced_advance(m, done, elapsed)
        if isinstance(req, DecisionRequest):
            return True
        if req is not None:
            self.queue(sid, req)
        else:
            self.end_times[sid] = done.finish_time
        return False

    def _land_fill(self, edge_idx: int, key: tuple, nbytes: int, t: float) -> None:
        """A backhaul fill landed at ``t``: the chunk now sits at the edge,
        so every request that coalesced onto it streams over the one-hop
        access path, its data gated to the landing instant (the elapsed
        time still counts from its own request)."""
        edge = self.edges[edge_idx]
        edge.cache.insert(key, nbytes, ready=t)
        for wsid, wreq in self.fill_waiters.pop((edge_idx, key), ()):
            self.live_req[wsid] = (wreq, edge_idx, _CHARGE_COALESCED, 0)
            gate = t - (wreq.start_time + edge.hit_path.rtt)
            self.sched.add_flow(
                wsid, wreq.nbytes, wreq.start_time, edge.hit_path,
                extra_delay=max(gate, 0.0),
            )

    def _traced_advance(self, m: SessionMachine, done, elapsed: float):
        """``m.advance(elapsed)`` plus the chunk / session events it
        implies.  Live counters are pure telemetry, so diffing them across
        the transition recovers the chunk record without touching the
        generator's arithmetic."""
        tracer, sid, t = self.tracer, done.flow_id, done.finish_time
        lc0 = m.live_chunks
        lq0 = m.live_quality_sum
        ls0 = m.live_stall
        req = m.advance(elapsed)
        if m.live_chunks > lc0:
            d_stall = m.live_stall - ls0
            tracer.emit(
                t, EV_CHUNK_COMPLETE, session=sid,
                quality=m.live_quality_sum - lq0, stall=d_stall,
                elapsed=elapsed,
            )
            if d_stall > 0.0:
                tracer.emit(t, EV_CHUNK_STALL, session=sid, seconds=d_stall)
        if m.finished:
            assert m.result is not None
            tracer.emit(
                t,
                EV_SESSION_ABANDON if m.result.abandoned else EV_SESSION_FINISH,
                session=sid,
            )
        return req

    def decide(self, ids: list[int]) -> None:
        """Resolve parked ABR decisions, one ``decide_batch`` per shared
        controller, and queue the transfers they unblock.

        The clamp rewrites decisions while a control-plane lever (quality
        cap, SR off) is pulled; while none is, ``clamp=None`` executes the
        exact pre-lever instruction stream.
        """
        levers = self.decision_cap < math.inf or self.sr_disabled
        decided = _batched_decisions(
            self.machines, ids, clamp=self._clamp if levers else None,
            rows_per_call=self.rows_per_call,
        )
        for sid, req in decided:
            self.tracer.emit(
                req.start_time, EV_CHUNK_DECISION, session=sid,
                chunk=req.chunk_index, nbytes=req.nbytes,
            )
            self.queue(sid, req)

    def _clamp(self, d):
        """One ABR decision under the active degradation levers."""
        if d.density > self.decision_cap:
            d = dc_replace(d, density=self.decision_cap)
        if self.sr_disabled and d.sr_ratio != 1.0:
            d = dc_replace(d, sr_ratio=1.0)
        return d

    def release_deferred(self, t: float) -> None:
        """Dispatch deferred requests due by ``t`` — last in the step, so
        a fill that completed *at* t is already inserted and a chunk
        resident at the instant a request goes out counts as a hit
        (``ready <= at_time``)."""
        deferred = self.deferred
        if not deferred or deferred[0][0] > t:
            return
        with self.ph_advance:
            while deferred and deferred[0][0] <= t:
                _, sid, req = heapq.heappop(deferred)
                self.dispatch(sid, req)

    # -- failure handling --------------------------------------------------

    def _unfinished_by_edge(self) -> list[list[int]]:
        """Unfinished session ids per assigned edge, each ascending — the
        load every re-steer balances on and the control plane views."""
        by_edge: list[list[int]] = [[] for _ in self.edges]
        for sid, m in enumerate(self.machines):
            if not m.finished:
                by_edge[self.assignment[sid]].append(sid)
        return by_edge

    def _resteer(
        self, sid: int, from_edge: int, target: int, t: float, reason: str
    ) -> None:
        """Move viewer ``sid`` to edge ``target`` (its in-flight transfer,
        if any, keeps riding the edge it was routed via)."""
        self.tracer.emit(
            t, EV_SESSION_RESTEER, session=sid, reason=reason,
            from_edge=from_edge, to_edge=target,
        )
        self.assignment[sid] = target
        if self.per_edge_sr:
            self.machines[sid].sr_cache = self.edges[target].sr_cache
        self.resteered += 1

    def _cancel(self, sid: int, t: float):
        """Kill ``sid``'s in-flight attempt at ``t``.

        Hands back whatever the attempt was charged at dispatch — origin
        egress, cache hit bytes, or a coalesced attach, plus gray-window
        bytes (coalesced attaches never paid any) — so the re-issued
        attempt, billed on its own dispatch, never counts one delivered
        chunk's bytes twice.  If the attempt was filling an edge cache the
        fill is aborted and the requests parked on it are orphaned (their
        attaches voided too).  Returns ``(request, edge it rode, orphaned
        [(sid, request)])``; the caller re-issues all of them.
        """
        req, edge_idx, kind, _ = self.live_req.pop(sid)
        cache = self.edges[edge_idx].cache
        if kind == _CHARGE_ORIGIN:
            self.origin_egress -= req.nbytes
        elif kind == _CHARGE_HIT:
            cache.void_hit(req.nbytes, at_time=t)
        else:
            cache.void_coalesced(req.nbytes, at_time=t)
        if kind != _CHARGE_COALESCED and any(
            g.covers(req.start_time) for g in self.gray_by_edge.get(edge_idx, ())
        ):
            self.rstate.gray_bytes -= req.nbytes
        self.sched.cancel(sid)
        orphans: list[tuple[int, DownloadRequest]] = []
        fill = self.pending_fill.pop(sid, None)
        if fill is not None:
            cache.abort_fill(fill[1])
            orphans = self.fill_waiters.pop(fill[:2], [])
            for _, wreq in orphans:
                cache.void_coalesced(wreq.nbytes, at_time=t)
        return req, edge_idx, orphans

    def _reissue(
        self, sid: int, req: DownloadRequest, t: float, reason: str,
        backoff: bool = True,
    ) -> None:
        """Put a cancelled request back in play at ``t``.

        A request dated at/after ``t`` never started: it re-runs
        unchanged and nothing failed (``attempt=0``).  One already in
        flight counts a failed attempt and restarts after the retry
        policy's capped exponential backoff (none without a policy, or
        when a hedge races a fresh edge instead of sitting out), carrying
        its sunk time — wait included — in the retry state's offset.
        """
        attempt = 0
        if req.start_time < t:
            attempt = self.rstate.add_attempt(sid)
            delay = (
                self.retry_policy.backoff(attempt)
                if backoff and self.retry_policy is not None
                else 0.0
            )
            self.rstate.offset[sid] = self.rstate.offset.get(sid, 0.0) + (
                t + delay - req.start_time
            )
            req = dc_replace(req, start_time=t + delay)
        self.tracer.emit(
            t, EV_CHUNK_RETRY, session=sid, nbytes=req.nbytes,
            reason=reason, attempt=attempt,
        )
        self.queue(sid, req)

    def apply_outage_bounds(self, t: float) -> None:
        """Cross every outage boundary due by ``t``: recompute which edges
        are dark and evacuate the ones that just went down."""
        bounds = self.outage_bounds
        if self.next_bound >= len(bounds) or bounds[self.next_bound] > t:
            return
        with self.ph_control:
            while self.next_bound < len(bounds) and bounds[self.next_bound] <= t:
                tb = bounds[self.next_bound]
                self.next_bound += 1
                newly_down = []
                for e in range(len(self.edges)):
                    down = any(
                        e2 == e and s <= tb < end
                        for e2, s, end in self.outage_spans
                    )
                    if down and not self.edge_down[e]:
                        newly_down.append(e)
                    self.edge_down[e] = down
                for e in newly_down:
                    self.evacuate(e, t)

    def evacuate(self, edge_idx: int, t: float) -> None:
        """Fail edge ``edge_idx`` over at instant ``t``: cancel the
        transfers riding it, re-steer its viewers to the least-loaded live
        edges, restart its cache cold, re-issue the cancelled requests
        against each session's new edge."""
        edge = self.edges[edge_idx]
        # Outstanding work riding the dead edge (by the edge each flow was
        # routed via), captured before any re-assignment; coalesced
        # waiters come back as orphans of the fills they were parked on.
        riding = sorted(
            sid for sid, live in self.live_req.items() if live[1] == edge_idx
        )
        cancelled = []
        for sid in riding:
            req, _, orphans = self._cancel(sid, t)
            cancelled.append((sid, req))
            cancelled.extend(orphans)
        self.tracer.emit(
            t, EV_OUTAGE_EVACUATE, edge=edge_idx, cancelled=len(cancelled)
        )
        # Viewers whose join still lies beyond the end of this outage
        # (chained across back-to-back outage spans on the edge) will
        # find it healthy again — failing them over now would permanently
        # strand them on another edge for no reason.  Spans already fold
        # RegionOutage events through the topology's fault domains.
        until = t
        for e2, start, end in self.outage_spans:
            if e2 == edge_idx and start <= until:
                until = max(until, end)
        live = [e for e in range(len(self.edges)) if not self.edge_down[e]]
        by_edge = self._unfinished_by_edge()
        load = [len(ids) for ids in by_edge]
        for sid in by_edge[edge_idx]:
            if self.sessions[sid].join_time >= until:
                continue
            target = min(live, key=lambda e: (load[e], e))
            load[edge_idx] -= 1
            load[target] += 1
            self._resteer(sid, edge_idx, target, t, "outage")
        # A restarted edge comes back cold: drop contents and in-flight
        # fill markers (their backhaul transfers were just cancelled).
        edge.cache.drop_all()
        for sid, req in sorted(cancelled):
            self._reissue(sid, req, t, "outage")

    def fire_timeouts(self, t: float) -> None:
        """Cancel and re-issue every attempt whose armed deadline is due.

        Completions at the same instant already left ``live_req``
        (completion-at-deadline wins), as did anything an outage bound at
        ``t`` evacuated, so their entries are stale here.
        """
        heap = self.timeout_heap
        if not heap or heap[0][0] > t:
            return
        policy = self.retry_policy
        with self.ph_control:
            fired: list[int] = []
            while heap and heap[0][0] <= t:
                _, sid, serial = heapq.heappop(heap)
                live = self.live_req.get(sid)
                if live is not None and live[3] == serial:
                    fired.append(sid)
            for sid in fired:
                req, edge_idx, orphans = self._cancel(sid, t)
                # Requests coalesced onto the aborted fill retry on their
                # own, each paying its own backoff.
                for wsid, wreq in orphans:
                    self._reissue(wsid, wreq, t, "fill-aborted")
                self.rstate.timed_out += 1
                self.tracer.emit(
                    t, EV_RETRY_TIMEOUT, session=sid, edge=edge_idx,
                    nbytes=req.nbytes,
                )
                hedged = policy.hedge and self._hedge(sid, edge_idx, t)
                self._reissue(sid, req, t, "timeout", backoff=not hedged)

    def _hedge(self, sid: int, edge_idx: int, t: float) -> bool:
        """Re-steer a timed-out viewer to the least-loaded *other* live
        edge; False when there is none.  The retry then skips its backoff
        (the point of a hedge is to race a fresh path, not to sit out)."""
        candidates = [
            e for e in range(len(self.edges))
            if e != edge_idx and not self.edge_down[e]
        ]
        if not candidates:
            return False
        by_edge = self._unfinished_by_edge()
        target = min(candidates, key=lambda e: (len(by_edge[e]), e))
        self._resteer(sid, edge_idx, target, t, "hedge")
        self.rstate.hedged += 1
        self.tracer.emit(t, EV_RETRY_HEDGE, session=sid, edge=target)
        return True

    # -- monitoring and control --------------------------------------------

    def sample_and_control(self, t: float) -> None:
        """Interval health sample, metrics, and the control plane's tick.

        Control ticks piggyback on instants the loop already wakes at —
        never injected — so pure monitoring cannot split a fluid advance
        interval (the bit-exactness of the disabled / no-op
        configurations rests on this).
        """
        if not self.sampling or t < self.next_sample:
            return
        with self.ph_control:
            health = self._sample_health(t)
            if self.metrics is not None:
                self._record_metrics(t)
            if self.controller is not None:
                self._control_tick(t, health)
            self.next_sample = (
                math.floor(t / self.sample_interval) + 1
            ) * self.sample_interval

    def _sample_health(self, t: float) -> float | None:
        """Feed the fleet-wide and per fault domain recovery trackers one
        health sample over the interval ending at ``t``; returns the
        fleet-wide one.  Live counters are summed in ascending session id
        order (regions over each session's *home* region)."""
        chunks = 0
        qsum = 0.0
        stall = 0.0
        for m in self.machines:
            chunks += m.live_chunks
            qsum += m.live_quality_sum
            stall += m.live_stall
        health = self.sampler.health_sample(t, chunks, qsum, stall)
        if self.tracker is not None and health is not None:
            self.tracker.sample(t, health)
        if self.region_track:
            totals = {name: (0, 0.0, 0.0) for name in self.region_track}
            for sid, name in enumerate(self.region_home):
                if name is None:
                    continue
                m = self.machines[sid]
                c, q, s = totals[name]
                totals[name] = (
                    c + m.live_chunks,
                    q + m.live_quality_sum,
                    s + m.live_stall,
                )
            for name, (rsampler, rtracker) in self.region_track.items():
                rh = rsampler.health_sample(t, *totals[name])
                if rh is not None:
                    rtracker.sample(t, rh)
        return health

    def _record_metrics(self, t: float) -> None:
        metrics = self.metrics
        active = 0
        buf_sum = 0.0
        for m in self.machines:
            if not m.finished:
                active += 1
                buf_sum += m.live_buffer_level
        metrics.timeseries("fleet.active_sessions").record(t, active)
        metrics.timeseries("fleet.buffer_level").record(
            t, buf_sum / active if active else 0.0
        )
        for e, ids in enumerate(self._unfinished_by_edge()):
            metrics.timeseries(f"edge.load.{e}").record(t, len(ids))
        oqueue = self.topology.origin.queue
        metrics.timeseries("origin.encode_busy").record(t, oqueue.busy_at(t))
        metrics.gauge("origin.encode_workers").set(oqueue.n_workers)

    def _control_tick(self, t: float, health: float | None) -> None:
        """Show the control plane a :class:`FleetView`; apply its actions."""
        oqueue = self.topology.origin.queue
        regions = self.topology.regions
        by_edge = self._unfinished_by_edge()
        new_waits = tuple(oqueue.waits[self.encode_waits_seen:])
        self.encode_waits_seen = len(oqueue.waits)
        regions_dark = (
            tuple(
                name
                for name in sorted(regions)
                if all(self.edge_down[e] for e in regions[name])
            )
            if regions
            else ()
        )
        actions = self.controller.tick(
            FleetView(
                now=t,
                edge_load=tuple(len(ids) for ids in by_edge),
                edge_down=tuple(self.edge_down),
                sessions_by_edge={
                    e: tuple(ids) for e, ids in enumerate(by_edge)
                },
                encode_waits=new_waits,
                encode_workers=oqueue.n_workers,
                health=health,
                regions_dark=regions_dark,
            )
        )
        if actions.encode_workers is not None:
            oqueue.resize(actions.encode_workers, at_time=t)
        for sid, target in actions.resteer:
            if self.machines[sid].finished or self.edge_down[target]:
                continue
            self._resteer(sid, self.assignment[sid], target, t, "control")
        if actions.quality_cap is not None:
            self.decision_cap = actions.quality_cap
        if actions.sr_enabled is not None:
            self.sr_disabled = not actions.sr_enabled

    # -- the report --------------------------------------------------------

    def report(self) -> FleetResult:
        """The finished run's result: per-session outcomes and the
        :class:`FleetReport` read off them and the live topology."""
        results = [m.result for m in self.machines]
        assert all(
            r is not None for r in results
        ), "fleet left unfinished sessions"
        assert not self.fill_waiters, "fleet left coalesced requests waiting"
        controller, rstate, edges = self.controller, self.rstate, self.edges
        if controller is not None and controller.autoscaler is not None:
            controller.autoscaler.finish()
        dip, recover = (
            self.tracker.metrics() if self.tracker is not None else (0.0, 0.0)
        )
        sr_cache = self.spec.sr_cache
        if self.per_edge_sr:
            sr_hits = sum(e.sr_cache.hits for e in edges)
            sr_misses = sum(e.sr_cache.misses for e in edges)
            sr_cache = None
        else:
            sr_hits = sr_cache.hits if sr_cache is not None else 0
            sr_misses = sr_cache.misses if sr_cache is not None else 0
        sr_total = sr_hits + sr_misses
        qoe = aggregate_qoe(
            [r.qoe for r in results],
            [r.stall_seconds for r in results],
            [r.watched_seconds for r in results],
        )
        n_abandoned = sum(1 for r in results if r.abandoned)
        lookups = sum(e.cache.hits + e.cache.misses for e in edges)
        oqueue = self.topology.origin.queue
        report = FleetReport(
            n_sessions=len(results),
            mean_qoe=qoe["mean_qoe"],
            p5_qoe=qoe["p5_qoe"],
            p95_qoe=qoe["p95_qoe"],
            stall_ratio=qoe["stall_ratio"],
            total_stall_seconds=qoe["total_stall_seconds"],
            total_bytes=sum(r.total_bytes for r in results),
            mean_quality=sum(r.mean_quality for r in results) / len(results),
            cache_hit_rate=sr_hits / sr_total if sr_total else 0.0,
            makespan=(
                max(self.end_times) - min(s.join_time for s in self.sessions)
            ),
            n_abandoned=n_abandoned,
            abandon_rate=n_abandoned / len(results),
            sr_edge_hit_rates=(
                tuple(e.sr_cache.hit_rate for e in edges)
                if self.per_edge_sr
                else ()
            ),
            origin_egress_bytes=self.origin_egress,
            coalesced_fills=sum(e.cache.coalesced for e in edges),
            coalesced_bytes=sum(e.cache.coalesced_bytes for e in edges),
            edge_hit_rate=(
                sum(e.cache.hits for e in edges) / lookups if lookups else 0.0
            ),
            edge_hit_rates=tuple(e.cache.hit_rate for e in edges),
            encode_wait_p50=oqueue.wait_percentile(50.0),
            encode_wait_p95=oqueue.wait_percentile(95.0),
            sessions_resteered=self.resteered,
            faults_injected=len(self.faults) if self.faults is not None else 0,
            control_ticks=(
                controller.ticks - self.ticks0 if controller is not None else 0
            ),
            encode_pool_resizes=(
                controller.encode_resizes - self.resizes0
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
                (name, *self.region_track[name][1].metrics())
                for name in sorted(self.region_track)
            ),
            encode_core_seconds=oqueue.busy_seconds,
        )
        return FleetResult(
            sessions=results,
            report=report,
            sr_cache=sr_cache,
            session_specs=list(self.sessions),
            topology=self.topology,
            assignment=self.assignment,
            end_times=self.end_times,
        )


def simulate_fleet(
    sessions: list[FleetSession],
    spec: FleetSpec | None = None,
    **fields,
) -> FleetResult:
    """Run a fleet of sessions over a shared serving topology.

    Configuration is a :class:`~repro.streaming.spec.FleetSpec` — pass one
    as ``spec=``, or its fields as keywords (forwarded verbatim to
    ``FleetSpec(**fields)``; mixing the two forms is rejected).  Every
    field's semantics are documented there.  A topology handed in is
    reset to its as-constructed state first, so reusing one across runs
    measures each run from cold.

    **The event loop.**  Virtual time advances event to event.  Each step
    picks the next instant anything can change — a link's fluid
    allocation, a deferred request's start, an outage boundary, an armed
    retry deadline — advances every in-flight download to it, and then
    runs six stages *in this order*, which is also the tie-break between
    things that happen at the same instant:

    1. **completions** — each finished transfer lands its edge-cache fill
       (releasing requests coalesced onto it) and resumes its session's
       buffer/ABR logic until the session suspends on its next request.
       First, so a completion that lands exactly at its retry deadline or
       at an outage boundary counts as delivered, not cancelled.
    2. **decisions** — sessions parked on an ABR decision are resolved
       together, one vectorized ``decide_batch`` per shared controller
       (decisions are pure functions of their context, so batching cannot
       change an outcome), and the transfers they unblock are queued.
    3. **outage bounds** — edges that just went dark are evacuated: their
       in-flight transfers cancelled and credited back, their viewers
       re-steered to the least-loaded live edge, their cache restarted
       cold, the cancelled requests re-issued.  Before timeouts, so an
       attempt an outage already killed is not also counted as timed out.
    4. **timeouts** — armed deadlines due now cancel their attempt and
       re-issue it after backoff (or hedged to another edge).
    5. **sample / control** — on the control cadence, a health sample
       feeds the recovery trackers and metrics and the control plane
       ticks on a view of the fleet.  Ticks piggyback on instants the
       loop already wakes at — never injected — so monitoring alone
       cannot split a fluid advance interval (why the disabled and no-op
       configurations are bit-exact).  After the failure stages, so the
       controller sees the post-failover assignment.
    6. **deferred release** — cache- or encode-bound requests dated in
       the future (joins, buffer-headroom waits) are dispatched once
       virtual time reaches them.  Last, so a fill that completed *at*
       this instant is already resident and the request counts as a hit.

    Cache lookups and encode reservations are stateful and time-stamped,
    which is why a future-dated request must wait in the deferred heap
    rather than consult them early.  Everything is deterministic: the
    scheduler resolves simultaneous completions by session id.  A
    watchdog raises ``RuntimeError`` with a state dump if virtual time
    stops advancing, so a degenerate input cannot hang the loop silently.
    """
    spec = FleetSpec.resolve(spec, fields)
    run = _FleetRun(sessions, spec)
    run.run()
    result = run.report()
    if spec.cost_model is not None:
        from .cost import attach_cost

        result = attach_cost(result, spec.cost_model)
    return result
