"""Process-parallel fleet sharding: partition a CDN by edge, run shards
concurrently, merge one :class:`~repro.streaming.fleet.FleetReport`.

The vectorized event engine (PR 4) and the batched decision pass still
run one Python process; past a few thousand viewers the single process
is the ceiling the ROADMAP names.  This module pulls the first
scale-out lever: a :class:`~repro.streaming.cdn.CDNTopology` is
*edge-partitionable* — each viewer's flows touch only its own edge's
access and backhaul links, so a worker that owns a disjoint set of edges
(with their viewers, chunk caches, and per-edge SR caches) can drive its
own :class:`~repro.net.topology.PathScheduler` with no communication
until the final merge:

* :func:`partition_topology` plans the split — edges balanced across
  shards by assigned viewer count (deterministic greedy, ties by edge
  index) and the origin's encode workers divided among shards;
* :func:`shard_fleet` executes the plan — each shard is the same run
  object :func:`~repro.streaming.fleet.simulate_fleet` drives, over a
  deep-copied sub-topology, in a ``concurrent.futures`` process pool
  (it hands back the aggregates its report was built from, so nothing
  is re-derived here) — and merges the per-shard outcomes into one
  :class:`~repro.streaming.fleet.FleetResult` whose aggregates (origin
  egress, per-edge hit rates, encode-wait percentiles, abandon rate,
  makespan) are computed over the union exactly as the single-process
  path computes them.

**The origin-partitioning approximation.**  Edges never interact through
links (each edge owns its backhaul), but cold misses from *all* edges
contend for the origin's bounded encode pool.  Sharding partitions that
pool: a shard's cold misses queue only behind its own shard's, and each
(video, chunk, density) variant is encoded once *per shard that needs
it* rather than once globally.  With ``workers=1`` the partition is the
whole pool and ``shard_fleet`` is **bit-exact** with ``simulate_fleet``
(enforced by the hypothesis parity grid in
``tests/streaming/test_shard.py`` — the shard executor's entry in the
oracle-parity convention alongside kNN backends, the vectorized MPC,
and ``PathScheduler`` vs its ``tests/net`` reference).  Likewise, a plain shared
:class:`~repro.streaming.fleet.SRResultCache` cannot span processes, so
multi-worker runs copy it per shard; pass ``sr_cache="per-edge"`` (the
recommended sharded configuration) and the partition is lossless —
every SR share that a per-edge cache would have served still happens.

Everything is deterministic given (sessions, topology, workers):
the plan is a pure function of its inputs, shards are merged in shard
order, and each shard is itself a deterministic simulation.
"""

from __future__ import annotations

import copy
import multiprocessing
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace as dc_replace

from ..obs import Telemetry
from .cdn import CDNTopology, OriginServer
from .faults import (
    BackhaulDegradation,
    FaultSchedule,
    GrayFailure,
    RegionOutage,
    RetryPolicy,
)
from .fleet import (
    FleetResult,
    FleetSession,
    OpsStats,
    SRResultCache,
    _FleetRun,
    _RunAggregates,
    build_fleet_report,
)
from .simulator import SessionResult
from .spec import FleetSpec

__all__ = [
    "Shard",
    "ShardPlan",
    "partition_topology",
    "shard_fleet",
]


@dataclass(frozen=True)
class Shard:
    """One worker's slice of the fleet: edges, viewers, encode share."""

    index: int
    #: global edge indices this shard owns (ascending)
    edge_indices: tuple[int, ...]
    #: global session indices this shard simulates (ascending — original
    #: relative order, so per-shard event tie-breaks match the
    #: single-process scheduler)
    session_indices: tuple[int, ...]
    #: this shard's slice of the origin's encode worker pool
    n_encode_workers: int


@dataclass(frozen=True)
class ShardPlan:
    """The deterministic partition :func:`shard_fleet` executes."""

    shards: tuple[Shard, ...]
    #: global viewer → edge assignment (computed once, over the full
    #: session list, so policies that hash the viewer's position agree
    #: with the unsharded run)
    assignment: tuple[int, ...]

    @property
    def n_shards(self) -> int:
        return len(self.shards)


def partition_topology(
    topology: CDNTopology,
    sessions: list[FleetSession],
    workers: int,
    *,
    assignment: list[int] | None = None,
) -> ShardPlan:
    """Partition a topology's edges (and their viewers) across workers.

    Edges are dealt to shards by a deterministic greedy balance on
    assigned viewer count (heaviest edge first; ties broken by edge
    index, shards by current load then shard index).  ``workers`` is
    capped at the edge count — an edge is the unit of isolation and
    cannot be split.  The origin's encode workers are divided as evenly
    as possible, every shard keeping at least one.  ``workers`` must be
    an integer >= 1 (``bool``, ``2.5``, NaN and ``inf`` are refused).
    """
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    if not sessions:
        raise ValueError("fleet needs at least one session")
    if assignment is None:
        assignment = topology.assign(sessions)
    elif len(assignment) != len(sessions):
        raise ValueError(
            f"assignment names {len(assignment)} sessions, "
            f"fleet has {len(sessions)}"
        )
    n_edges = len(topology.edges)
    if any(not 0 <= e < n_edges for e in assignment):
        raise ValueError(f"assignment edge indices must be in [0, {n_edges})")
    n_shards = min(workers, n_edges)

    edge_load = [0] * n_edges
    for e in assignment:
        edge_load[e] += 1
    shard_edges: list[list[int]] = [[] for _ in range(n_shards)]
    shard_load = [0] * n_shards
    # Ties prefer the shard holding fewer edges, so zero-viewer edges
    # spread out instead of piling onto one shard — and, because an
    # edgeless shard always wins the tie, every shard ends up owning at
    # least one edge (n_shards is capped at the edge count above).
    for e in sorted(range(n_edges), key=lambda e: (-edge_load[e], e)):
        s = min(
            range(n_shards),
            key=lambda s: (shard_load[s], len(shard_edges[s]), s),
        )
        shard_edges[s].append(e)
        shard_load[s] += edge_load[e]

    by_edge: dict[int, int] = {}
    for s, edges in enumerate(shard_edges):
        edges.sort()
        for e in edges:
            by_edge[e] = s
    shard_sessions: list[list[int]] = [[] for _ in range(n_shards)]
    for sid, e in enumerate(assignment):
        shard_sessions[by_edge[e]].append(sid)

    pool = topology.origin.queue.n_workers
    base, extra = divmod(pool, n_shards)
    encode_share = [max(1, base + (1 if s < extra else 0)) for s in range(n_shards)]

    shards = tuple(
        Shard(
            index=s,
            edge_indices=tuple(shard_edges[s]),
            session_indices=tuple(shard_sessions[s]),
            n_encode_workers=encode_share[s],
        )
        for s in range(n_shards)
    )
    return ShardPlan(shards=shards, assignment=tuple(assignment))


@dataclass
class _ShardTask:
    """Everything one worker process needs (picklable, self-contained)."""

    shard: Shard
    sessions: list[FleetSession]
    topology: CDNTopology
    #: session → *local* edge index, shard session order
    assignment: list[int]
    sr_cache: SRResultCache | str | None
    #: this shard's slice of the fault schedule, edges re-indexed to the
    #: sub-topology (backhaul degradations, gray failures, and region
    #: outages whose fault domain the shard wholly owns)
    faults: FaultSchedule | None = None
    #: client resilience policy, forwarded verbatim to every shard
    retry_policy: RetryPolicy | None = None
    #: collect a shard-tagged event stream / phase-profiler totals for
    #: the caller's telemetry (metrics registries stay per-process and
    #: are not merged)
    trace: bool = False
    profile: bool = False


@dataclass
class _ShardOutcome:
    """What one worker sends back to the merge (picklable)."""

    shard_index: int
    #: per-session outcomes, shard session order
    results: list[SessionResult]
    end_times: list[float]
    #: session → *local* edge index after the run — differs from the
    #: task's assignment when an in-shard region outage evacuated viewers
    final_assignment: tuple[int, ...]
    #: the run's report aggregates, per-edge fields in *local* edge order
    #: (zeros, plus the owned fault count, for a viewer-less shard)
    agg: _RunAggregates
    #: shard-tagged trace events, session/edge ids rewritten to global
    #: indices (empty unless the task asked for tracing)
    events: list = field(default_factory=list)
    #: wall-clock phase profiler totals/counts of this shard's run
    phase_totals: dict = field(default_factory=dict)
    phase_counts: dict = field(default_factory=dict)


#: event-data keys naming an edge index (rewritten local → global when a
#: shard's stream is handed back to the merge)
_EDGE_DATA_KEYS = ("edge", "from_edge", "to_edge")


def _globalize_events(events, task: _ShardTask) -> list:
    """Rewrite a shard stream's local session/edge ids to global indices.

    A shard simulates its sessions as ``0..n-1`` over a sub-topology
    whose edges are renumbered from zero; the merged trace must speak
    the caller's indices or two shards' ``session 0`` collide.
    """
    sids = task.shard.session_indices
    edges = task.shard.edge_indices
    for ev in events:
        if ev.session is not None:
            ev.session = sids[ev.session]
        if ev.data:
            for key in _EDGE_DATA_KEYS:
                local = ev.data.get(key)
                if local is not None:
                    ev.data[key] = edges[local]
    return events


def _run_shard(task: _ShardTask) -> _ShardOutcome:
    """Simulate one shard; runs in a worker process (or inline)."""
    telemetry = None
    if task.trace or task.profile:
        telemetry = Telemetry(
            trace=task.trace, metrics=False, profile=task.profile,
            shard=task.shard.index,
        )
    run = _FleetRun(
        task.sessions,
        FleetSpec(
            topology=task.topology,
            sr_cache=task.sr_cache,
            assignment=task.assignment,
            faults=task.faults,
            retry_policy=task.retry_policy,
            telemetry=telemetry,
        ),
    )
    run.run()
    result, agg = run.report()
    tracer = telemetry.tracer if telemetry is not None else None
    profiler = telemetry.profiler if telemetry is not None else None
    return _ShardOutcome(
        shard_index=task.shard.index,
        results=result.sessions,
        end_times=result.end_times,
        final_assignment=tuple(result.assignment),
        agg=agg,
        events=(
            _globalize_events(tracer.events, task) if tracer is not None else []
        ),
        phase_totals=dict(profiler.totals) if profiler is not None else {},
        phase_counts=dict(profiler.counts) if profiler is not None else {},
    )


def _make_task(
    shard: Shard,
    sessions: list[FleetSession],
    topology: CDNTopology,
    plan: ShardPlan,
    sr_cache: SRResultCache | str | None,
    *,
    copy_sr: bool,
    faults: FaultSchedule | None = None,
    retry_policy: RetryPolicy | None = None,
    trace: bool = False,
    profile: bool = False,
) -> _ShardTask:
    """Materialize one shard's task: sub-topology, sub-fleet, local map.

    The caller's topology is never mutated: each shard deep-copies the
    edges it owns and builds a fresh origin holding its slice of the
    encode pool.  All run statistics come back in the outcome.  The
    fault schedule is sliced to the events on owned edges, re-indexed to
    the sub-topology; a region outage rides along when the shard owns
    its whole fault domain (``shard_fleet`` rejected it otherwise), with
    the domain itself re-indexed into the sub-topology's ``regions``.
    """
    local_edge = {e: i for i, e in enumerate(shard.edge_indices)}
    sub_faults = None
    if faults is not None:
        owned = []
        for ev in faults.events:
            edge = getattr(ev, "edge", None)
            if edge is not None:
                if edge in local_edge:
                    owned.append(dc_replace(ev, edge=local_edge[edge]))
            elif isinstance(ev, RegionOutage):
                members = (topology.regions or {}).get(ev.region, ())
                if members and all(e in local_edge for e in members):
                    owned.append(ev)
        if owned:
            sub_faults = FaultSchedule(tuple(owned))
    sub_regions = None
    if topology.regions:
        # Only fault domains the shard wholly owns survive the cut — a
        # region split across shards cannot host a region outage (the
        # entry point rejects that) and contributes no recovery metrics.
        contained = {
            name: tuple(local_edge[e] for e in members)
            for name, members in topology.regions.items()
            if all(e in local_edge for e in members)
        }
        sub_regions = contained or None
    sub_topology = CDNTopology(
        edges=tuple(copy.deepcopy(topology.edges[e]) for e in shard.edge_indices),
        origin=OriginServer(
            n_encode_workers=shard.n_encode_workers,
            encode_seconds=topology.origin.encode_seconds,
        ),
        assignment=topology.assignment,
        regions=sub_regions,
    )
    cache: SRResultCache | str | None = sr_cache
    if copy_sr and isinstance(sr_cache, SRResultCache):
        cache = copy.deepcopy(sr_cache)
        # The copy keeps the caller's cached results but must report only
        # this run's traffic — summing N copies of pre-existing counters
        # in the merge would count the caller's history once per shard.
        cache.hits = 0
        cache.misses = 0
    return _ShardTask(
        shard=shard,
        sessions=[sessions[i] for i in shard.session_indices],
        topology=sub_topology,
        assignment=[local_edge[plan.assignment[i]] for i in shard.session_indices],
        sr_cache=cache,
        faults=sub_faults,
        retry_policy=retry_policy,
        trace=trace,
        profile=profile,
    )


def _empty_outcome(shard: Shard, task: _ShardTask) -> _ShardOutcome:
    """A viewer-less shard: nothing ran, every statistic is zero.

    Fault events owned by the shard still count as injected — a
    degradation on a viewerless edge has no observable effect, but
    ``simulate_fleet`` reports every scheduled event and the merged
    count must match it.
    """
    n = len(shard.edge_indices)
    return _ShardOutcome(
        shard_index=shard.index,
        results=[],
        end_times=[],
        final_assignment=(),
        agg=_RunAggregates(
            origin_egress=0,
            edge_stats=[(0, 0, 0, 0)] * n,
            edge_hit_rates=(0.0,) * n,
            encode_waits=[],
            sr_hits=0,
            sr_misses=0,
            sr_edge_hit_rates=(
                (0.0,) * n if task.sr_cache == "per-edge" else ()
            ),
            encode_core_seconds=0.0,
            ops=OpsStats(
                faults_injected=(
                    len(task.faults) if task.faults is not None else 0
                )
            ),
        ),
    )


def shard_fleet(
    sessions: list[FleetSession],
    spec: FleetSpec | None = None,
    *,
    workers: int = 1,
    **fields,
) -> FleetResult:
    """Run a fleet over a CDN, sharded across worker processes.

    The public entry point of the sharded executor; accepts the same
    fleet and topology :func:`~repro.streaming.fleet.simulate_fleet`
    takes plus ``workers`` (an integer >= 1, capped at the edge count —
    a :func:`~repro.streaming.cdn.single_link_cdn` is one shard).
    ``workers=1`` runs the one shard inline and is bit-exact with
    ``simulate_fleet``; more workers run one OS process per shard (see
    the module docstring for the origin and SR-cache partitioning
    semantics).  Workers start by ``fork`` where available, else the
    platform default — ``fork`` skips re-importing the scientific stack
    in every worker.

    The fleet configuration is a :class:`~repro.streaming.spec.FleetSpec`,
    passed as ``spec=`` or as field keywords forwarded verbatim to
    ``FleetSpec(**fields)`` exactly like ``simulate_fleet``; ``workers``
    is a plain keyword either way.  ``cost_model`` prices the merged run
    and attaches a :class:`~repro.streaming.cost.CostReport` to
    ``report.cost``, with encode core-seconds summed across the shards'
    partitioned pools.

    Unlike ``simulate_fleet``, the caller's ``topology`` is left
    untouched (workers mutate private copies), so every statistic must
    be read from the returned report rather than the topology's caches.

    ``faults`` accepts *shardable* schedules — backhaul degradations and
    gray failures, which touch one edge's private links and serialize
    cleanly into each shard's plan — plus region outages whose whole
    fault domain lands inside one shard that also owns a fallback edge
    outside the region (the failover then stays shard-local).  Edge
    outages, flash crowds, and cross-shard regions move viewers between
    shards, which the partition cannot represent; they are rejected
    explicitly rather than silently approximated — run those through
    ``simulate_fleet``.  ``retry_policy`` is forwarded verbatim to every
    shard (timeout retries and hedges act within a shard's edges).

    ``telemetry`` threads the observability stack through the shards:
    each worker runs its own shard-tagged
    :class:`~repro.obs.events.Tracer` and
    :class:`~repro.obs.profiler.PhaseProfiler` (mirroring whichever of
    the caller's layers are enabled), and the merge rewrites local
    session/edge ids to global indices, absorbs the streams in
    virtual-time order, and sums the phase totals.  The metrics layer
    is per-process ring buffers and is *not* merged — a sharded run
    leaves the caller's registry untouched.
    """
    if not sessions:
        raise ValueError("fleet needs at least one session")
    spec = FleetSpec.resolve(spec, fields)
    if spec.controller is not None:
        raise ValueError(
            "shard_fleet does not support a control plane (control "
            "actions are fleet-global); run controllers through "
            "simulate_fleet"
        )
    spec.validate()
    topology = spec.topology
    sr_cache = spec.sr_cache
    assignment = spec.assignment
    faults = spec.faults
    retry_policy = spec.retry_policy
    telemetry = spec.telemetry
    region_events: list[RegionOutage] = []
    if faults is not None:
        region_events = [
            ev for ev in faults.events if isinstance(ev, RegionOutage)
        ]
        if any(
            not isinstance(
                ev, (BackhaulDegradation, GrayFailure, RegionOutage)
            )
            for ev in faults.events
        ):
            raise ValueError(
                "shard_fleet only accepts shardable fault schedules "
                "(backhaul degradations, gray failures) plus region "
                "outages contained in one shard; edge outages and flash "
                "crowds re-steer viewers across shard boundaries — run "
                "them through simulate_fleet"
            )
        faults.validate_topology(len(topology.edges), topology.regions)
    plan = partition_topology(topology, sessions, workers, assignment=assignment)
    if region_events:
        # A region outage shards only when one worker owns its whole
        # fault domain *and* a live fallback edge outside it — failover
        # must stay shard-local, and a shard that is all dark region has
        # nowhere to evacuate to.
        owner_of = {
            e: s.index for s in plan.shards for e in s.edge_indices
        }
        regions = topology.regions or {}
        for ev in region_events:
            members = regions[ev.region]
            owners = {owner_of[e] for e in members}
            if len(owners) > 1:
                raise ValueError(
                    f"region outage {ev.region!r} spans shards "
                    f"{sorted(owners)} under workers={workers}; a region "
                    "outage shards only when one worker owns the whole "
                    "fault domain — lower workers or run through "
                    "simulate_fleet"
                )
            shard = plan.shards[owners.pop()]
            if all(e in members for e in shard.edge_indices):
                raise ValueError(
                    f"region outage {ev.region!r} covers every edge of "
                    f"shard {shard.index}; the owning shard needs a "
                    "fallback edge outside the region — repartition or "
                    "run through simulate_fleet"
                )
    copy_sr = plan.n_shards > 1
    trace = telemetry is not None and telemetry.tracer is not None
    profile = telemetry is not None and telemetry.profiler is not None
    tasks = [
        _make_task(
            shard, sessions, topology, plan, sr_cache,
            copy_sr=copy_sr, faults=faults, retry_policy=retry_policy,
            trace=trace, profile=profile,
        )
        for shard in plan.shards
    ]
    live = [t for t in tasks if t.sessions]
    if plan.n_shards == 1:
        outcomes = [_run_shard(tasks[0])]
    else:
        start_method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else multiprocessing.get_start_method()
        )
        ctx = multiprocessing.get_context(start_method)
        max_workers = min(len(live), os.cpu_count() or 1) or 1
        with ProcessPoolExecutor(max_workers=max_workers, mp_context=ctx) as pool:
            ran = list(pool.map(_run_shard, live))
        by_index = {o.shard_index: o for o in ran}
        outcomes = [
            by_index.get(t.shard.index) or _empty_outcome(t.shard, t)
            for t in tasks
        ]
    if trace:
        telemetry.tracer.absorb([o.events for o in outcomes])
    if profile:
        for o in outcomes:
            for name, seconds in o.phase_totals.items():
                telemetry.profiler.add(
                    name, seconds, calls=o.phase_counts.get(name, 1)
                )
    result = _merge(outcomes, plan, sessions, topology, sr_cache)
    if spec.cost_model is not None:
        from .cost import attach_cost

        result = attach_cost(result, spec.cost_model)
    return result


def _merge(
    outcomes: list[_ShardOutcome],
    plan: ShardPlan,
    sessions: list[FleetSession],
    topology: CDNTopology,
    sr_cache: SRResultCache | str | None,
) -> FleetResult:
    """Fold per-shard outcomes into one fleet-level result.

    Per-session and per-edge data are scattered back to original order,
    then the report comes from the same
    :func:`~repro.streaming.fleet.build_fleet_report` the single-process
    path uses — one aggregation rulebook, so the ``workers=1`` path
    reproduces its numbers bit for bit.
    """
    results: list[SessionResult | None] = [None] * len(sessions)
    end_times: list[float] = [0.0] * len(sessions)
    # Start from the plan; in-shard evacuations overwrite below.
    assignment = list(plan.assignment)
    n_edges = len(topology.edges)
    per_edge_sr = sr_cache == "per-edge"
    edge_stats = [(0, 0, 0, 0)] * n_edges
    edge_hit_rates = [0.0] * n_edges
    sr_edge_hit_rates = [0.0] * n_edges if per_edge_sr else []
    encode_waits: list[float] = []
    attempts: list[int] = []
    for outcome, shard in zip(outcomes, plan.shards):
        agg = outcome.agg
        for sid, res, end, local in zip(
            shard.session_indices, outcome.results, outcome.end_times,
            outcome.final_assignment,
        ):
            results[sid] = res
            end_times[sid] = end
            assignment[sid] = shard.edge_indices[local]
        for local, e in enumerate(shard.edge_indices):
            edge_stats[e] = agg.edge_stats[local]
            edge_hit_rates[e] = agg.edge_hit_rates[local]
            if per_edge_sr:
                sr_edge_hit_rates[e] = agg.sr_edge_hit_rates[local]
        encode_waits.extend(agg.encode_waits)
        counts = agg.ops.retry_attempts
        attempts.extend([0] * (len(counts) - len(attempts)))
        for i, c in enumerate(counts):
            attempts[i] += c
    assert all(r is not None for r in results), "sharded fleet lost sessions"

    # Fault events are partitioned exactly once across shards, so the
    # counts sum; the fleet's dip/recovery is the worst shard's (shards
    # share no links, so each recovers independently).  The resilience
    # counters act within a shard and sum, the retry-attempt histogram
    # adds elementwise, and the per-region recovery entries concatenate
    # (a region lives wholly inside one shard) back into name order.
    all_ops = [o.agg.ops for o in outcomes]
    merged = _RunAggregates(
        origin_egress=sum(o.agg.origin_egress for o in outcomes),
        edge_stats=edge_stats,
        edge_hit_rates=tuple(edge_hit_rates),
        encode_waits=encode_waits,
        sr_hits=sum(o.agg.sr_hits for o in outcomes),
        sr_misses=sum(o.agg.sr_misses for o in outcomes),
        sr_edge_hit_rates=tuple(sr_edge_hit_rates),
        encode_core_seconds=sum(o.agg.encode_core_seconds for o in outcomes),
        ops=OpsStats(
            sessions_resteered=sum(o.sessions_resteered for o in all_ops),
            faults_injected=sum(o.faults_injected for o in all_ops),
            qoe_dip_depth=max(o.qoe_dip_depth for o in all_ops),
            time_to_recover_s=max(o.time_to_recover_s for o in all_ops),
            chunk_retries=sum(o.chunk_retries for o in all_ops),
            requests_timed_out=sum(o.requests_timed_out for o in all_ops),
            requests_hedged=sum(o.requests_hedged for o in all_ops),
            gray_degraded_bytes=sum(o.gray_degraded_bytes for o in all_ops),
            retry_attempts=tuple(attempts),
            region_recovery=tuple(sorted(
                entry for o in all_ops for entry in o.region_recovery
            )),
        ),
    )
    return FleetResult(
        sessions=results,  # type: ignore[arg-type]
        report=build_fleet_report(
            results, sessions, end_times, merged  # type: ignore[arg-type]
        ),
        # A single inline shard ran against the caller's cache instance
        # (simulate_fleet semantics); multi-worker copies cannot be
        # handed back meaningfully.
        sr_cache=(
            sr_cache
            if plan.n_shards == 1 and isinstance(sr_cache, SRResultCache)
            else None
        ),
        session_specs=list(sessions),
        topology=topology,
        assignment=assignment,
        end_times=end_times,
    )
