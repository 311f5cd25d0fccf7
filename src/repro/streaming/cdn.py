"""CDN serving topology: edge chunk caches, encode contention, assignment.

The fleet simulator models the last mile; a service the paper's size is
fronted by a CDN, and at scale it is the *edge*, not the access link,
that decides aggregate QoE and serving cost.  This module provides the
serving topology :func:`~repro.streaming.fleet.simulate_fleet` runs
over:

* :class:`EdgeChunkCache` — a byte-capacity LRU of encoded chunk
  variants held at one edge.  A hit serves the chunk over the access
  link alone; a miss pulls origin → edge → viewer over the two-hop
  path and fills the cache when the transfer completes.  The cache also
  tracks *in-flight* fills for request coalescing: a concurrent miss
  for a chunk some other viewer is already pulling attaches to that one
  backhaul transfer (its data starts flowing, over the access link
  alone, when the fill lands) instead of opening a second origin pull —
  the request-collapsing every production CDN does, and a flow-count
  lever for the fleet scheduler.
* :class:`EncodeQueue` / :class:`OriginServer` — bounded server-side
  transcode contention.  The origin encodes each (video, chunk,
  density) variant once, on first request, on a fixed pool of encode
  workers; cold requests wait for a worker and for the encode itself
  before their backhaul transfer starts, and the queue records every
  wait for the report's percentiles.
* :class:`EdgeNode` — one edge site: a backhaul :class:`SharedLink`
  from the origin, an access :class:`SharedLink` to its viewers, and
  the edge cache; exposes its hit (one-hop) and miss (two-hop)
  :class:`~repro.net.topology.NetworkPath`s.
* :class:`CDNTopology` + :func:`assign_sessions` — the full serving
  graph plus the viewer → edge assignment policies: ``static``
  (geo-hash of the viewer id, load- and content-blind), ``least-loaded``
  (greedy min-occupancy in join order), and ``popularity`` (content
  affinity: all viewers of a video share an edge, maximizing cache
  locality at the price of skew-following load imbalance).
* :func:`uniform_cdn` builds a symmetric multi-edge CDN;
  :func:`single_link_cdn` builds the one-edge topology that serves the
  paper's single bottleneck link.

Everything is deterministic given (topology, sessions): hashes are
``zlib.crc32`` (Python's builtin ``hash`` is salted per process), ties
break by edge index, and cache/queue state advances only at scheduler
events, in flow-id order.
"""

from __future__ import annotations

import math
import numbers
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..net.link import SharedLink
from ..net.topology import NetworkPath
from ..net.traces import NetworkTrace, stable_trace
from ..obs.events import (
    EV_CACHE_COALESCE,
    EV_CACHE_HIT,
    EV_CACHE_MISS,
    EV_CACHE_VOID,
    EV_ENCODE_ENQUEUE,
    EV_ENCODE_RESIZE,
    NULL_TRACER,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle (fleet imports cdn)
    from .fleet import SRResultCache

__all__ = [
    "ASSIGNMENT_POLICIES",
    "EdgeChunkCache",
    "EncodeQueue",
    "OriginServer",
    "EdgeNode",
    "CDNTopology",
    "assign_sessions",
    "single_link_cdn",
    "uniform_cdn",
    "wait_percentile",
]

#: Supported viewer → edge assignment policies.
ASSIGNMENT_POLICIES = ("static", "least-loaded", "popularity")

#: :func:`uniform_cdn`'s round-trip times (seconds): viewer ↔ edge and
#: edge ↔ origin
ACCESS_RTT = 0.010
BACKHAUL_RTT = 0.020


@dataclass
class _CacheEntry:
    nbytes: int
    ready: float  # virtual time the fill transfer completes


class EdgeChunkCache:
    """Byte-capacity LRU of encoded chunk variants at one edge.

    Keyed by (video, chunk index, density) — the tuple that determines an
    encoded variant.  An entry carries the virtual time its fill transfer
    completed: a request hits only if the variant is fully resident *at
    the moment the request goes out*.  A variant still being pulled by
    another viewer is a miss, but a *coalesced* one: the fleet driver
    checks :meth:`fill_in_flight` and attaches the request to the
    existing backhaul transfer (see :meth:`attach`) instead of opening a
    second origin pull.  ``capacity_bytes=0`` disables caching — and
    with it coalescing — so every request misses and pulls its own copy,
    which is what :func:`single_link_cdn` uses.  Events go to ``tracer``,
    tagged with ``edge``, the cache's edge index in its topology.
    """

    def __init__(
        self,
        capacity_bytes: int = 1 << 30,
        *,
        tracer=NULL_TRACER,
        edge: int | None = None,
    ):
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        self.capacity_bytes = int(capacity_bytes)
        self._tracer = tracer
        self._edge = edge
        self._entries: OrderedDict[tuple, _CacheEntry] = OrderedDict()
        self._pending: set[tuple] = set()
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.hit_bytes = 0
        self.miss_bytes = 0
        self.evictions = 0
        #: backhaul fills actually opened (cold misses that pulled bytes)
        self.fills = 0
        #: fills cancelled mid-flight (edge outages) — never landed
        self.aborted_fills = 0
        #: misses that attached to an in-flight fill instead of pulling
        self.coalesced = 0
        self.coalesced_bytes = 0

    def lookup(self, key: tuple, nbytes: int, at_time: float) -> bool:
        """True (and bump LRU/stats) iff ``key`` is resident at ``at_time``."""
        entry = self._entries.get(key)
        hit = entry is not None and entry.ready <= at_time
        if hit:
            self._entries.move_to_end(key)
            self.hits += 1
            self.hit_bytes += nbytes
        else:
            self.misses += 1
            self.miss_bytes += nbytes
        if self._tracer is not NULL_TRACER:
            self._tracer.emit(
                at_time, EV_CACHE_HIT if hit else EV_CACHE_MISS,
                edge=self._edge, nbytes=nbytes,
            )
        return hit

    # -- in-flight fill tracking (request coalescing) ------------------
    def fill_in_flight(self, key: tuple) -> bool:
        """True iff a backhaul fill for ``key`` is currently in flight."""
        return key in self._pending

    def begin_fill(self, key: tuple) -> None:
        """Record that a cold miss opened a backhaul fill for ``key``."""
        self._pending.add(key)
        self.fills += 1

    def attach(self, key: tuple, nbytes: int, at_time: float = 0.0) -> None:
        """Record a miss that coalesced onto the in-flight fill of ``key``."""
        if key not in self._pending:
            raise ValueError(f"no fill in flight for {key!r}")
        self.coalesced += 1
        self.coalesced_bytes += nbytes
        if self._tracer is not NULL_TRACER:
            self._tracer.emit(
                at_time, EV_CACHE_COALESCE, edge=self._edge, nbytes=nbytes
            )

    def void_hit(self, nbytes: int, at_time: float = 0.0) -> None:
        """Retract a counted hit whose access transfer never completed.

        An edge outage cancels the serve mid-flight: the viewer never got
        the bytes, and the retry is counted on its own lookup.  Leaving
        the phantom charge would double-bill the chunk against delivered
        totals (byte conservation) and inflate :attr:`hit_rate`.
        """
        self.hits -= 1
        self.hit_bytes -= nbytes
        self._tracer.emit(
            at_time, EV_CACHE_VOID, edge=self._edge, what="hit",
            nbytes=nbytes,
        )

    def void_coalesced(self, nbytes: int, at_time: float = 0.0) -> None:
        """Retract a counted coalesced attach whose fill was cancelled.

        Same credit-back contract as :meth:`void_hit`, for requests that
        rode (or were parked behind) a backhaul fill an outage killed.
        """
        self.coalesced -= 1
        self.coalesced_bytes -= nbytes
        self._tracer.emit(
            at_time, EV_CACHE_VOID, edge=self._edge, what="coalesced",
            nbytes=nbytes,
        )

    def abort_fill(self, key: tuple) -> None:
        """Drop the in-flight marker for a fill that will never land.

        The fault-injection hook: an edge outage cancels the backhaul
        transfer mid-flight, so the next request for ``key`` must open a
        fresh fill instead of coalescing onto a ghost.  ``fills`` keeps
        counting the aborted pull (bytes did start moving);
        ``aborted_fills`` tallies how many never completed.
        """
        if key in self._pending:
            self._pending.discard(key)
            self.aborted_fills += 1

    def drop_all(self) -> None:
        """Forget every resident variant and in-flight fill (counters kept).

        What an edge node restarting after an outage looks like: the
        cache comes back empty and cold, but the run's hit/miss history
        still happened.
        """
        self.aborted_fills += len(self._pending)
        self._entries.clear()
        self._pending.clear()
        self.used_bytes = 0

    def insert(self, key: tuple, nbytes: int, ready: float) -> None:
        """Record a completed fill: ``key`` resident from ``ready`` on.

        Clears the in-flight marker for ``key``; concurrent fills (only
        possible with coalescing disabled) keep whichever copy lands
        first, mirroring :meth:`SRResultCache.acquire`.  Variants larger
        than the whole cache are not admitted.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self._pending.discard(key)
        if nbytes > self.capacity_bytes:
            return
        existing = self._entries.get(key)
        if existing is not None:
            existing.ready = min(existing.ready, ready)
            self._entries.move_to_end(key)
            return
        self._entries[key] = _CacheEntry(nbytes=nbytes, ready=ready)
        self.used_bytes += nbytes
        while self.used_bytes > self.capacity_bytes:
            _, evicted = self._entries.popitem(last=False)
            self.used_bytes -= evicted.nbytes
            self.evictions += 1

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)


class EncodeQueue:
    """Bounded transcode worker pool at the origin (FIFO, deterministic).

    ``submit`` places one encode job of ``cost`` seconds at the earliest
    free worker and returns the instant the encoded variant is ready.
    The wait (worker start − submit time) is recorded for the report's
    encode-wait percentiles.  Zero-cost jobs bypass the pool entirely —
    that is the "encoding disabled" configuration.  Events go to
    ``tracer``.
    """

    def __init__(self, n_workers: int = 4, *, tracer=NULL_TRACER):
        _check_count("n_workers", n_workers, 1)
        self.n_workers = int(n_workers)
        self._free_at = [0.0] * self.n_workers
        self.waits: list[float] = []
        #: core-seconds of transcode work accepted (Σ job cost) — what the
        #: infrastructure cost model bills as encode compute
        self.busy_seconds = 0.0
        self._tracer = tracer

    def resize(self, n_workers: int, at_time: float = 0.0) -> None:
        """Grow or shrink the worker pool mid-run (the control-plane hook).

        New workers come free at ``at_time``; shrinking retires the
        *idlest* workers first (earliest free time — a busy worker
        finishes its in-flight encode before leaving).  Recorded waits
        are untouched: the report's percentiles cover the whole run.
        """
        _check_count("n_workers", n_workers, 1)
        n_workers = int(n_workers)
        self._tracer.emit(
            float(at_time), EV_ENCODE_RESIZE,
            workers_from=self.n_workers, workers_to=n_workers,
        )
        if n_workers > self.n_workers:
            self._free_at.extend(
                [float(at_time)] * (n_workers - self.n_workers)
            )
        elif n_workers < self.n_workers:
            self._free_at = sorted(self._free_at)[self.n_workers - n_workers:]
        self.n_workers = n_workers

    def submit(self, at_time: float, cost: float) -> float:
        """Ready time of an encode job submitted at ``at_time``."""
        if cost < 0:
            raise ValueError("cost must be non-negative")
        if cost == 0.0:
            return at_time
        worker = min(range(self.n_workers), key=lambda i: (self._free_at[i], i))
        start = max(at_time, self._free_at[worker])
        ready = start + cost
        self._free_at[worker] = ready
        self.waits.append(start - at_time)
        self.busy_seconds += cost
        if self._tracer is not NULL_TRACER:
            self._tracer.emit(
                at_time, EV_ENCODE_ENQUEUE, wait=start - at_time,
                workers=self.n_workers,
            )
        return ready

    def busy_at(self, t: float) -> int:
        """Workers still busy with an in-flight encode at virtual ``t``
        (the queue-depth gauge the metrics sampler records)."""
        return sum(1 for free in self._free_at if free > t)

    def wait_percentile(self, pct: float) -> float:
        """Nearest-rank percentile of recorded queue waits (0 if no jobs)."""
        return wait_percentile(self.waits, pct)


def _check_count(name: str, value, minimum: int) -> None:
    """Raise unless ``value`` is an integer (``bool`` excluded) >= ``minimum``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or not value >= minimum
    ):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def wait_percentile(waits: list[float], pct: float) -> float:
    """Nearest-rank percentile of a wait sample (0 if empty).

    The one percentile rule the fleet report and the control plane
    share, so the formula lives here rather than on the queue.  Half ranks round *up* explicitly (``floor(x + 0.5)``): Python's
    ``round`` is half-to-even, which made p50 over an even sample pick
    the lower or upper neighbor depending on the sample size's parity —
    inconsistent with the documented nearest-rank convention.
    """
    if not 0.0 <= pct <= 100.0:
        raise ValueError("pct must be in [0, 100]")
    if not waits:
        return 0.0
    ordered = sorted(waits)
    rank = int(math.floor(pct / 100.0 * (len(ordered) - 1) + 0.5))
    return ordered[max(0, min(len(ordered) - 1, rank))]


class OriginServer:
    """The origin: encode workers plus the set of variants already encoded.

    Each (video, chunk, density) variant is transcoded once, on first
    request; later cold misses for the same variant reuse it (waiting for
    an in-flight encode to land if need be).  ``encode_seconds`` is the
    service time per chunk variant; 0 disables encode contention.  The
    queue's events go to ``tracer``.
    """

    def __init__(
        self,
        n_encode_workers: int = 4,
        encode_seconds: float = 0.0,
        *,
        tracer=NULL_TRACER,
    ):
        # chained so NaN fails it: a non-finite encode time used to build
        # and then fail the first cold miss inside ``PathScheduler.add_flow``
        if not 0 <= encode_seconds < math.inf:
            raise ValueError(
                f"encode_seconds must be finite and non-negative, got {encode_seconds!r}"
            )
        self.queue = EncodeQueue(n_encode_workers, tracer=tracer)
        self.encode_seconds = float(encode_seconds)
        self._variants: dict[tuple, float] = {}  # key -> ready time

    def variant_ready(self, key: tuple, at_time: float) -> float:
        """Instant the encoded variant for ``key`` exists (>= ``at_time``).

        Encodes on first request; an already-encoded (or in-flight)
        variant returns its recorded ready time.  With encoding disabled
        (``encode_seconds == 0``) every variant is always available and
        *nothing is recorded* — the function is pure, which is what lets
        the fleet driver dispatch requests out of virtual-time order in
        that configuration (:func:`single_link_cdn`) without a
        future-dated request planting a phantom ready time that would
        gate an earlier co-watcher.
        """
        if self.encode_seconds == 0.0:
            return at_time
        ready = self._variants.get(key)
        if ready is None:
            ready = self.queue.submit(at_time, self.encode_seconds)
            self._variants[key] = ready
        return max(ready, at_time)


@dataclass
class EdgeNode:
    """One edge site: backhaul from origin, access to viewers, chunk cache.

    ``sr_cache`` is the edge's private SR-result cache on the edges a
    ``simulate_fleet(..., sr_cache="per-edge")`` run builds for itself:
    co-watching viewers of the *same edge* share SR results without any
    cross-edge traffic.  It is not a constructor argument; a topology
    handed to a run describes edges, and the run builds the caches.
    """

    name: str
    backhaul: SharedLink
    access: SharedLink
    cache: EdgeChunkCache = field(default_factory=EdgeChunkCache)
    sr_cache: "SRResultCache | None" = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.backhaul is self.access:
            raise ValueError("backhaul and access must be distinct links")
        self.hit_path = NetworkPath((self.access,), name=f"{self.name}:hit")
        self.miss_path = NetworkPath(
            (self.backhaul, self.access), name=f"{self.name}:miss"
        )


@dataclass
class CDNTopology:
    """The serving graph ``simulate_fleet`` schedules flows over.

    ``assignment`` picks the viewer → edge policy (see
    :func:`assign_sessions`).  The origin's encode queue gates cold
    chunk misses; per-edge caches decide hit vs miss paths.

    ``regions`` optionally groups edges into named fault domains —
    ``{"us-east": (0, 1), "us-west": (2, 3)}`` — the blast-radius unit
    :class:`~repro.streaming.faults.RegionOutage` and the
    :class:`~repro.streaming.faults.CorrelatedFaultGenerator` target.
    Each edge belongs to at most one region; edges left out of every
    region simply cannot be hit by a regional fault.  Regions do not
    affect serving or assignment — they exist purely as fault domains
    (and as the granularity of the report's per-region recovery
    metrics).

    Handed to ``simulate_fleet`` a topology is a description: the run
    serves over fresh links, caches and an idle origin built from it.
    """

    edges: tuple[EdgeNode, ...]
    origin: OriginServer = field(default_factory=OriginServer)
    assignment: str = "static"
    regions: dict[str, tuple[int, ...]] | None = None

    def __post_init__(self) -> None:
        if not self.edges:
            raise ValueError("CDNTopology needs at least one edge")
        if self.assignment not in ASSIGNMENT_POLICIES:
            raise ValueError(
                f"unknown assignment policy {self.assignment!r}; "
                f"pick from {ASSIGNMENT_POLICIES}"
            )
        names = [e.name for e in self.edges]
        if len(set(names)) != len(names):
            raise ValueError("edge names must be unique")
        if self.regions is not None:
            self.regions = {
                name: tuple(members)
                for name, members in self.regions.items()
            }
            seen: dict[int, str] = {}
            for name, members in self.regions.items():
                if not name:
                    raise ValueError("region names must be non-empty")
                if not members:
                    raise ValueError(f"region {name!r} has no member edges")
                for edge in members:
                    if not 0 <= edge < len(self.edges):
                        raise ValueError(
                            f"region {name!r} names edge {edge}; topology "
                            f"has {len(self.edges)} edges"
                        )
                    if edge in seen:
                        raise ValueError(
                            f"edge {edge} is in both region {seen[edge]!r} "
                            f"and {name!r}; fault domains must not overlap"
                        )
                    seen[edge] = name

    def assign(self, sessions) -> list[int]:
        """Edge index for each session under this topology's policy."""
        return assign_sessions(sessions, len(self.edges), self.assignment)


def _stable_hash(text: str) -> int:
    """Deterministic string hash (builtin ``hash`` is salted per process)."""
    return zlib.crc32(text.encode("utf-8"))


def assign_sessions(sessions, n_edges: int, policy: str) -> list[int]:
    """Viewer → edge assignment under one of :data:`ASSIGNMENT_POLICIES`.

    * ``static`` — geo-hash of the viewer index: stable and load/content
      blind, the classic DNS-style mapping;
    * ``least-loaded`` — greedy minimum occupancy, viewers considered in
      join order (ties: earlier session index, then lower edge index);
    * ``popularity`` — content affinity: every viewer of a video lands on
      the same edge, so one fill serves the whole co-watching audience.
    """
    if n_edges <= 0:
        raise ValueError("n_edges must be positive")
    if policy not in ASSIGNMENT_POLICIES:
        raise ValueError(
            f"unknown assignment policy {policy!r}; pick from {ASSIGNMENT_POLICIES}"
        )
    if policy == "static":
        return [_stable_hash(f"viewer-{i}") % n_edges for i in range(len(sessions))]
    if policy == "popularity":
        return [_stable_hash(s.spec.name) % n_edges for s in sessions]
    # least-loaded: greedy in join order.
    load = [0] * n_edges
    out = [0] * len(sessions)
    order = sorted(range(len(sessions)), key=lambda i: (sessions[i].join_time, i))
    for i in order:
        edge = min(range(n_edges), key=lambda e: (load[e], e))
        out[i] = edge
        load[edge] += 1
    return out


def uniform_cdn(
    n_edges: int,
    *,
    access_mbps: float,
    backhaul_mbps: float,
    duration: float = 600.0,
    cache_bytes: int = 1 << 30,
    assignment: str = "static",
    n_encode_workers: int = 4,
    encode_seconds: float = 0.0,
    n_regions: int | None = None,
) -> CDNTopology:
    """A symmetric CDN: ``n_edges`` identical edges on stable links.

    Each edge gets its own backhaul and access :class:`SharedLink` (no
    cross-edge contention — the origin uplink is assumed provisioned);
    the interesting contention is per-edge fan-in plus the shared encode
    worker pool.

    ``n_regions`` optionally splits the edges into that many contiguous
    fault domains named ``region-0`` … ``region-{n-1}`` (as even as the
    division allows, earlier regions taking the remainder) — the handy
    way to get a regional topology for chaos scenarios.
    """
    if n_edges <= 0:
        raise ValueError("n_edges must be positive")
    regions = None
    if n_regions is not None:
        if not 0 < n_regions <= n_edges:
            raise ValueError(
                f"n_regions must be in [1, n_edges], got {n_regions}"
            )
        base, extra = divmod(n_edges, n_regions)
        regions, lo = {}, 0
        for r in range(n_regions):
            hi = lo + base + (1 if r < extra else 0)
            regions[f"region-{r}"] = tuple(range(lo, hi))
            lo = hi
    edges = tuple(
        EdgeNode(
            name=f"edge-{i}",
            backhaul=SharedLink(
                stable_trace(backhaul_mbps, duration=duration, rtt=BACKHAUL_RTT)
            ),
            access=SharedLink(
                stable_trace(access_mbps, duration=duration, rtt=ACCESS_RTT)
            ),
            cache=EdgeChunkCache(capacity_bytes=cache_bytes),
        )
        for i in range(n_edges)
    )
    origin = OriginServer(
        n_encode_workers=n_encode_workers, encode_seconds=encode_seconds
    )
    return CDNTopology(
        edges=edges, origin=origin, assignment=assignment, regions=regions
    )


def single_link_cdn(trace: NetworkTrace) -> CDNTopology:
    """One bottleneck link as a one-edge CDN: every viewer shares ``trace``.

    The edge's access link is the bottleneck; its cache holds nothing and
    the origin encodes in zero time, so every request travels backhaul +
    access at once.  The backhaul is unconstrained: at 1 Tbit/s (above any
    access rate) with zero RTT, and split fairly over the same flows, its
    share never undercuts the access share, and it steps on the
    access trace's own grid, so each of its segment ends is an access
    segment end computed by the same float expression — it adds no wake
    that would split a fluid advance, which is why a fleet on this
    topology is bit-exact with a bare one-hop path on ``trace``.
    """
    ts = trace.timestamps
    backhaul = NetworkTrace("backhaul", ts, np.full(len(ts), 1e12), rtt=0.0)
    edge = EdgeNode(
        name="edge-0",
        backhaul=SharedLink(backhaul),
        access=SharedLink(trace),
        cache=EdgeChunkCache(capacity_bytes=0),
    )
    origin = OriginServer(n_encode_workers=1, encode_seconds=0.0)
    return CDNTopology(edges=(edge,), origin=origin)
