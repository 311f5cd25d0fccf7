"""Multi-link network topologies: paths over shared links.

A CDN serves viewers over *paths* — origin → edge backhaul, then edge →
viewer access — where several paths share component links and the
bottleneck moves with load.  This module is the one place the repo
splits a time-varying link between concurrent transfers:

* :class:`NetworkPath` — an ordered series of :class:`SharedLink` hops.
  A fluid transfer traverses all hops simultaneously (cut-through, not
  store-and-forward): its instantaneous rate is the **minimum over hops**
  of its processor-sharing allocation on each hop, and it pays the sum of
  per-hop RTTs once before bits move.
* :class:`PathScheduler` — the event engine for flows on different paths
  over a shared link pool: ``next_event`` returns the earliest instant
  any link's fluid allocation can change, ``advance`` drains every
  active flow at its path rate and reports completions.  It is the only
  transfer integrator: a lone transfer is a pool of one flow
  (:meth:`repro.net.link.Link.download_time`), and a single session is a
  fleet of one (:func:`repro.streaming.simulator.simulate_session`).

The allocation is *per-link* processor sharing capped by the path
minimum — deterministic and monotone (adding a hop can never increase a
flow's rate), though not globally max-min (bandwidth a flow cannot use on
a non-bottleneck hop is not redistributed; the conservative model).

**One engine, one reference.**  Every event step is array math over
flow-state tensors: the active flows' scalars fill the first ``n``
columns of packed NumPy arrays, each flow's hop membership is a column
of link indices in a dense ``(hop, column)`` matrix, per-link fair
shares are one link-sized ``cap / denom`` gathered through that matrix,
per-flow rates one ``min`` over the hop axis, and the next completion
horizon one ``np.min`` over ``remaining / rate``.  A link's capacity is
kept until its trace segment ends, not re-read every step.  The per-flow
Python loop this replaced lives on
as ``tests/net/reference_scheduler.py::ReferenceScheduler`` — same
contract, its own share arithmetic — and ``tests/net/test_topology.py``
pins the two **bit-exact** on a hypothesis grid of staggered starts,
gated / cancelled / mid-flight-injected flows and one- to three-hop
paths over shared links.  Every link splits its capacity the one fair
way, ``cap / n_active``; no step sums anything in flow order, so
completions do not depend on the order flows were added.

**A flow's life cycle: gated → active → finished.**  Which flows share a
link is not re-derived each step; it is kept, and changes only at events
the scheduler already handles:

* *gated* — registered, waiting for ``data_start`` (path RTT plus any
  encode wait).  ``_VectorState.add`` queues it in a heap keyed by
  ``data_start``; ``next_event`` reads the head as the next gate expiry.
  Zero-byte flows skip the heap and go straight to *finished*.
* *active* — draining.  ``_VectorState.expire_gates``, run by every
  allocation, pops the gates that have passed and calls ``activate``: the
  flow's bits move into a new last column of the active block and each
  of its links counts one more sharer (``link_count`` / ``denom``).
  Expiry is one-way, which is why ``next_event`` / ``advance`` refuse an
  instant earlier than the last one they were shown (or NaN).
* *finished* — ``deactivate`` undoes exactly what ``activate`` did, and
  moves the block's last column into the gap, from two places:
  ``remove`` (completion or ``cancel``) and ``advance`` when a drain
  turns a flow's bits NaN (it can never finish and must stop taking
  shares).  Outside the block a flow keeps its bits itself
  (``_PathFlow.remaining``).  A flow that leaves while still gated
  leaves its heap entry behind; the entry is recognised by the flow
  object (``live`` is false), so it opens no gate.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count

import numpy as np

from .link import Completion, SharedLink
from .traces import NetworkTrace

__all__ = ["NetworkPath", "PathScheduler"]


@dataclass(frozen=True)
class NetworkPath:
    """An ordered series of :class:`SharedLink` hops.

    Links are shared by identity: two paths holding the same
    ``SharedLink`` object contend for that link's capacity.  ``rtt`` is
    the request latency of the whole path — one round trip per hop,
    paid once before data moves (persistent connections per hop).
    """

    links: tuple[SharedLink, ...]
    name: str = "path"

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError("NetworkPath needs at least one link")
        if len({id(l) for l in self.links}) != len(self.links):
            raise ValueError("NetworkPath hops must be distinct links")

    @property
    def rtt(self) -> float:
        """Total request latency: one RTT per hop, in series."""
        total = 0.0
        for link in self.links:
            total += link.trace.rtt
        return total

    @property
    def n_hops(self) -> int:
        return len(self.links)


#: Relative slack below which a flow's residual bits count as finished
#: (absorbs the float error of draining `share * dt` per event step).
_FINISH_RTOL = 1e-9

#: Absolute slack (bits).  The event time `now + remaining/share` is
#: rounded to `now`'s ulp, so one drain can leave a residue of order
#: `ulp(now) * share` — for a sub-hundred-byte flow that residue exceeds
#: the *relative* tolerance and the event loop would spin at `t == now`
#: forever.  A milli-bit floor absorbs it without affecting any transfer
#: of a whole byte or more.
_FINISH_ATOL = 1e-3


@dataclass
class _PathFlow:
    flow_id: int
    path: NetworkPath
    start_time: float
    data_start: float  # start_time + path RTT + any gate delay
    total_bits: float
    #: bits left while outside the active block (an active flow's bits
    #: live in its column of the scheduler's arrays)
    remaining: float
    #: column in the scheduler's active block (-1 = gated or finished)
    col: int = -1
    #: false once the flow completed or was cancelled
    live: bool = True
    #: the path's hops as indices into the scheduler's link list
    link_ids: tuple[int, ...] = ()


class PathScheduler:
    """Event engine for concurrent transfers over a pool of shared links.

    Flows are registered with :meth:`add_flow` on a :class:`NetworkPath`;
    each link splits its capacity equally among the flows active *on
    that link*, and a flow drains at the minimum of its per-hop
    allocations.  The driver loop is ``next_event`` →
    ``advance`` until ``busy()`` turns false.

    ``extra_delay`` on :meth:`add_flow` gates a flow's data start beyond
    the path RTT without changing the elapsed-time origin — the hook the
    CDN layer uses for server-side encode waits (the viewer's measured
    download time includes the wait, as it would on a real service).

    ``delivered_bits`` accumulates the pool total with ``np.sum`` per
    event step; per-link bits are charged once per flow as it leaves the
    pool (completion or cancellation), so both agree with a per-step
    per-flow tally to float tolerance, not bit for bit.
    """

    def __init__(self) -> None:
        self._flows: dict[int, _PathFlow] = {}
        #: bits actually delivered to receivers (conservation checks)
        self.delivered_bits = 0.0
        self._vec = _VectorState()
        #: the latest instant a caller has shown this scheduler
        self._now = -math.inf

    # ------------------------------------------------------------------
    def add_flow(
        self,
        flow_id: int,
        nbytes: int,
        start_time: float,
        path: NetworkPath,
        extra_delay: float = 0.0,
    ) -> None:
        """Register a transfer of ``nbytes`` requested at ``start_time``."""
        if flow_id in self._flows:
            raise ValueError(f"flow {flow_id} already in flight")
        # chained so NaN fails them (every comparison with NaN is false);
        # a non-finite flow would never drain and the driver loop would
        # walk ``now`` to infinity with ``busy()`` still true
        if not 0 <= nbytes < math.inf:
            raise ValueError(
                f"flow {flow_id}: nbytes must be finite and non-negative"
            )
        if not 0 <= start_time < math.inf:
            raise ValueError(
                f"flow {flow_id}: start_time must be finite and non-negative"
            )
        if not 0 <= extra_delay < math.inf:
            raise ValueError(
                f"flow {flow_id}: extra_delay must be finite and non-negative"
            )
        flow = _PathFlow(
            flow_id=flow_id,
            path=path,
            start_time=float(start_time),
            data_start=float(start_time) + path.rtt + float(extra_delay),
            total_bits=float(nbytes) * 8.0,
            remaining=float(nbytes) * 8.0,
        )
        self._flows[flow_id] = flow
        self._vec.add(flow)

    @property
    def n_flows(self) -> int:
        return len(self._flows)

    def has_flow(self, flow_id: int) -> bool:
        """True iff ``flow_id`` is currently in flight."""
        return flow_id in self._flows

    def cancel(self, flow_id: int) -> None:
        """Withdraw an in-flight transfer without completing it.

        The fault-injection hook: an edge outage kills every transfer
        riding the dead edge's links mid-flight, and the fleet driver
        re-issues them on the failover path.  Bits already drained stay
        counted in ``delivered_bits`` (they did cross the links); the
        flow simply never reports a :class:`Completion`.
        """
        flow = self._flows.get(flow_id)
        if flow is None:
            raise KeyError(f"flow {flow_id} is not in flight")
        self._remove(flow)

    def busy(self) -> bool:
        """True while any transfer is unfinished."""
        return bool(self._flows)

    # ------------------------------------------------------------------
    def _move_clock(self, now: float) -> None:
        """Gate expiry is one-way, so virtual time may not run backwards.

        Written so NaN fails it, as in :meth:`add_flow`: a NaN instant
        would drain every active flow to NaN bits."""
        if not now >= self._now:
            raise ValueError(
                f"time went backwards: {now!r} after {self._now!r}"
            )
        self._now = now

    def _gate_due(self, t: float) -> bool:
        """Telemetry's question (``fleet.wake.gate``): does a queued flow's
        ``data_start`` fall at or before ``t``?  Reads, changes nothing."""
        return any(f.live and ds <= t for ds, _, f in self._vec.gated)

    def next_event(self, now: float) -> float:
        """Earliest future instant any link's allocation can change."""
        if not self._flows:
            raise RuntimeError("no flows in flight")
        self._move_clock(now)
        v = self._vec
        # ``best`` starts as the next gate expiry (inf when nothing waits)
        n, rates, best = self._vec_alloc(now)
        # Zero-byte transfers complete as soon as their data start elapses.
        for f in v.finished:
            best = min(best, max(f.data_start, now))
        if n:
            # == min(now + remaining / rates): adding one ``now`` is monotone
            best = min(best, now + _min(v.remaining[:n] / rates))
        for li in v.wrapped:
            best = min(best, now + v.link_list[li].trace.time_to_next_change(now))
        # A plain link's boundary is the trace's own ``nxt - local``
        # expression, evaluated only where its lower bound says it can win.
        if v.cap_until <= best:
            for until, hi, duration in v.segments.values():
                if until <= best:
                    best = min(best, now + (hi - now % duration))
        return float(best)

    def advance(self, now: float, to_time: float) -> list[Completion]:
        """Drain all flows from ``now`` to ``to_time``; report completions.

        ``to_time`` must not exceed the next event (allocations are
        assumed constant over the interval).  Completions are ordered by
        flow id for determinism when several flows finish simultaneously.
        """
        if not to_time >= now:  # NaN fails it too
            raise ValueError(f"cannot advance backwards: {now!r} to {to_time!r}")
        self._move_clock(now)
        self._now = to_time
        v = self._vec
        n, rates, _ = self._vec_alloc(now)
        finished: list[_PathFlow] = []
        if n:
            rem = v.remaining[:n]  # drained in place
            drained = np.minimum(rates * (to_time - now), rem)
            rem -= drained
            flush = rem <= v.thresh[:n]
            total_bits = float(_sum(drained))
            # Per-link delivered-bits accounting is deferred to
            # ``_remove``: a per-flow loop here would be O(active flows)
            # of Python per event step and dominate large-fleet wall time.
            if _any(flush):
                total_bits += float(_sum(rem[flush]))
                rem[flush] = 0.0
                finished.extend(v.flows[c] for c in flush.nonzero()[0].tolist())
            if total_bits != total_bits:
                # A NaN drain (a trace reporting NaN past validation)
                # leaves NaN bits behind: such a flow can never finish
                # and must stop taking part in shares, or virtual time
                # creeps from trace boundary to trace boundary for ever
                # instead of stalling where the driver's watchdog sees it.
                for f in [v.flows[c] for c in (rem != rem).nonzero()[0].tolist()]:
                    v.deactivate(f)
            self.delivered_bits += total_bits
            v.version += 1
        # Flows can complete two ways: drained to zero above, or zero-byte
        # transfers once their data_start has elapsed.
        if v.finished:
            finished.extend(
                f for f in v.finished if f.data_start <= to_time
            )
        if not finished:
            return []
        finished.sort(key=lambda f: f.flow_id)
        done: list[Completion] = []
        for f in finished:
            finish = f.data_start if f.total_bits == 0.0 else to_time
            done.append(Completion(f.flow_id, finish, finish - f.start_time))
            self._remove(f)
        return done

    # ------------------------------------------------------------------
    def _vec_alloc(self, now: float):
        """The active block's rates and the next gate expiry.

        Returns ``(n, rates, next_gate)``: ``rates[c]`` is the path rate
        of the flow in column ``c < n``.  Gates that have expired by
        ``now`` are activated first (see :meth:`_VectorState.expire_gates`);
        ``next_gate`` is the earliest ``data_start`` still ahead (``inf``
        when nothing waits).  Capacities are the trace segments
        ``_VectorState`` keeps per active link: re-read only when ``now``
        reaches ``cap_until``, except for wrapped traces (e.g.
        fault-injection ``DegradedTrace``, whose composition varies with
        time), which are read every step.  Cached on ``(now, state
        version)`` so the ``next_event`` → ``advance`` pair of one event
        step computes the allocation once.  The float expressions are the
        per-flow reference's (``tests/net/reference_scheduler.py``),
        pinned bit-exact by its parity grid: denominators are integer
        counts kept at the activation transitions, shares are ``cap /
        denom`` — one link-sized division, gathered per hop — and the
        per-flow rate is an order-insensitive min over the hop axis.
        """
        v = self._vec
        key = (now, v.version)
        cached = v.alloc_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        next_gate = v.expire_gates(now)
        if now >= v.cap_until:
            v.refresh(now)
        cap, denom, n = v.cap, v.denom, v.n_act
        for li in v.wrapped:
            cap[li] = v.link_list[li].trace.bandwidth_at(now)
        if n == 0:
            rates = _EMPTY
        else:
            rates = _min((cap / denom)[v.hops[:, :n]], axis=0)
        out = (n, rates, next_gate)
        v.alloc_cache = (key, out)
        return out

    def _remove(self, flow: _PathFlow) -> None:
        # Deferred per-link accounting: everything the flow drained over
        # its lifetime crosses each hop exactly once, charged as it
        # leaves the pool (completion or cancellation).
        crossed = flow.total_bits - self._vec.bits(flow)
        if crossed > 0.0:
            for link in flow.path.links:
                link.delivered_bits += crossed
        del self._flows[flow.flow_id]
        self._vec.remove(flow)


_EMPTY = np.empty(0)

# A step's reductions, called as ufunc methods: ``ndarray.min`` / ``sum``
# / ``any`` reach these same reductions through a Python wrapper.
_min, _sum, _any = np.minimum.reduce, np.add.reduce, np.logical_or.reduce


#: Slack on a stored segment end: ``now + (hi - local)`` is two roundings,
#: each within 2**-53 of ``end + duration``, from the true instant; eight
#: times that keeps the bound below any float the trace's expression gives.
_BOUND_SLACK = 2.0**-50


class _VectorState:
    """The packed active block behind :class:`PathScheduler`.

    The ``n_act`` active flows own columns ``0 … n_act-1`` of the rows
    ``remaining`` / ``thresh`` and of the ``(hop, column)``
    matrix ``hops`` of indices into ``link_list`` (index 0 pads short
    paths: a sentinel); ``flows[c]`` is column ``c``'s flow.  Activation
    appends a column, deactivation moves the last one into the gap, so a
    step reads ``[:n_act]`` views; the block doubles when full.  A link's
    capacity is read when it turns active (``watch``) and, for a plain
    ``NetworkTrace``, again only once ``now`` reaches ``cap_until``;
    other traces are re-read every step.

    The life cycle is in the module docstring; the block, ``link_count``
    and ``denom`` change only inside :meth:`activate` / :meth:`deactivate`.
    """

    def __init__(self) -> None:
        self.n_act = 0
        self.flows: list[_PathFlow] = []
        #: rows ``remaining`` / ``thresh`` (finish threshold)
        self.scalars = np.zeros((2, 0))
        self.hops = np.zeros((2, 0), dtype=np.intp)
        self._reshape(2, 64)
        #: flows waiting for their ``data_start``: a heap of
        #: ``(data_start, add serial, flow)``.  An entry outlives a flow
        #: that is cancelled or completes first, and is then skipped *by
        #: identity* (``flow.live`` is false).
        self.gated: list[tuple[float, int, _PathFlow]] = []
        self._serial = count()
        #: index 0 reserved as the padding sentinel
        self.link_list: list[SharedLink | None] = [None]
        self.link_index: dict[int, int] = {}
        #: ``id(path) -> (path, its hops' link indices)``; holding the path
        #: keeps its ``id`` from being reused while the entry lives
        self.path_ids: dict[int, tuple[NetworkPath, tuple[int, ...]]] = {}
        #: active flows per link, links with none left out — counted over
        #: each flow's own hops (``link_ids``), never over its ``hops``
        #: column: the column's padding is link 0, and ``_reshape`` can
        #: add hop rows between a flow's activation and its removal
        self.link_count: dict[int, int] = {}
        #: fair-share denominator per link: the count as a float, 1 for an
        #: idle link and for the sentinel, so ``cap / denom`` never divides
        #: by zero and the sentinel's share is ``inf`` (never a min)
        self.denom = np.ones(1)
        #: capacity per link, current for the links in ``link_count``
        #: (idle links keep a stale value nobody gathers)
        self.cap = np.full(1, np.inf)
        #: active plain-trace links: ``li -> (until, hi, duration)``, the
        #: cached segment's end ``hi`` in trace-local time and ``until``,
        #: a lower bound on the instant ``now`` reaches it
        self.segments: dict[int, tuple[float, float, float]] = {}
        #: at most the smallest ``until`` (a link gone idle may leave its
        #: bound behind until the next refresh)
        self.cap_until = math.inf
        #: active links whose trace is not a plain ``NetworkTrace``
        self.wrapped: set[int] = set()
        #: zero-byte transfers awaiting their completion report (at their
        #: data_start); never active
        self.finished: list[_PathFlow] = []
        #: bumped on any state change; keys the allocation cache
        self.version = 0
        self.alloc_cache: tuple | None = None

    def bits(self, flow: _PathFlow) -> float:
        """The flow's remaining bits, wherever they live."""
        return float(self.remaining[flow.col]) if flow.col >= 0 else flow.remaining

    def add(self, flow: _PathFlow) -> None:
        known = self.path_ids.get(id(flow.path))
        flow.link_ids = self._resolve(flow.path) if known is None else known[1]
        if flow.total_bits == 0.0:
            self.finished.append(flow)
        else:
            heappush(self.gated, (flow.data_start, next(self._serial), flow))
        self.version += 1

    def _resolve(self, path: NetworkPath) -> tuple[int, ...]:
        """Index ``path``'s links (new ones join ``link_list``), once per
        path object."""
        links = path.links
        grew_links = False
        for link in links:
            if id(link) not in self.link_index:
                li = len(self.link_list)
                self.link_index[id(link)] = li
                self.link_list.append(link)
                grew_links = True
        if grew_links:
            fresh = len(self.link_list) - len(self.denom)
            self.denom = np.concatenate([self.denom, np.ones(fresh)])
            self.cap = np.concatenate([self.cap, np.zeros(fresh)])
        if len(links) > len(self.hops):
            self._reshape(len(links), self.hops.shape[1])
        ids = tuple(self.link_index[id(link)] for link in links)
        self.path_ids[id(path)] = (path, ids)
        return ids

    def expire_gates(self, now: float) -> float:
        """Activate every flow whose ``data_start`` has passed; return the
        earliest one still ahead (``inf`` when nothing waits).

        Entries of flows that already left the pool are dropped on the
        way, so the head is always a live gate — a stale one would wake
        the driver at an instant nothing changes.
        """
        gated = self.gated
        while gated:
            data_start, _, flow = gated[0]
            if flow.live:
                if data_start > now:
                    return data_start
                self.activate(flow, now)
            heappop(gated)
        return np.inf

    def activate(self, flow: _PathFlow, now: float) -> None:
        c = self.n_act
        if c == self.hops.shape[1]:
            self._reshape(len(self.hops), 2 * c)
        self.remaining[c] = flow.remaining
        self.thresh[c] = max(_FINISH_RTOL * flow.total_bits, _FINISH_ATOL)
        ids = flow.link_ids
        self.hops[:, c] = ids + (0,) * (len(self.hops) - len(ids))
        self.flows.append(flow)
        flow.col = c
        self.n_act = c + 1
        counts = self.link_count
        for li in flow.link_ids:
            counts[li] = n = counts.get(li, 0) + 1
            self.denom[li] = n
            if n == 1:
                self.watch(li, now)

    def deactivate(self, flow: _PathFlow) -> None:
        c, last = flow.col, self.n_act - 1
        flow.remaining = float(self.remaining[c])
        if c != last:
            moved = self.flows[last]
            self.flows[c] = moved
            moved.col = c
            self.scalars[:, c] = self.scalars[:, last]
            self.hops[:, c] = self.hops[:, last]
        self.flows.pop()
        self.n_act = last
        flow.col = -1
        counts = self.link_count
        for li in flow.link_ids:
            n = counts[li] - 1
            if n:
                counts[li] = n
                self.denom[li] = n
            else:
                del counts[li]
                self.denom[li] = 1.0
                self.segments.pop(li, None)
                self.wrapped.discard(li)

    def watch(self, li: int, now: float) -> None:
        """Read link ``li``'s trace segment at ``now`` into ``cap``.

        A plain trace's lookup reproduces ``bandwidth_at`` exactly and
        stores where the segment ends; any other trace, or one whose
        ``end`` would not move the clock (see ``NetworkTrace._locate``),
        goes to ``wrapped``, re-read by every allocation.
        """
        trace = self.link_list[li].trace
        if type(trace) is NetworkTrace:
            duration = trace._duration
            local = now % duration
            ts = trace._ts_list
            i = bisect_right(ts, local)
            hi = ts[i] if i < len(ts) else duration
            end = now + (hi - local)
            if end > now:
                self.cap[li] = trace._bw_list[i - 1]
                until = end - (end + duration) * _BOUND_SLACK
                self.segments[li] = (until, hi, duration)
                if until < self.cap_until:
                    self.cap_until = until
                return
        self.segments.pop(li, None)
        self.wrapped.add(li)

    def refresh(self, now: float) -> None:
        """Re-read every plain link whose segment may have ended by ``now``."""
        self.cap_until = math.inf
        for li, (until, _, _) in list(self.segments.items()):
            if until <= now:
                self.watch(li, now)
            elif until < self.cap_until:
                self.cap_until = until

    def remove(self, flow: _PathFlow) -> None:
        if flow.col >= 0:
            self.deactivate(flow)
        flow.live = False
        if flow in self.finished:
            self.finished.remove(flow)
        self.version += 1

    def _reshape(self, n_hops: int, n_cols: int) -> None:
        """Re-allocate the block as ``n_hops`` × ``n_cols``, keeping the
        active columns (new hop rows pad with the sentinel)."""
        n = self.n_act
        hops, scalars = np.zeros((n_hops, n_cols), dtype=np.intp), np.zeros((2, n_cols))
        hops[: len(self.hops), :n] = self.hops[:, :n]
        scalars[:, :n] = self.scalars[:, :n]
        self.hops, self.scalars = hops, scalars
        self.remaining, self.thresh = scalars
