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
  any link's fluid allocation can change, ``advance`` moves time to it
  and reports completions.  It is the only transfer integrator: a lone
  transfer is a pool of one flow (:meth:`repro.net.link.Link.download_time`),
  and a single session is a fleet of one
  (:func:`repro.streaming.simulator.simulate_session`).

The allocation is *per-link* processor sharing capped by the path
minimum — deterministic and monotone (adding a hop can never increase a
flow's rate), though not globally max-min (bandwidth a flow cannot use on
a non-bottleneck hop is not redistributed; the conservative model).
A link's share is ``cap / n_active`` and nothing is summed in flow order,
so completions do not depend on the order flows were added.

**Groups and epochs.**  A flow's rate is ``min over hops of cap /
sharers``, so every active flow on the same hop tuple (a *group*: the
CDN's hit path or miss path through one edge) has the same rate at every
instant.  A group keeps one ``rate``, one epoch ``t_e`` and its flows'
bits at that epoch in ascending order; a flow's remaining bits at ``t``
are ``bits − rate · (t − t_e)``.  That shared drain preserves the order
(float subtraction of one value is monotone), so the group's next finish
is ``t_e + bits[0] / rate`` and its completions are a scan from the head.
A step re-rates only the groups on links whose sharer count or capacity
changed since the last instant, and a group is *rebased* — its bits
drained to the instant, its epoch moved there — only when its rate
changes bitwise or a flow joins it.  Hence the **law**: an instant at
which no rate changes (a factor-1 fault window, any other wake of the
caller) changes no bit.  ``tests/net/reference_scheduler.py`` states the
same epoch rule per flow, with its own share arithmetic, pinned ``==``
by ``tests/net/test_topology.py`` on a hypothesis grid of staggered,
gated, cancelled and injected flows over one- to three-hop paths; the
drain-every-step loop this replaced is ``tests/net/drain_scheduler.py``,
held to production within a stated tolerance.

**Capacities are kept too.**  A link's trace answers ``segment(now)``:
its rate and a lower bound ``until`` on the instant it next changes (a
plain ``NetworkTrace``'s segment end; a ``DegradedTrace`` clips its
base's at the next fault-window start or end).  The rate is read when the
link turns active and again only once ``now`` reaches ``until``, and
``next_event`` evaluates the trace's own ``now + time_to_next_change(now)``
only for a link whose ``until`` could beat the best instant found, so the
wake instants are the ones a read at every step gives.  No trace type is
special here: ``net`` cannot import the fault layer, and need not.

**A flow's life cycle: gated → active → finished.**  Which flows share a
link is not re-derived each step; it is kept, and changes only at events
the scheduler already handles:

* *gated* — registered, waiting for ``data_start`` (path RTT plus any
  encode wait).  ``_PoolState.add`` queues it in a heap keyed by
  ``data_start``; ``next_event`` reads the head as the next gate expiry.
  Zero-byte flows skip the heap and go straight to *finished*.
* *active* — draining.  ``_PoolState.expire_gates``, run by every
  rating, pops the gates that have passed and calls ``activate``: the
  group is rebased to the instant, the flow's bits are inserted in order
  and each of its links counts one more sharer.  Expiry is one-way,
  which is why ``next_event`` / ``advance`` refuse an instant earlier
  than the last one they were shown (or NaN).
* *finished* — ``deactivate`` undoes what ``activate`` did, from
  ``remove`` (completion or ``cancel``) and from ``advance`` when a
  group's rate is NaN (its flows' bits turn NaN: they can never finish
  and must stop taking shares); the flow keeps its bits at that instant
  in ``_PathFlow.remaining``.  A flow that leaves while gated leaves its
  heap entry behind, recognised by identity (``live`` is false).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import count

from .link import Completion, SharedLink

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

    @cached_property
    def rtt(self) -> float:
        """Total request latency: one RTT per hop, in series (summed once
        per path: a link's trace is fixed)."""
        total = 0.0
        for link in self.links:
            total += link.trace.rtt
        return total


#: Relative slack below which a flow's residual bits count as finished
#: (absorbs the float error of the drain ``bits - rate * (t - t_e)``).
_FINISH_RTOL = 1e-9

#: Absolute slack (bits).  The event time ``t_e + bits / rate`` is
#: rounded to its ulp, so the drain to it can leave ``ulp(t) * rate`` —
#: for a sub-hundred-byte flow more than the relative tolerance, and the
#: loop would spin at one instant.  A milli-bit floor absorbs it.
_FINISH_ATOL = 1e-3


@dataclass(eq=False, slots=True)
class _PathFlow:
    flow_id: int
    path: NetworkPath
    start_time: float
    data_start: float  # start_time + path RTT + any gate delay
    total_bits: float
    #: bits left while outside a group (an active flow's bits live in
    #: its group, at the group's epoch)
    remaining: float
    #: residual bits at or below which the flow counts as finished
    thresh: float
    #: the group it drains in (None = gated or finished)
    group: _Group | None = None
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

    ``delivered_bits`` and each link's ``delivered_bits`` count a flow's
    bits once, as it leaves the pool: all of them when it completes, the
    bits it drained so far when it is cancelled.  Bits of a flow still in
    flight are not counted yet.
    """

    def __init__(self) -> None:
        self._flows: dict[int, _PathFlow] = {}
        #: bits actually delivered to receivers (conservation checks)
        self.delivered_bits = 0.0
        self._pool = _PoolState()
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
        bits = float(nbytes) * 8.0
        flow = _PathFlow(
            flow_id=flow_id,
            path=path,
            start_time=float(start_time),
            data_start=float(start_time) + path.rtt + float(extra_delay),
            total_bits=bits,
            remaining=bits,
            thresh=max(_FINISH_RTOL * bits, _FINISH_ATOL),
        )
        self._flows[flow_id] = flow
        self._pool.add(flow)

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
        re-issues them on the failover path.  Bits already drained are
        counted in ``delivered_bits`` (they did cross the links); the
        flow simply never reports a :class:`Completion`.
        """
        flow = self._flows.get(flow_id)
        if flow is None:
            raise KeyError(f"flow {flow_id} is not in flight")
        self._remove(flow, done=False)

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
        return any(f.live and ds <= t for ds, _, f in self._pool.gated)

    def next_event(self, now: float) -> float:
        """Earliest future instant any link's allocation can change."""
        if not self._flows:
            raise RuntimeError("no flows in flight")
        self._move_clock(now)
        pool = self._pool
        # ``best`` starts as the next gate expiry (inf when nothing waits)
        best = pool.rate(now)
        # Zero-byte transfers complete as soon as their data start elapses.
        for f in pool.finished:
            best = min(best, max(f.data_start, now))
        # A group's head finishes first; a NaN rate's finish never wins.
        for g in pool.active:
            if g.finish < best:
                best = g.finish
        # A link's boundary is the trace's own ``now + time_to_next_change``,
        # evaluated only where its cached lower bound says it can win.
        if pool.cap_until <= best:
            links = pool.link_list
            for li, until in pool.segments.items():
                if until <= best:
                    best = min(best, now + links[li].trace.time_to_next_change(now))
        # a finish that rounds below ``now`` is due now
        return max(best, now)

    def advance(self, now: float, to_time: float) -> list[Completion]:
        """Move time from ``now`` to ``to_time``; report completions.

        ``to_time`` must not exceed the next event (allocations are
        assumed constant over the interval).  A flow completes when its
        bits at ``to_time`` are at most its finish threshold.  Completions
        are ordered by flow id for determinism when several flows finish
        simultaneously.
        """
        if not to_time >= now:  # NaN fails it too
            raise ValueError(f"cannot advance backwards: {now!r} to {to_time!r}")
        self._move_clock(now)
        self._now = to_time
        pool = self._pool
        pool.rate(now)
        finished: list[_PathFlow] = []
        stuck: list[_PathFlow] = []
        for g in pool.active:
            drain = g.rate * (to_time - g.epoch)
            # bits are ascending, so the flows within the group's largest
            # threshold are a prefix
            if g.bits[0] - drain <= g.slack:
                for f, b in zip(g.flows, g.bits):
                    rem = b - drain
                    if rem > g.slack:
                        break
                    if rem <= f.thresh:
                        finished.append(f)
            elif drain != drain:
                # A NaN rate (a trace reporting NaN past validation) leaves
                # NaN bits behind: such flows can never finish and must stop
                # taking part in shares, or virtual time creeps from trace
                # boundary to trace boundary for ever instead of stalling
                # where the driver's watchdog sees it.
                stuck += g.flows
        for f in stuck:
            pool.deactivate(f, to_time)
        # Flows can complete two ways: drained to their threshold above, or
        # zero-byte transfers once their data_start has elapsed.
        if pool.finished:
            finished.extend(f for f in pool.finished if f.data_start <= to_time)
        if not finished:
            return []
        finished.sort(key=lambda f: f.flow_id)
        done: list[Completion] = []
        for f in finished:
            finish = f.data_start if f.total_bits == 0.0 else to_time
            done.append(Completion(f.flow_id, finish, finish - f.start_time))
            self._remove(f, done=True)
        return done

    # ------------------------------------------------------------------
    def _remove(self, flow: _PathFlow, done: bool) -> None:
        del self._flows[flow.flow_id]
        self._pool.remove(flow, self._now)
        # What the flow drained crosses each hop once, charged as it leaves
        # (a completed flow's residue within its threshold counts too).
        crossed = flow.total_bits - (0.0 if done else flow.remaining)
        if crossed > 0.0:
            self.delivered_bits += crossed
            for link in flow.path.links:
                link.delivered_bits += crossed


class _Group:
    """The active flows on one hop tuple: one rate, one epoch.

    ``bits[i]`` is ``flows[i]``'s remaining bits at ``epoch``, ascending;
    ``finish`` is the head's completion instant ``epoch + bits[0] / rate``
    (``inf`` while empty) and ``slack`` at least the largest member's
    finish threshold (kept until the group empties).
    """

    __slots__ = ("hops", "flows", "bits", "rate", "epoch", "finish", "slack")

    def __init__(self, hops: tuple[int, ...]) -> None:
        self.hops = hops
        self.flows: list[_PathFlow] = []
        self.bits: list[float] = []
        self.rate = math.nan
        self.epoch = 0.0
        self.finish = math.inf
        self.slack = 0.0

    def rerate(self, now: float, cap: list[float], count: list[int]) -> None:
        """Take the rate ``min over hops of cap / count`` at ``now``,
        rebasing first if it changed bitwise."""
        rate = math.inf
        for li in self.hops:  # a min that keeps a NaN share
            share = cap[li] / count[li]
            if share < rate or share != share:
                rate = share
        if rate != self.rate:
            if self.epoch != now:
                self.rebase(now)
            self.rate = rate
            self.finish = now + self.bits[0] / rate

    def rebase(self, now: float) -> None:
        """Drain every member to ``now`` at the current rate."""
        drain = self.rate * (now - self.epoch)
        self.bits = [b - drain for b in self.bits]
        self.epoch = now


class _PoolState:
    """The groups, gates and link state behind :class:`PathScheduler`.

    ``count[li]`` is the number of active flows on link ``li`` and
    ``cap[li]`` its capacity; ``groups_on[li]`` lists the groups crossing
    it.  A link's capacity is read when it turns active (``watch``) and
    again only once ``now`` reaches ``cap_until``, whatever the trace: a
    plain ``NetworkTrace`` and a fault-windowed ``DegradedTrace`` both
    answer ``segment``.  A link whose count or capacity changes joins
    ``dirty``, and the next rating re-rates the groups on the dirty links
    only.

    The life cycle is in the module docstring.
    """

    def __init__(self) -> None:
        #: flows waiting for their ``data_start``: a heap of
        #: ``(data_start, add serial, flow)``.  An entry outlives a flow
        #: that is cancelled or completes first, and is then skipped *by
        #: identity* (``flow.live`` is false).
        self.gated: list[tuple[float, int, _PathFlow]] = []
        self._serial = count()
        self.link_list: list[SharedLink] = []
        self.link_index: dict[int, int] = {}
        #: ``id(path) -> (path, its hops' link indices)``; holding the path
        #: keeps its ``id`` from being reused while the entry lives
        self.path_ids: dict[int, tuple[NetworkPath, tuple[int, ...]]] = {}
        self.count: list[int] = []
        #: capacity per link, current for the links with a nonzero count
        #: (idle links keep a stale value nobody reads)
        self.cap: list[float] = []
        self.groups: dict[tuple[int, ...], _Group] = {}
        self.groups_on: list[list[_Group]] = []
        #: the groups with at least one member
        self.active: list[_Group] = []
        #: links whose count or capacity changed since the last rating
        self.dirty: set[int] = set()
        #: active links: ``li -> until``, a lower bound on the instant the
        #: link's capacity ``cap[li]`` can next change
        self.segments: dict[int, float] = {}
        #: at most the smallest ``until`` (a link gone idle may leave its
        #: bound behind until the next refresh)
        self.cap_until = math.inf
        #: zero-byte transfers awaiting their completion report (at their
        #: data_start); never active
        self.finished: list[_PathFlow] = []
        #: bumped on any membership change; with the instant, keys the last
        #: rating, so ``next_event`` and ``advance`` of one step rate once
        self.version = 0
        self.rated: tuple[float, int] | None = None
        self.next_gate = math.inf

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
        for link in path.links:
            if id(link) not in self.link_index:
                self.link_index[id(link)] = len(self.link_list)
                self.link_list.append(link)
                self.count.append(0)
                self.cap.append(0.0)
                self.groups_on.append([])
        ids = tuple(self.link_index[id(link)] for link in path.links)
        if ids not in self.groups:
            self.groups[ids] = g = _Group(ids)
            for li in ids:
                self.groups_on[li].append(g)
        self.path_ids[id(path)] = (path, ids)
        return ids

    def rate(self, now: float) -> float:
        """Bring the groups' rates to ``now``; return the next gate expiry.

        Gates that have expired by ``now`` are activated first (see
        :meth:`expire_gates`); the next gate is the earliest
        ``data_start`` still ahead (``inf`` when nothing waits).  Then
        the groups on dirty links are re-rated — ``min`` over hops of
        ``cap / count``, the reference's expression
        (``tests/net/reference_scheduler.py``) — and a group whose rate
        changed bitwise is rebased to ``now`` first, so its bits drained
        at the rate they were drained at.
        """
        if self.rated == (now, self.version):
            return self.next_gate
        self.next_gate = self.expire_gates(now)
        if now >= self.cap_until:
            self.refresh(now)
        if self.dirty:
            todo = {id(g): g for li in self.dirty for g in self.groups_on[li] if g.flows}
            for g in todo.values():
                g.rerate(now, self.cap, self.count)
            self.dirty.clear()
        self.rated = (now, self.version)
        return self.next_gate

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
        return math.inf

    def activate(self, flow: _PathFlow, now: float) -> None:
        g = self.groups[flow.link_ids]
        if not g.flows:
            self.active.append(g)
            g.epoch, g.rate = now, math.nan
        elif g.epoch != now:
            g.rebase(now)
        i = bisect_right(g.bits, flow.remaining)
        g.bits.insert(i, flow.remaining)
        g.flows.insert(i, flow)
        g.slack = max(g.slack, flow.thresh)
        flow.group = g
        for li in flow.link_ids:
            self.count[li] += 1
            self.dirty.add(li)
            if self.count[li] == 1:
                self.watch(li, now)

    def deactivate(self, flow: _PathFlow, now: float) -> None:
        g = flow.group
        i = g.flows.index(flow)
        flow.remaining = g.bits[i] - g.rate * (now - g.epoch)
        del g.flows[i], g.bits[i]
        flow.group = None
        self.version += 1
        if not g.flows:
            self.active.remove(g)
            g.finish, g.slack = math.inf, 0.0
        elif i == 0:
            g.finish = g.epoch + g.bits[0] / g.rate
        for li in flow.link_ids:
            self.count[li] -= 1
            self.dirty.add(li)
            if not self.count[li]:
                del self.segments[li]

    def watch(self, li: int, now: float) -> None:
        """Read link ``li``'s trace segment at ``now``: its capacity, equal
        to ``bandwidth_at(now)``, into ``cap`` and the lower bound on its
        next change into ``segments`` (the trace's ``segment``).  A bound at
        or below ``now`` — a segment end that would not move the clock, see
        ``NetworkTrace._locate`` — makes every rating re-read the link and
        every ``next_event`` evaluate its boundary until one lies ahead.
        """
        self.cap[li], until = self.link_list[li].trace.segment(now)
        self.segments[li] = until
        if until < self.cap_until:
            self.cap_until = until

    def refresh(self, now: float) -> None:
        """Re-read every link whose segment may have ended by ``now``."""
        self.cap_until = math.inf
        for li, until in list(self.segments.items()):
            if until <= now:
                old = self.cap[li]
                self.watch(li, now)
                if self.cap[li] != old:
                    self.dirty.add(li)
            elif until < self.cap_until:
                self.cap_until = until

    def remove(self, flow: _PathFlow, now: float) -> None:
        if flow.group is not None:
            self.deactivate(flow, now)
        flow.live = False
        if flow in self.finished:
            self.finished.remove(flow)
        self.version += 1
