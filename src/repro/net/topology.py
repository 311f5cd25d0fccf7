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
  active flow at its path rate and reports completions.

The allocation is *per-link* processor sharing capped by the path
minimum — deterministic and monotone (adding a hop can never increase a
flow's rate), though not globally max-min (bandwidth a flow cannot use on
a non-bottleneck hop is not redistributed; the conservative model).

**One engine, one reference.**  Every event step is array math over
flow-state tensors: flow scalars live in slot-indexed NumPy arrays, each
flow's hop membership is a row of link indices in a dense
``(slot, hop)`` matrix, per-link fair shares are one link-sized
``cap / denom`` gathered through that matrix, per-flow rates one ``min``
over the hop axis, and the next completion horizon one ``np.min`` over
``remaining / rate``.  The per-flow Python loop this replaced lives on
as ``tests/net/reference_scheduler.py::ReferenceScheduler`` — same
contract, its own share arithmetic — and ``tests/net/test_topology.py``
pins the two **bit-exact** on a hypothesis grid of mixed weights,
staggered starts, gated / cancelled / ``sync``-injected flows and one-
to three-hop paths over shared links.  The one order-sensitive
reduction — the ``weighted`` share denominator, where NumPy's pairwise
summation diverges from Python's sequential ``sum`` at 8+ flows — is an
insertion-order Python sum here for that reason.

**A flow's life cycle: gated → active → finished.**  Which flows share a
link is not re-derived each step; it is kept, and changes only at events
the scheduler already handles:

* *gated* — registered, waiting for ``data_start`` (path RTT plus any
  encode wait).  ``_VectorState.add`` queues it in a heap keyed by
  ``data_start``; ``next_event`` reads the head as the next gate expiry.
  Zero-byte flows skip the heap and go straight to *finished*.
* *active* — draining.  ``_VectorState.expire_gates``, run by every
  allocation, pops the gates that have passed and calls ``activate``: the
  slot's ``active`` bit is set and each of the flow's links counts one
  more sharer (``link_count`` / ``denom``).  Expiry is one-way, which is
  why ``next_event`` / ``advance`` / ``sync`` refuse an instant earlier
  than the last one they were shown.
* *finished* — ``deactivate`` undoes exactly what ``activate`` did, from
  three places: ``remove`` (completion or ``cancel``), ``write_remaining``
  when ``sync`` drains a solo flow to zero (it then waits in ``finished``
  for its completion report), and ``advance`` when a drain turns a flow's
  bits NaN (it can never finish and must stop taking shares).  A flow
  that leaves while still gated leaves its heap entry behind; the entry
  is recognised by the flow object (``slot == -1``), never by the slot,
  which may already belong to a newcomer.

**One-hop bit-exactness.**  A flow that has every hop to itself for its
whole lifetime resolves through :func:`path_download_time`, which on a
one-hop path performs :meth:`repro.net.link.Link.download_time`'s float
operations exactly, so a single-session fleet reproduces
``simulate_session`` bit for bit.
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

__all__ = ["NetworkPath", "PathScheduler", "path_download_time"]


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


def path_download_time(path: NetworkPath, nbytes: int, start_time: float) -> float:
    """Seconds to fetch ``nbytes`` over an otherwise-idle path.

    The multi-hop generalization of :meth:`repro.net.link.Link.download_time`:
    the instantaneous rate is the minimum over hop traces, segments end at
    the nearest boundary of any hop, and the path RTT is paid up front.
    For a one-hop path this performs the identical float operations, so it
    is bit-exact with the single-link integrator.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    if start_time < 0:
        raise ValueError("start_time must be non-negative")
    traces = [link.trace for link in path.links]
    rtt = path.rtt
    if nbytes == 0:
        return rtt
    remaining = float(nbytes) * 8.0  # bits
    t = start_time + rtt
    elapsed = rtt
    max_iterations = 10_000_000
    for _ in range(max_iterations):
        rate = min(tr.bandwidth_at(t) for tr in traces)
        seg = min(tr.time_to_next_change(t) for tr in traces)
        if rate * seg >= remaining:
            dt = remaining / rate
            return elapsed + dt
        remaining -= rate * seg
        t += seg
        elapsed += seg
    raise RuntimeError("download did not converge")  # pragma: no cover


def _bits_over(traces, start: float, end: float) -> float:
    """Bits a lone flow moves over ``[start, end]`` at the min-hop rate."""
    bits = 0.0
    t = start
    max_iterations = 10_000_000
    for _ in range(max_iterations):
        if t >= end:
            return bits
        rate = min(tr.bandwidth_at(t) for tr in traces)
        seg = min(tr.time_to_next_change(t) for tr in traces)
        step = min(seg, end - t)
        bits += rate * step
        t += step
    raise RuntimeError("integration did not converge")  # pragma: no cover


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
    nbytes: int
    path: NetworkPath
    start_time: float
    data_start: float  # start_time + path RTT + any gate delay
    weight: float
    total_bits: float
    #: exact elapsed via path_download_time when the flow had every hop to
    #: itself for its whole lifetime (None = shared/progressive)
    solo_elapsed: float | None = None
    #: row index in the scheduler's state arrays (-1 = not in the pool)
    slot: int = -1
    #: the path's hops as indices into the scheduler's link list
    link_ids: tuple[int, ...] = ()


class PathScheduler:
    """Event engine for concurrent transfers over a pool of shared links.

    Flows are registered with :meth:`add_flow` on a :class:`NetworkPath`;
    each link allocates its capacity among the flows active *on that
    link* under its own sharing policy, and a flow drains at the minimum
    of its per-hop allocations.  The driver loop is ``next_event`` →
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
        #: per-link flow registries, insertion-ordered (the weighted
        #: share denominator sums in this order)
        self._link_flows: dict[int, dict[int, _PathFlow]] = {}
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
        weight: float = 1.0,
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
        if not 0 < weight < math.inf:
            raise ValueError(f"flow {flow_id}: weight must be finite and positive")
        if not 0 <= extra_delay < math.inf:
            raise ValueError(
                f"flow {flow_id}: extra_delay must be finite and non-negative"
            )
        flow = _PathFlow(
            flow_id=flow_id,
            nbytes=nbytes,
            path=path,
            start_time=float(start_time),
            data_start=float(start_time) + path.rtt + float(extra_delay),
            weight=float(weight),
            total_bits=float(nbytes) * 8.0,
        )
        if extra_delay > 0.0:
            # A gated flow does not start moving at ``start_time + rtt``,
            # so the closed form does not describe it; forcing the
            # progressive path keeps elapsed exact.
            flow.solo_elapsed = float("nan")
        self._flows[flow_id] = flow
        for link in path.links:
            self._link_flows.setdefault(id(link), {})[flow_id] = flow
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
        flow simply never reports a :class:`Completion`.  Cancelling at
        an arbitrary instant is safe for the remaining pool: the solo
        fast path only engages for a flow that has drained nothing,
        which after a cancellation can only be a flow still inside its
        RTT/encode gate — alone from here on, its closed form is exact.
        """
        flow = self._flows.get(flow_id)
        if flow is None:
            raise KeyError(f"flow {flow_id} is not in flight")
        self._remove(flow)

    def busy(self) -> bool:
        """True while any transfer is unfinished."""
        return bool(self._flows)

    def sync(self, now: float) -> None:
        """Materialize a solo flow's progress up to ``now``.

        The solo fast path resolves a lone untouched flow's finish in
        closed form and drains nothing until it completes — valid only
        while the pool stays unchanged, the pattern of completion-driven
        drivers.  A driver that injects a flow at any other instant (the
        fleet's deferred CDN requests) must call this first: the solo
        flow's bits moved so far are accounted and it continues
        progressively, instead of silently restarting from its full byte
        count when the newcomer lands.
        """
        self._move_clock(now)
        solo = self._solo_flow()
        if solo is None or solo.total_bits == 0.0 or now <= solo.data_start:
            return
        traces = [link.trace for link in solo.path.links]
        drained = min(_bits_over(traces, solo.data_start, now), solo.total_bits)
        if drained <= 0.0:
            return
        self.delivered_bits += drained
        solo.solo_elapsed = None
        # Per-link accounting waits for ``_remove`` (crossed = total -
        # remaining at removal), which covers this drain.
        self._vec.write_remaining(solo, solo.total_bits - drained)

    # ------------------------------------------------------------------
    def _solo_flow(self) -> _PathFlow | None:
        """The lone untouched flow, if the whole pool holds exactly one.

        A flow that is alone *now* and has drained nothing is guaranteed
        every hop to itself for its entire lifetime (drivers only add
        flows when one completes, or :meth:`sync` first), so its finish
        resolves exactly through segment-exact integration.
        """
        if len(self._flows) != 1:
            return None
        flow = next(iter(self._flows.values()))
        if self._vec.remaining[flow.slot] != flow.total_bits:
            return None
        if flow.solo_elapsed is not None and flow.solo_elapsed != flow.solo_elapsed:
            return None  # NaN sentinel: gated flow, use the fluid path
        return flow

    def _move_clock(self, now: float) -> None:
        """Gate expiry is one-way, so virtual time may not run backwards."""
        if now < self._now:
            raise ValueError(
                f"time went backwards: {now!r} after {self._now!r}"
            )
        self._now = now

    def _gate_due(self, t: float) -> bool:
        """Telemetry's question (``fleet.wake.gate``): does a queued flow's
        ``data_start`` fall at or before ``t``?  Reads, changes nothing."""
        return any(f.slot >= 0 and ds <= t for ds, _, f in self._vec.gated)

    def next_event(self, now: float) -> float:
        """Earliest future instant any link's allocation can change."""
        if not self._flows:
            raise RuntimeError("no flows in flight")
        self._move_clock(now)
        solo = self._solo_flow()
        if solo is not None:
            if solo.solo_elapsed is None:
                solo.solo_elapsed = path_download_time(
                    solo.path, solo.nbytes, solo.start_time
                )
            return solo.start_time + solo.solo_elapsed
        v = self._vec
        # ``best`` starts as the next gate expiry (inf when nothing waits)
        idx, rates, min_ttc, best = self._vec_alloc(now)
        # Already-empty flows (zero-byte transfers, sync-drained solos)
        # complete as soon as their data start elapses.
        for f in v.finished:
            best = min(best, max(f.data_start, now))
        if min_ttc < np.inf:
            best = min(best, now + min_ttc)
        if idx.size:
            best = min(best, (now + v.remaining[idx] / rates).min())
        return float(best)

    def advance(self, now: float, to_time: float) -> list[Completion]:
        """Drain all flows from ``now`` to ``to_time``; report completions.

        ``to_time`` must not exceed the next event (allocations are
        assumed constant over the interval).  Completions are ordered by
        flow id for determinism when several flows finish simultaneously.
        """
        if to_time < now:
            raise ValueError("cannot advance backwards")
        self._move_clock(now)
        self._now = to_time
        v = self._vec
        solo = self._solo_flow()
        if solo is not None and solo.solo_elapsed is not None:
            finish = solo.start_time + solo.solo_elapsed
            if finish <= to_time:
                self.delivered_bits += solo.total_bits
                v.remaining[solo.slot] = 0.0  # ``_remove`` charges the hops
                self._remove(solo)
                return [Completion(solo.flow_id, finish, solo.solo_elapsed)]
            return []
        idx, rates, _, _ = self._vec_alloc(now)
        finished: list[_PathFlow] = []
        if idx.size:
            dt = to_time - now
            cur = v.remaining[idx]
            drained = np.minimum(rates * dt, cur)
            after = cur - drained
            flush = after <= v.thresh[idx]
            total_bits = float(drained.sum())
            # Per-link delivered-bits accounting is deferred to
            # ``_remove``: a per-flow loop here would be O(active flows)
            # of Python per event step and dominate large-fleet wall time.
            if flush.any():
                total_bits += float(after[flush].sum())
                after[flush] = 0.0
                flow_of = v.flow_of
                finished.extend(flow_of[s] for s in idx[flush].tolist())
            if total_bits != total_bits:
                # A NaN drain (a trace reporting NaN past validation)
                # leaves NaN bits behind: such a flow can never finish
                # and must stop taking part in shares, or virtual time
                # creeps from trace boundary to trace boundary for ever
                # instead of stalling where the driver's watchdog sees it.
                for s in idx[after != after].tolist():
                    v.deactivate(v.flow_of[s])
            self.delivered_bits += total_bits
            v.remaining[idx] = after
            v.version += 1
        # Flows can complete two ways: drained to zero above, or already
        # empty (zero-byte transfers, sync-drained solos) once their
        # data_start has elapsed.
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
    def _link_seg(self, li: int, now: float) -> tuple[float, float]:
        """``(bandwidth, time-to-next-change)`` for link ``li`` at ``now``.

        Plain :class:`NetworkTrace` lookups dominate the per-event cost at
        fleet scale (two bisect calls per active link per event), so the
        current segment is cached per link and revalidated with one
        ``fmod`` and two comparisons.  Every returned value reproduces the
        trace methods' float expressions exactly — ``bandwidth_at`` is a
        cached segment constant, ``time_to_next_change`` is the same
        ``nxt - local`` subtraction.  Wrapped traces (e.g.
        fault-injection ``DegradedTrace``) have time-varying composition
        and fall back to the trace methods.
        """
        trace = self._vec.link_list[li].trace
        if type(trace) is not NetworkTrace:
            return trace.bandwidth_at(now), trace.time_to_next_change(now)
        local = now % trace._duration
        seg = self._vec.seg_cache.get(li)
        if seg is None or seg[0] is not trace or not (seg[1] <= local < seg[2]):
            ts = trace._ts_list
            i = bisect_right(ts, local)
            hi = ts[i] if i < len(ts) else trace._duration
            seg = (trace, ts[i - 1], hi, trace._bw_list[i - 1])
            self._vec.seg_cache[li] = seg
        return seg[3], seg[2] - local

    def _vec_alloc(self, now: float):
        """Active slots, their rates, and the two event horizons around them.

        Returns ``(idx, rates, min_ttc, next_gate)``.  Gates that have
        expired by ``now`` are activated first (see
        :meth:`_VectorState.expire_gates`); ``next_gate`` is the earliest
        ``data_start`` still ahead (``inf`` when nothing waits).
        ``min_ttc`` is the smallest time-to-next-change over links
        carrying active flows (``inf`` when none) — stashed here because
        the capacity lookup already touches each active link's trace
        segment, and ``min(now + ttc_i) == now + min(ttc_i)`` bit-exactly
        (adding the same ``now`` is monotone), so ``next_event`` never
        re-queries the traces.  Cached on ``(now, state version)`` so the
        ``next_event`` → ``advance`` pair of one event step computes the
        allocation once.  The float expressions are the per-flow
        reference's (``tests/net/reference_scheduler.py``), pinned
        bit-exact by its parity grid: fair denominators are integer counts
        kept at the activation transitions, weighted denominators are an
        insertion-order Python sum (NumPy's pairwise reduction diverges
        from ``sum`` at 8+ flows), shares are ``cap / denom`` — one
        link-sized division, gathered per hop — or ``(cap * w) / denom``,
        and the per-flow rate is an order-insensitive min over the hop
        axis.
        """
        v = self._vec
        key = (now, v.version)
        cached = v.alloc_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        next_gate = v.expire_gates(now)
        idx = v.active[: v.n_slots].nonzero()[0]
        if idx.size == 0:
            out = (idx, _EMPTY, np.inf, next_gate)
        elif len(v.link_list) == 2:
            # One real link in the pool (the classic single-bottleneck
            # fleet): every active flow shares it, so the whole incidence
            # machinery collapses to one share computation.
            link = v.link_list[1]
            capacity, min_ttc = self._link_seg(1, now)
            if link.policy == "weighted":
                denom = 0.0
                for f in self._link_flows[id(link)].values():
                    if v.active[f.slot]:
                        denom += f.weight
                rates = capacity * v.weight[idx] / denom
            else:
                rates = np.full(idx.size, capacity / float(idx.size))
            out = (idx, rates, min_ttc, next_gate)
        else:
            rows = v.hops[idx]
            cap, denom = v.cap, v.denom
            min_ttc = np.inf
            for li in v.link_count:  # the links carrying an active flow
                cap[li], ttc = self._link_seg(li, now)
                if ttc < min_ttc:
                    min_ttc = ttc
            if v.weighted_links:
                for li in v.weighted_links:
                    if li in v.link_count:
                        total = 0.0
                        for f in self._link_flows[id(v.link_list[li])].values():
                            if v.active[f.slot]:
                                total += f.weight
                        denom[li] = total
                numer = np.where(
                    v.is_weighted[rows],
                    cap[rows] * v.weight[idx][:, None],
                    cap[rows],
                )
                rates = (numer / denom[rows]).min(axis=1)
            else:
                rates = (cap / denom)[rows].min(axis=1)
            out = (idx, rates, min_ttc, next_gate)
        v.alloc_cache = (key, out)
        return out

    def _remove(self, flow: _PathFlow) -> None:
        # Deferred per-link accounting: everything the flow drained over
        # its lifetime crosses each hop exactly once, charged as it
        # leaves the pool (completion or cancellation).
        crossed = flow.total_bits - float(self._vec.remaining[flow.slot])
        if crossed > 0.0:
            for link in flow.path.links:
                link.delivered_bits += crossed
        del self._flows[flow.flow_id]
        for link in flow.path.links:
            del self._link_flows[id(link)][flow.flow_id]
        self._vec.remove(flow)


_EMPTY = np.empty(0)


class _VectorState:
    """Slot-indexed array state behind :class:`PathScheduler`.

    Each in-flight flow owns one row across a set of parallel arrays plus
    one row of the ``hops`` matrix, whose entries are indices into
    ``link_list`` (index 0 is a padding sentinel for paths shorter than
    the matrix width).  Slots are recycled through a free list, so a
    steady-state fleet allocates nothing per event; arrays double when
    the high-water mark is hit.

    A flow is *gated*, *active* or *finished* (the module docstring has
    the life cycle); ``active``, ``link_count`` and ``denom`` change only
    inside :meth:`activate` / :meth:`deactivate`.
    """

    _INITIAL_SLOTS = 64

    def __init__(self) -> None:
        cap = self._INITIAL_SLOTS
        self.n_slots = 0  # high-water mark
        self.free: list[int] = []
        self.flow_of: list[_PathFlow | None] = [None] * cap
        self.remaining = np.zeros(cap)
        self.weight = np.zeros(cap)
        #: per-flow finish threshold, precomputed at add time
        self.thresh = np.zeros(cap)
        #: slots whose flow is draining (gate expired, bits left)
        self.active = np.zeros(cap, dtype=bool)
        self.hops = np.zeros((cap, 2), dtype=np.intp)
        #: flows waiting for their ``data_start``: a heap of
        #: ``(data_start, add serial, flow)``.  An entry outlives a flow
        #: that is cancelled or completes first, and is then skipped *by
        #: identity* (``flow.slot == -1``) — the slot it names may already
        #: belong to another flow.
        self.gated: list[tuple[float, int, _PathFlow]] = []
        self._serial = count()
        #: index 0 reserved as the padding sentinel
        self.link_list: list[SharedLink | None] = [None]
        self.link_index: dict[int, int] = {}
        self.weighted_links: list[int] = []
        self.is_weighted = np.zeros(1, dtype=bool)
        #: active flows per link, links with none left out — counted over
        #: each flow's own hops (``link_ids``), never over its ``hops``
        #: row: the row's padding is link 0, and ``_grow_cols`` can widen
        #: it between a flow's activation and its removal
        self.link_count: dict[int, int] = {}
        #: fair-share denominator per link: the count as a float, 1 for an
        #: idle link and for the sentinel, so ``cap / denom`` never divides
        #: by zero and the sentinel's share is ``inf`` (never a min)
        self.denom = np.ones(1)
        #: capacity per link, refreshed for the links in ``link_count`` at
        #: every allocation (idle links keep a stale value nobody gathers)
        self.cap = np.full(1, np.inf)
        #: flows already at zero remaining bits that still await their
        #: completion report: zero-byte transfers (complete at their
        #: data_start) and solo flows fully drained by an out-of-band
        #: ``sync`` — neither is ever active.
        self.finished: list[_PathFlow] = []
        #: bumped on any state change; keys the allocation cache
        self.version = 0
        self.alloc_cache: tuple | None = None
        #: per-link current trace segment, ``li -> (trace, lo, hi, bw)``
        #: in trace-local time; revalidated by ``_link_seg``
        self.seg_cache: dict[int, tuple] = {}

    def add(self, flow: _PathFlow) -> None:
        links = flow.path.links
        grew_links = False
        for link in links:
            if id(link) not in self.link_index:
                li = len(self.link_list)
                self.link_index[id(link)] = li
                self.link_list.append(link)
                if link.policy == "weighted":
                    self.weighted_links.append(li)
                grew_links = True
        if grew_links:
            self.is_weighted = np.array(
                [l is not None and l.policy == "weighted" for l in self.link_list]
            )
            fresh = len(self.link_list) - len(self.denom)
            self.denom = np.concatenate([self.denom, np.ones(fresh)])
            self.cap = np.concatenate([self.cap, np.zeros(fresh)])
        if self.free:
            s = self.free.pop()
        else:
            if self.n_slots == len(self.active):
                self._grow_rows()
            s = self.n_slots
            self.n_slots += 1
        if len(links) > self.hops.shape[1]:
            self._grow_cols(len(links))
        flow.slot = s
        flow.link_ids = tuple(self.link_index[id(link)] for link in links)
        self.flow_of[s] = flow
        self.remaining[s] = flow.total_bits
        self.weight[s] = flow.weight
        self.thresh[s] = max(_FINISH_RTOL * flow.total_bits, _FINISH_ATOL)
        row = self.hops[s]
        row[:] = 0
        row[: len(links)] = flow.link_ids
        if flow.total_bits == 0.0:
            self.finished.append(flow)
        else:
            heappush(self.gated, (flow.data_start, next(self._serial), flow))
        self.version += 1

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
            if flow.slot >= 0:
                if data_start > now:
                    return data_start
                # a solo flow ``sync`` drained to zero is already queued
                # in ``finished`` and never becomes active
                if self.remaining[flow.slot] > 0.0:
                    self.activate(flow)
            heappop(gated)
        return np.inf

    def activate(self, flow: _PathFlow) -> None:
        self.active[flow.slot] = True
        counts = self.link_count
        for li in flow.link_ids:
            counts[li] = n = counts.get(li, 0) + 1
            self.denom[li] = n

    def deactivate(self, flow: _PathFlow) -> None:
        self.active[flow.slot] = False
        counts = self.link_count
        for li in flow.link_ids:
            n = counts[li] - 1
            if n:
                counts[li] = n
                self.denom[li] = n
            else:
                del counts[li]
                self.denom[li] = 1.0

    def remove(self, flow: _PathFlow) -> None:
        s = flow.slot
        if self.active[s]:
            self.deactivate(flow)
        self.flow_of[s] = None
        self.free.append(s)
        flow.slot = -1
        if flow in self.finished:
            self.finished.remove(flow)
        self.version += 1

    def write_remaining(self, flow: _PathFlow, remaining: float) -> None:
        """Record an out-of-band drain (``sync``) in the arrays.

        A sync that empties the flow entirely (a deferred request landing
        exactly on the solo finish) must also queue it for completion:
        with zero remaining bits it is invisible to the active-drain pass.
        """
        self.remaining[flow.slot] = remaining
        if remaining <= 0.0:
            if self.active[flow.slot]:
                self.deactivate(flow)
            if flow not in self.finished:
                self.finished.append(flow)
        self.version += 1

    def _grow_rows(self) -> None:
        def doubled(a: np.ndarray) -> np.ndarray:
            out = np.zeros((len(a) * 2,) + a.shape[1:], dtype=a.dtype)
            out[: len(a)] = a
            return out

        self.remaining = doubled(self.remaining)
        self.weight = doubled(self.weight)
        self.thresh = doubled(self.thresh)
        self.active = doubled(self.active)
        self.hops = doubled(self.hops)
        self.flow_of.extend([None] * (len(self.active) - len(self.flow_of)))

    def _grow_cols(self, n_hops: int) -> None:
        wide = np.zeros((len(self.hops), n_hops), dtype=self.hops.dtype)
        wide[:, : self.hops.shape[1]] = self.hops
        self.hops = wide
