"""First-class fault events for fleet simulations (chaos scenarios).

The ROADMAP's "closed-loop control plane + chaos scenarios" item asks
for fault injection as population/topology events rather than hand-built
one-off topologies.  This module defines the fault kinds the operations
literature stresses a CDN with, scheduled in virtual time against a
:class:`~repro.streaming.cdn.CDNTopology`:

* :class:`EdgeOutage` — an edge site goes dark for a window.  The fleet
  driver re-steers every viewer assigned to it onto the least-loaded
  live edge (failover re-assignment), cancels the dead edge's in-flight
  transfers and re-issues them from the outage instant, and drops the
  edge's cache contents (a restarted node comes back cold).
* :class:`RegionOutage` — a named fault domain (see
  ``CDNTopology.regions``) goes dark: every member edge suffers the
  same outage window together.  Real incidents are correlated — a power
  feed, a metro fiber cut, a bad config push — so independent per-edge
  events systematically understate blast radius.
* :class:`GrayFailure` — a *partial* fault: the edge keeps serving but
  its effective service capacity is scaled by ``capacity_factor``
  (through the same :class:`DegradedTrace` window machinery, so gray
  windows compose with backhaul degradations), and a deterministic
  ``drop_fraction`` of its requests is dropped — each dropped request
  pays a ``drop_delay_s`` retransmit penalty and counts as a retry.
  The PoP browns out before it blacks out.
* :class:`BackhaulDegradation` — an edge's origin→edge backhaul loses
  capacity for a window (a congested or flapping transit path).
  Modeled as a pure trace transformation (:class:`DegradedTrace`), so
  the scheduler's segment-exact integration stays exact through the
  window boundaries.
* :class:`FlashCrowd` — a step of extra viewers piling onto one content
  (the premiere/breaking-news pattern).  Crowd viewers are materialized
  as ordinary sessions *before* the run via
  :meth:`FaultSchedule.expand_population`; the schedule entry dates the
  load step (the onset :func:`~repro.obs.damage.fault_damage` measures
  from) and counts in ``faults_injected``.

:class:`CorrelatedFaultGenerator` builds regional schedules the way
incidents actually spread: a seeded origin region fails, and the
failure cascades to neighboring regions with a per-hop probability —
all draws from one ``numpy`` ``SeedSequence``, so a chaos scenario
replays exactly.

:class:`RetryPolicy` is the *client* side of the fault model: a
per-request virtual-time timeout, capped exponential backoff between
attempts, a max-attempts budget, and an optional hedge to a second
edge.  ``simulate_fleet(retry_policy=...)`` replaces the implicit
single-retry evacuation bookkeeping with this policy's state.

A :class:`FaultSchedule` bundles the events, validates them against a
topology, and answers the questions the fleet loop asks: which instants
the event loop must wake at (:meth:`boundary_times`) and which per-edge
total-outage windows the events resolve to
(:meth:`edge_outage_spans`).

An empty schedule is falsy and ``simulate_fleet`` treats it exactly as
``faults=None`` — the disabled mode is bit-exact with the unfaulted
simulator (the control plane's entry in the oracle-parity convention).
"""

from __future__ import annotations

import math
import numbers
import zlib
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from ..net.traces import _BOUND_SLACK
from ..obs.events import (
    EV_FAULT_CROWD,
    EV_FAULT_DEGRADATION,
    EV_FAULT_GRAY,
    EV_FAULT_OUTAGE,
    EV_FAULT_REGION_OUTAGE,
)
from .cdn import _check_count
from .chunks import VideoSpec
from .simulator import FleetSession

__all__ = [
    "EdgeOutage",
    "RegionOutage",
    "GrayFailure",
    "BackhaulDegradation",
    "FlashCrowd",
    "FaultSchedule",
    "CorrelatedFaultGenerator",
    "RetryPolicy",
    "DegradedTrace",
    "flash_crowd_sessions",
]


@dataclass(frozen=True)
class EdgeOutage:
    """Edge ``edge`` serves nothing during ``[start, start + duration)``."""

    edge: int
    start: float
    duration: float

    def __post_init__(self) -> None:
        _check_count("edge", self.edge, 0)
        if self.start < 0:
            raise ValueError(f"start must be non-negative, got {self.start!r}")
        if not self.duration > 0:
            raise ValueError(
                f"duration must be positive, got {self.duration!r}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class RegionOutage:
    """Fault domain ``region`` goes dark during ``[start, start + duration)``.

    Resolved against ``CDNTopology.regions`` at run time: every member
    edge of the named region suffers the identical outage window, and
    the fleet driver evacuates them together (the correlated-failure
    mode independent :class:`EdgeOutage` events cannot express).  Counts
    as *one* injected fault however many edges the region holds.
    """

    region: str
    start: float
    duration: float

    def __post_init__(self) -> None:
        if not self.region:
            raise ValueError("region name must be non-empty")
        if self.start < 0:
            raise ValueError(f"start must be non-negative, got {self.start!r}")
        if not self.duration > 0:
            raise ValueError(
                f"duration must be positive, got {self.duration!r}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class GrayFailure:
    """Edge ``edge`` *browns out* during ``[start, start + duration)``.

    A partial fault: the edge keeps serving, but

    * its access-link capacity is multiplied by ``capacity_factor``
      through the window (installed as a :class:`DegradedTrace` window
      on the edge's access trace — multiple gray windows, and gray over
      a backhaul degradation, compose exactly like any other windows);
    * a deterministic ``drop_fraction`` of the requests dispatched to
      it during the window is dropped.  A dropped request is modeled as
      its own retransmit: the transfer starts ``drop_delay_s`` late and
      the attempt counts in the report's retry fields.  The drop draw
      hashes ``(edge, session, request instant)`` so any replay agrees
      request by request.

    ``capacity_factor`` must be in ``(0, 1]`` (use
    :class:`EdgeOutage` / :class:`RegionOutage` for a total loss).
    """

    edge: int
    start: float
    duration: float
    capacity_factor: float = 0.5
    drop_fraction: float = 0.0
    drop_delay_s: float = 1.0

    def __post_init__(self) -> None:
        _check_count("edge", self.edge, 0)
        if self.start < 0:
            raise ValueError(f"start must be non-negative, got {self.start!r}")
        if not self.duration > 0:
            raise ValueError(
                f"duration must be positive, got {self.duration!r}"
            )
        if not 0.0 < self.capacity_factor <= 1.0:
            raise ValueError(
                "capacity_factor must be in (0, 1] (use an outage for a "
                f"total loss), got {self.capacity_factor!r}"
            )
        if not 0.0 <= self.drop_fraction <= 1.0:
            raise ValueError(
                f"drop_fraction must be in [0, 1], got {self.drop_fraction!r}"
            )
        if not self.drop_delay_s > 0:
            raise ValueError(
                f"drop_delay_s must be positive, got {self.drop_delay_s!r}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration

    def covers(self, t: float) -> bool:
        return self.start <= t < self.end

    def drops(self, sid: int, t: float) -> bool:
        """Deterministic per-request drop draw (replay-exact)."""
        if self.drop_fraction <= 0.0:
            return False
        if self.drop_fraction >= 1.0:
            return True
        digest = zlib.crc32(
            f"gray:0:{self.edge}:{sid}:{t!r}".encode("utf-8")
        )
        return (digest % (1 << 20)) / float(1 << 20) < self.drop_fraction


@dataclass(frozen=True)
class BackhaulDegradation:
    """Edge ``edge``'s backhaul capacity is scaled by ``factor`` during
    ``[start, start + duration)``.

    ``factor`` must be positive (a zero-capacity link would stall flows
    forever — model a total loss as an :class:`EdgeOutage` instead);
    factors above 1.0 are allowed (burst capacity).  Overlapping windows
    on the same edge compose multiplicatively.
    """

    edge: int
    start: float
    duration: float
    factor: float

    def __post_init__(self) -> None:
        _check_count("edge", self.edge, 0)
        if self.start < 0:
            raise ValueError(f"start must be non-negative, got {self.start!r}")
        if not self.duration > 0:
            raise ValueError(
                f"duration must be positive, got {self.duration!r}"
            )
        if not self.factor > 0:
            raise ValueError(
                f"factor must be positive (use EdgeOutage for a total "
                f"loss), got {self.factor!r}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class FlashCrowd:
    """``n_viewers`` extra sessions of ``spec`` joining from ``start``.

    Joins are spread evenly over ``[start, start + ramp_seconds]`` (a
    step with a short ramp, the shape measured flash crowds have).  The
    sessions themselves must be materialized into the fleet's session
    list before the run — :meth:`FaultSchedule.expand_population` does
    that from a template session.  In the run the entry only counts in
    ``faults_injected``; its ``start`` is the onset a crowd's damage is
    measured from, against the population without the crowd.
    """

    spec: VideoSpec
    start: float
    n_viewers: int
    ramp_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"start must be non-negative, got {self.start!r}")
        if self.n_viewers < 1:
            raise ValueError(
                f"n_viewers must be >= 1, got {self.n_viewers}"
            )
        if self.ramp_seconds < 0:
            raise ValueError(
                f"ramp_seconds must be non-negative, got {self.ramp_seconds!r}"
            )


#: The event kinds a :class:`FaultSchedule` accepts.
FAULT_KINDS = (
    EdgeOutage,
    RegionOutage,
    GrayFailure,
    BackhaulDegradation,
    FlashCrowd,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side resilience knobs, all in *virtual* time.

    The production client loop: an attempt that has not completed
    ``timeout_s`` after its request instant is cancelled and retried
    after a capped exponential backoff
    (``min(backoff_cap_s, backoff_base_s * 2**(k-1))`` before the
    ``k``-th retry); ``max_attempts`` bounds the attempts whose failure
    still schedules another try — once the budget is spent the final
    attempt runs to completion untimed (a simulator must deliver every
    chunk eventually; the report's timeout/attempt fields record how
    hard the client fought for it).  ``hedge=True`` sends a timed-out
    session's retry to the least-loaded *other* live edge immediately
    (no backoff) instead of waiting out the same edge — the
    hedge-to-second-edge pattern.

    Outage evacuations also run through the policy: their re-issued
    attempts wait out the same capped backoff.  The default
    (``timeout_s=inf``) never times anything out, so
    ``RetryPolicy()``-carrying runs without faults stay bit-exact with
    bare runs — the disabled-mode parity the convention requires.
    """

    timeout_s: float = math.inf
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 4.0
    max_attempts: int = 4
    hedge: bool = False

    def __post_init__(self) -> None:
        # chained so NaN fails them (every comparison with NaN is false);
        # ``inf`` stays legal only for the timeout, where it means "never"
        if not 0 < self.timeout_s <= math.inf:
            raise ValueError(
                f"timeout_s must be positive, got {self.timeout_s!r}"
            )
        if not 0 <= self.backoff_base_s < math.inf:
            raise ValueError(
                f"backoff_base_s must be finite and non-negative, got "
                f"{self.backoff_base_s!r}"
            )
        if not self.backoff_base_s <= self.backoff_cap_s < math.inf:
            raise ValueError(
                "backoff_cap_s must be finite and >= backoff_base_s, got "
                f"{self.backoff_cap_s!r} (backoff_base_s "
                f"{self.backoff_base_s!r})"
            )
        if (
            isinstance(self.max_attempts, bool)
            or not isinstance(self.max_attempts, numbers.Integral)
            or not self.max_attempts >= 1
        ):
            raise ValueError(
                f"max_attempts must be an integer >= 1, got "
                f"{self.max_attempts!r}"
            )

    def backoff(self, retry_index: int) -> float:
        """Backoff before retry ``retry_index`` (1-based), capped."""
        if retry_index < 1:
            raise ValueError("retry_index is 1-based")
        return min(
            self.backoff_cap_s,
            self.backoff_base_s * (2.0 ** (retry_index - 1)),
        )


def flash_crowd_sessions(
    crowd: FlashCrowd, template: FleetSession
) -> list[FleetSession]:
    """Materialize one flash crowd as fleet sessions cloning ``template``.

    Every crowd viewer runs the template's controller/latency/config
    stack on the crowd's content, joining at evenly spaced instants over
    the ramp — deterministic, so a crowd run replays exactly.
    """
    out = []
    for i in range(crowd.n_viewers):
        frac = i / crowd.n_viewers
        out.append(
            replace(
                template,
                spec=crowd.spec,
                join_time=crowd.start + frac * crowd.ramp_seconds,
            )
        )
    return out


@dataclass(frozen=True)
class CorrelatedFaultGenerator:
    """Seeded generator of correlated regional outage schedules.

    Incidents spread: the origin region fails, then each region at hop
    distance ``d`` along the declared region order (a chain — the
    simplest blast-radius geometry) fails with probability
    ``cascade_probability ** d``, its onset lagging
    ``d * cascade_delay_s`` behind the origin's.  All randomness comes
    from one :class:`numpy.random.SeedSequence` child stream, so a
    scenario is a pure function of ``(seed, regions, origin, window)``
    and replays exactly.
    """

    seed: int = 0
    cascade_probability: float = 0.3
    cascade_delay_s: float = 5.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.cascade_probability <= 1.0:
            raise ValueError(
                "cascade_probability must be in [0, 1], got "
                f"{self.cascade_probability!r}"
            )
        if self.cascade_delay_s < 0:
            raise ValueError(
                f"cascade_delay_s must be non-negative, got "
                f"{self.cascade_delay_s!r}"
            )

    def generate(
        self,
        regions: Sequence[str],
        origin: str,
        start: float,
        duration: float,
    ) -> FaultSchedule:
        """One correlated incident: ``origin`` fails at ``start``, the
        cascade is drawn region by region in declaration order."""
        import numpy as np

        names = list(regions)
        if origin not in names:
            raise ValueError(
                f"origin region {origin!r} is not one of {names}"
            )
        if start < 0 or not duration > 0:
            raise ValueError(
                "need start >= 0 and duration > 0, got "
                f"({start!r}, {duration!r})"
            )
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        o = names.index(origin)
        events: list[RegionOutage] = [
            RegionOutage(region=origin, start=start, duration=duration)
        ]
        # One draw per non-origin region, in declaration order, whether
        # or not it fails — the draw count is fixed, so adding a region
        # at the end never reshuffles earlier regions' outcomes.
        for i, name in enumerate(names):
            if name == origin:
                continue
            d = abs(i - o)
            draw = float(rng.random())
            if draw < self.cascade_probability ** d:
                events.append(
                    RegionOutage(
                        region=name,
                        start=start + d * self.cascade_delay_s,
                        duration=duration,
                    )
                )
        events.sort(key=lambda ev: (ev.start, ev.region))
        return FaultSchedule(tuple(events))


@dataclass(frozen=True)
class FaultSchedule:
    """A validated set of fault events for one fleet run.

    Empty schedules are falsy; ``simulate_fleet(faults=FaultSchedule())``
    is bit-exact with ``faults=None``.
    """

    events: tuple = ()

    def __post_init__(self) -> None:
        for ev in self.events:
            if not isinstance(ev, FAULT_KINDS):
                raise TypeError(
                    f"unknown fault event {type(ev).__name__}; pick from "
                    f"{tuple(k.__name__ for k in FAULT_KINDS)}"
                )
        object.__setattr__(self, "events", tuple(self.events))

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    @property
    def outages(self) -> tuple[EdgeOutage, ...]:
        return tuple(e for e in self.events if isinstance(e, EdgeOutage))

    @property
    def region_outages(self) -> tuple[RegionOutage, ...]:
        return tuple(e for e in self.events if isinstance(e, RegionOutage))

    @property
    def gray_failures(self) -> tuple[GrayFailure, ...]:
        return tuple(e for e in self.events if isinstance(e, GrayFailure))

    @property
    def degradations(self) -> tuple[BackhaulDegradation, ...]:
        return tuple(
            e for e in self.events if isinstance(e, BackhaulDegradation)
        )

    @property
    def crowds(self) -> tuple[FlashCrowd, ...]:
        return tuple(e for e in self.events if isinstance(e, FlashCrowd))

    def validate(self) -> None:
        """Schedule-level sanity checks (no topology needed).

        Rejects zero/negative-duration events (defense in depth — the
        event constructors enforce it too, so this catches schedules
        assembled around them) and *overlapping* outage windows on the
        same edge or region, which would double-evacuate: the driver's
        chained-window logic treats back-to-back spans (``end ==
        start``) as one incident, but a true overlap means two faults
        claim the same in-flight transfers.
        """
        for ev in self.events:
            duration = getattr(ev, "duration", None)
            if duration is not None and not duration > 0:
                raise ValueError(
                    f"{type(ev).__name__} duration must be positive, got "
                    f"{duration!r}"
                )

        def _reject_overlaps(events, label) -> None:
            spans = sorted((ev.start, ev.end, ev) for ev in events)
            for (s0, e0, a), (s1, _, b) in zip(spans, spans[1:]):
                if s1 < e0:
                    raise ValueError(
                        f"overlapping outages on {label}: "
                        f"[{a.start!r}, {a.end!r}) and "
                        f"[{b.start!r}, {b.end!r}) — merge them into one "
                        "window (back-to-back spans sharing a boundary "
                        "are fine)"
                    )

        by_edge: dict[int, list[EdgeOutage]] = {}
        for ev in self.outages:
            by_edge.setdefault(ev.edge, []).append(ev)
        for edge, evs in sorted(by_edge.items()):
            _reject_overlaps(evs, f"edge {edge}")
        by_region: dict[str, list[RegionOutage]] = {}
        for rev in self.region_outages:
            by_region.setdefault(rev.region, []).append(rev)
        for region, revs in sorted(by_region.items()):
            _reject_overlaps(revs, f"region {region!r}")

    def edge_outage_spans(
        self, regions: Mapping[str, tuple[int, ...]] | None = None
    ) -> list[tuple[int, float, float]]:
        """Per-edge total-outage windows: sorted ``(edge, start, end)``.

        :class:`EdgeOutage` events map directly; :class:`RegionOutage`
        events fan out to their region's member edges through
        ``regions`` (``CDNTopology.regions``).  This is the single
        resolution the fleet driver consumes — evacuation, ``edge_down``
        recomputation, and chained-window logic all read spans, never
        raw events.
        """
        spans = [(o.edge, o.start, o.end) for o in self.outages]
        for rev in self.region_outages:
            for edge in (regions or {}).get(rev.region, ()):
                spans.append((edge, rev.start, rev.end))
        spans.sort()
        return spans

    def validate_topology(
        self,
        n_edges: int,
        regions: Mapping[str, tuple[int, ...]] | None = None,
    ) -> None:
        """Reject schedules the topology cannot host.

        Runs the topology-free :meth:`validate` checks, then checks
        edge indices, that every :class:`RegionOutage` names a region
        the topology declares, that no edge's resolved outage windows
        overlap (an edge may sit inside a region *and* carry its own
        :class:`EdgeOutage`, but not for overlapping windows), and that
        every instant of every outage leaves at least one live edge to
        fail over to (concurrent outages may not cover the whole
        topology).
        """
        self.validate()
        for ev in self.events:
            edge = getattr(ev, "edge", None)
            if edge is not None and edge >= n_edges:
                raise ValueError(
                    f"{type(ev).__name__} names edge {edge}; topology has "
                    f"{n_edges} edges"
                )
        for rev in self.region_outages:
            if regions is None or rev.region not in regions:
                known = sorted(regions) if regions else []
                raise ValueError(
                    f"RegionOutage names region {rev.region!r}; topology "
                    f"declares {known or 'no regions'}"
                )
        spans = self.edge_outage_spans(regions)
        by_edge: dict[int, list[tuple[float, float]]] = {}
        for edge, s, e in spans:
            by_edge.setdefault(edge, []).append((s, e))
        for edge, wins in sorted(by_edge.items()):
            wins.sort()
            for (s0, e0), (s1, _) in zip(wins, wins[1:]):
                if s1 < e0:
                    raise ValueError(
                        f"edge {edge}'s resolved outage windows overlap: "
                        f"[{s0!r}, {e0!r}) and [{s1!r}, ...) — an edge "
                        "cannot go dark twice at once (region + edge "
                        "events must not overlap)"
                    )
        for _, s, _ in spans:
            dark = {e for e, s2, e2 in spans if s2 <= s < e2}
            if len(dark) >= n_edges:
                raise ValueError(
                    f"outages cover all {n_edges} edges at t={s!r}; "
                    "no live edge remains to fail over to"
                )

    def emit_scheduled(self, tracer) -> None:
        """Emit one ``fault.*`` trace event per scheduled fault, at its
        onset instant.

        The fleet driver calls this once at run start (schedules are
        frozen, so emitting up front and stamping each event with its
        onset is equivalent to emitting live).  One event per schedule
        entry mirrors ``FleetReport.faults_injected == len(schedule)`` —
        the conservation law :func:`repro.obs.events.ops_from_events`
        folds back out of the stream (a region outage is one fault,
        however many edges it darkens).
        """
        for ev in self.events:
            if isinstance(ev, EdgeOutage):
                tracer.emit(
                    ev.start, EV_FAULT_OUTAGE, edge=ev.edge,
                    duration=ev.duration,
                )
            elif isinstance(ev, RegionOutage):
                tracer.emit(
                    ev.start, EV_FAULT_REGION_OUTAGE, region=ev.region,
                    duration=ev.duration,
                )
            elif isinstance(ev, GrayFailure):
                tracer.emit(
                    ev.start, EV_FAULT_GRAY, edge=ev.edge,
                    duration=ev.duration, factor=ev.capacity_factor,
                    drop=ev.drop_fraction,
                )
            elif isinstance(ev, BackhaulDegradation):
                tracer.emit(
                    ev.start, EV_FAULT_DEGRADATION, edge=ev.edge,
                    duration=ev.duration, factor=ev.factor,
                )
            else:
                assert isinstance(ev, FlashCrowd)
                tracer.emit(
                    ev.start, EV_FAULT_CROWD, viewers=ev.n_viewers,
                    ramp=ev.ramp_seconds,
                )

    def boundary_times(self) -> list[float]:
        """Sorted unique instants the fleet event loop must wake at.

        Only total-outage starts/ends need loop events (re-steering and
        flow cancellation mutate scheduler state) — edge and region
        outages alike; degradations and gray capacity windows act
        through :class:`DegradedTrace` (the trace's own segment
        boundaries stop the fluid integration), gray drops apply at
        dispatch, and flash crowds are ordinary sessions.
        """
        times = set()
        for ev in self.events:
            if isinstance(ev, (EdgeOutage, RegionOutage)):
                times.add(ev.start)
                times.add(ev.end)
        return sorted(times)

    def expand_population(self, sessions: list[FleetSession]) -> list[FleetSession]:
        """``sessions`` plus every flash crowd's viewers, each a clone of
        the first session (new list).

        Call this before handing the fleet to ``simulate_fleet``, which
        does not create sessions itself.
        """
        out = list(sessions)
        if not self.crowds:
            return out
        if not sessions:
            raise ValueError(
                "expand_population needs a template session for flash "
                "crowds (got an empty session list)"
            )
        for crowd in self.crowds:
            out.extend(flash_crowd_sessions(crowd, sessions[0]))
        return out


class DegradedTrace:
    """A bandwidth trace view with time-windowed capacity scaling.

    Wraps any trace implementing the :class:`~repro.net.traces.NetworkTrace`
    interface and multiplies its capacity by each window's factor while
    virtual time is inside ``[start, end)`` — windows compose
    multiplicatively where they overlap.  ``time_to_next_change`` is
    capped at the next window boundary, so the schedulers' piecewise-
    constant integration remains segment-exact through a degradation,
    and :meth:`segment` clips the base's segment bound at that boundary,
    so the scheduler keeps a windowed link's capacity as long as a plain
    one's.

    Windows are *absolute* virtual times (they do not loop with the
    base trace's period — a fault happens once, at a wall-clock instant).
    """

    def __init__(
        self, base, windows: list[tuple[float, float, float]]
    ) -> None:
        for start, end, factor in windows:
            if start < 0 or not end > start:
                raise ValueError(
                    f"window must satisfy 0 <= start < end, got "
                    f"({start!r}, {end!r})"
                )
            if not factor > 0:
                raise ValueError(
                    f"window factor must be positive, got {factor!r}"
                )
        self.base = base
        self.windows = sorted(windows)
        self.rtt = base.rtt
        self.name = f"degraded({getattr(base, 'name', 'trace')})"

    def _factor(self, t: float) -> float:
        f = 1.0
        for start, end, factor in self.windows:
            if start <= t < end:
                f *= factor
        return f

    def bandwidth_at(self, t: float) -> float:
        return self.base.bandwidth_at(t) * self._factor(t)

    def segment(self, t: float) -> tuple[float, float]:
        """The base's ``segment`` scaled by ``_factor(t)``, its bound
        clipped below the next window start or end after ``t`` (with the
        slack of ``t + (b - t)``'s two roundings, as
        :meth:`~repro.net.traces.NetworkTrace.segment`)."""
        bw, until = self.base.segment(t)
        for start, end, _ in self.windows:
            b = start if t < start else end
            if t < b:
                until = min(until, b - b * _BOUND_SLACK)
        return bw * self._factor(t), until

    def time_to_next_change(self, t: float) -> float:
        dt = self.base.time_to_next_change(t)
        for start, end, _ in self.windows:
            if t < start:
                dt = min(dt, start - t)
            elif t < end:
                dt = min(dt, end - t)
        return dt
