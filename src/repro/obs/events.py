"""Structured virtual-time event tracing for fleet runs.

A :class:`Tracer` collects typed :class:`TraceEvent` records as the
fleet simulator executes: session lifecycle (start / finish / abandon),
chunk progress (decision / fetch / complete / stall / retry), edge-cache
activity (hit / miss / coalesce / void), origin encode activity
(enqueue / resize), fault injection (outage / degradation / crowd,
plus the evacuation an outage triggers), and control-plane activity
(tick / resize / re-steer).  Emission sites live in the subsystems that
own the state — ``fleet.py`` (driver), ``cdn.py`` (caches and encode
queue), ``control.py`` (controller), ``faults.py`` (schedules) — and
are plain ``tracer.emit(...)`` calls: a run without a tracer binds
:data:`NULL_TRACER`, whose ``emit`` drops the event, so stage code has
no telemetry branches and the simulation arithmetic cannot depend on
whether anyone is listening (the disabled-tracer parity test pins
this).

Events are *virtual-time* stamped: ``t`` is simulation seconds, not
wall clock.  Each tracer assigns a monotonically increasing ``seq``, the
emission order.

:func:`ops_from_events` folds an event stream back into the
control-plane counters of :class:`~repro.streaming.fleet.FleetReport` —
the conservation law the chaos trace test enforces (``report counters
== fold over the event stream``).
"""

from __future__ import annotations

from collections import Counter as _Counter

__all__ = [
    "TraceEvent",
    "Tracer",
    "NULL_TRACER",
    "ops_from_events",
    # event kinds
    "EV_SESSION_START",
    "EV_SESSION_FINISH",
    "EV_SESSION_ABANDON",
    "EV_SESSION_RESTEER",
    "EV_CHUNK_DECISION",
    "EV_CHUNK_FETCH",
    "EV_CHUNK_COMPLETE",
    "EV_CHUNK_STALL",
    "EV_CHUNK_RETRY",
    "EV_CACHE_HIT",
    "EV_CACHE_MISS",
    "EV_CACHE_COALESCE",
    "EV_CACHE_VOID",
    "EV_ENCODE_ENQUEUE",
    "EV_ENCODE_RESIZE",
    "EV_FAULT_OUTAGE",
    "EV_FAULT_REGION_OUTAGE",
    "EV_FAULT_GRAY",
    "EV_FAULT_DEGRADATION",
    "EV_FAULT_CROWD",
    "EV_OUTAGE_EVACUATE",
    "EV_RETRY_TIMEOUT",
    "EV_RETRY_HEDGE",
    "EV_CONTROL_TICK",
    "EV_CONTROL_RESIZE",
    "EV_CONTROL_RESTEER",
    "EV_CONTROL_DEGRADE",
]

# -- session lifecycle --------------------------------------------------
EV_SESSION_START = "session.start"
EV_SESSION_FINISH = "session.finish"
EV_SESSION_ABANDON = "session.abandon"
#: a viewer moved to another edge (``reason``: ``"outage"`` failover or
#: a ``"control"`` saturation re-steer the driver applied)
EV_SESSION_RESTEER = "session.resteer"

# -- chunk progress -----------------------------------------------------
EV_CHUNK_DECISION = "chunk.decision"
EV_CHUNK_FETCH = "chunk.fetch"
EV_CHUNK_COMPLETE = "chunk.complete"
EV_CHUNK_STALL = "chunk.stall"
#: one per re-issued request, from the fleet's single re-issue path:
#: ``reason`` is ``outage`` / ``timeout`` / ``fill-aborted`` (the fetch
#: was cancelled) or ``gray-drop`` (the fetch starts late instead);
#: ``attempt`` is the request's new failed-attempt count — 0 for a
#: future-dated request re-queued unchanged, so events with
#: ``attempt > 0`` sum to ``report.chunk_retries``
EV_CHUNK_RETRY = "chunk.retry"

# -- edge chunk cache ---------------------------------------------------
EV_CACHE_HIT = "cache.hit"
EV_CACHE_MISS = "cache.miss"
EV_CACHE_COALESCE = "cache.coalesce"
#: a counted hit/coalesce credited back (its transfer never completed)
EV_CACHE_VOID = "cache.void"

# -- origin encode pool -------------------------------------------------
EV_ENCODE_ENQUEUE = "encode.enqueue"
EV_ENCODE_RESIZE = "encode.resize"

# -- fault injection ----------------------------------------------------
EV_FAULT_OUTAGE = "fault.outage"
#: a named fault domain's member edges all went dark together
EV_FAULT_REGION_OUTAGE = "fault.region_outage"
#: a partial (gray) failure: capacity browns out, requests drop/delay
EV_FAULT_GRAY = "fault.gray"
EV_FAULT_DEGRADATION = "fault.degradation"
EV_FAULT_CROWD = "fault.crowd"
EV_OUTAGE_EVACUATE = "outage.evacuate"

# -- client resilience (RetryPolicy) ------------------------------------
#: an attempt the retry policy's virtual-time timeout cancelled
EV_RETRY_TIMEOUT = "retry.timeout"
#: a timed-out session hedged to another live edge for its retry
EV_RETRY_HEDGE = "retry.hedge"

# -- control plane ------------------------------------------------------
EV_CONTROL_TICK = "control.tick"
EV_CONTROL_RESIZE = "control.resize"
EV_CONTROL_RESTEER = "control.resteer"
#: a graceful-degradation lever pulled (or released) on a dark region
EV_CONTROL_DEGRADE = "control.degrade"

#: kinds that count as one injected fault each (mirrors
#: ``FleetReport.faults_injected`` = ``len(FaultSchedule)``)
FAULT_EVENT_KINDS = (
    EV_FAULT_OUTAGE,
    EV_FAULT_REGION_OUTAGE,
    EV_FAULT_GRAY,
    EV_FAULT_DEGRADATION,
    EV_FAULT_CROWD,
)


class TraceEvent:
    """One virtual-time event.  ``data`` holds kind-specific fields."""

    __slots__ = ("t", "kind", "session", "seq", "data")

    def __init__(
        self,
        t: float,
        kind: str,
        session: int | None,
        seq: int,
        data: dict | None,
    ) -> None:
        self.t = t
        self.kind = kind
        self.session = session
        self.seq = seq
        self.data = data

    def to_dict(self) -> dict:
        """JSON-ready flat dict (the JSONL exporter's row shape)."""
        out: dict = {"t": self.t, "kind": self.kind}
        if self.session is not None:
            out["session"] = self.session
        if self.data:
            out.update(self.data)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f" {self.data}" if self.data else ""
        sid = f" sid={self.session}" if self.session is not None else ""
        return f"<TraceEvent t={self.t:.3f} {self.kind}{sid}{extra}>"


class Tracer:
    """Collects :class:`TraceEvent` records for one run.

    ``emit`` is the only hot-path method and does no I/O — exporters
    (:mod:`repro.obs.export`) consume the finished stream.

    Storage is deliberately two-tier.  ``emit`` appends a plain tuple
    ``(t, kind, session, seq, data)`` — tuples and small dicts
    of atoms are *untracked* by CPython's cyclic GC after they survive
    one collection, so a multi-hundred-thousand-event run does not make
    every gen-2 pass walk the whole trace (class instances are always
    tracked; storing :class:`TraceEvent` objects directly measurably
    slowed the 2k-viewer bench lane through GC alone).  The ``events``
    property materializes the tuples into :class:`TraceEvent` objects
    once, on first read, and caches them — exporters and tests see the
    same object API as before, paid for outside the simulation loop.
    """

    __slots__ = ("_records", "_events", "_seq")

    def __init__(self) -> None:
        self._records: list[tuple] = []
        self._events: list[TraceEvent] = []
        self._seq = 0

    def emit(
        self, t: float, kind: str, session: int | None = None, **data
    ) -> None:
        """Record one event at virtual time ``t``."""
        self._seq += 1
        self._records.append((t, kind, session, self._seq, data or None))

    @property
    def events(self) -> list[TraceEvent]:
        """The recorded events, materialized and cached: repeated reads
        return the same list of the same objects."""
        done = len(self._events)
        if done != len(self._records):
            self._events.extend(
                TraceEvent(*record) for record in self._records[done:]
            )
        return self._events

    def counts(self) -> dict[str, int]:
        """Event count per kind."""
        return dict(_Counter(record[1] for record in self._records))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self.events)


class _NullTracer:
    """Disabled tracer: every ``emit`` is dropped."""

    __slots__ = ()

    def emit(
        self, t: float, kind: str, session: int | None = None, **data
    ) -> None:
        pass


#: What emission sites hold when tracing is off (the tracer-side twin of
#: :data:`repro.obs.profiler.NULL_PROFILER`).
NULL_TRACER = _NullTracer()


def ops_from_events(events) -> dict[str, int]:
    """Fold an event stream into the report counters it implies.

    The conservation law the chaos-trace test enforces: a run's report
    counters must equal this fold over its own event stream —
    ``sessions_resteered`` counts :data:`EV_SESSION_RESTEER` (outage
    failover plus applied controller re-steers), ``faults_injected``
    counts scheduled ``fault.*`` events, ``control_ticks`` counts
    :data:`EV_CONTROL_TICK`, ``encode_pool_resizes`` counts
    :data:`EV_CONTROL_RESIZE` (resize *actions*; the queue's own
    :data:`EV_ENCODE_RESIZE` records the applications), and
    ``requests_timed_out`` counts :data:`EV_RETRY_TIMEOUT` (attempts a
    :class:`~repro.streaming.faults.RetryPolicy` timeout cancelled).
    """
    counts = _Counter(ev.kind for ev in events)
    return {
        "sessions_resteered": counts[EV_SESSION_RESTEER],
        "faults_injected": sum(counts[k] for k in FAULT_EVENT_KINDS),
        "control_ticks": counts[EV_CONTROL_TICK],
        "encode_pool_resizes": counts[EV_CONTROL_RESIZE],
        "requests_timed_out": counts[EV_RETRY_TIMEOUT],
    }
