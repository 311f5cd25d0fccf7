"""Closed-loop control plane for fleet simulations.

Everything the fleet simulator did before this module was open-loop:
arrivals, viewer→edge assignment, and encode capacity were fixed at
construction.  This module adds the controller tier the ROADMAP names —
a :class:`ControlPlane` that runs every (virtual) control interval
*inside* the ``simulate_fleet`` event loop and reacts to measured fleet
state:

* **encode-pool resizing** — the p95 encode-queue wait over the last
  interval drives the origin's transcode worker count up (doubling)
  when cold misses queue too long, and back down (halving) when the
  pool sits idle;
* **viewer re-steering** — sessions on a saturated or failed edge are
  re-assigned to the least-loaded live edge, a bounded number per tick
  (future chunk requests follow the new assignment; in-flight transfers
  finish where they are);
* **graceful degradation** — while a whole fault domain (topology
  region) is dark, the optional ``quality_cap_when_dark`` /
  ``disable_sr_when_dark`` levers cap decision density and switch SR
  off fleet-wide, restoring both when the region comes back: shed
  per-viewer quality to keep everyone streaming through the incident;
* **QoE-driven arrival autoscale** — a :class:`QoEArrivalAutoscaler`
  accumulates per-virtual-day health and recommends next-day arrival
  multipliers through the existing
  :class:`~repro.streaming.population.DiurnalArrivals` ``autoscale``
  hook, closing the loop between measured QoE and offered load.

The controller is a pure function of its view: each tick it receives a
:class:`FleetView` snapshot — the run's lever state included — and
returns a :class:`ControlActions` for the fleet to apply, so policies
are unit-testable without a fleet and a plane reused across runs acts
like a fresh one.  It keeps no record of a run: the fleet counts the
ticks it ran and the actions it applied, and the run's tracer, handed
to each tick, carries every ``control.*`` event.  Ticks fire
**opportunistically at existing event boundaries** (the first event at
or after each nominal interval) —
the control plane never injects events of its own, which is what makes a
controller whose levers cannot act bit-exact with no controller at all
(the disabled-mode oracle the parity convention requires).

How hard a fault hit and when the fleet recovered is not the control
plane's to say: :func:`~repro.obs.damage.fault_damage` measures a faulted
run against its fault-free twin, after both have finished.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..obs.events import (
    EV_CONTROL_DEGRADE,
    EV_CONTROL_RESIZE,
    EV_CONTROL_RESTEER,
    EV_CONTROL_TICK,
    NULL_TRACER,
)
from .cdn import wait_percentile

__all__ = [
    "ControlPolicy",
    "ControlActions",
    "FleetView",
    "ControlPlane",
    "QoEArrivalAutoscaler",
]

#: grow the encode pool (doubling) when an interval's p95 encode wait
#: exceeds this many seconds ...
ENCODE_WAIT_HIGH = 0.5
#: ... and shrink it (halving) when the p95 falls below this
ENCODE_WAIT_LOW = 0.01
MIN_ENCODE_WORKERS = 1
MAX_ENCODE_WORKERS = 64
#: an edge is saturated when its unfinished-session load is at least 2
#: and exceeds this factor x the mean over live edges
SATURATION_FACTOR = 2.0
#: cap on re-steered sessions per tick (avoid thundering herds)
MAX_RESTEERS_PER_TICK = 8

#: :class:`QoEArrivalAutoscaler`: a day whose mean health falls below
#: the target scales the next day's arrivals down by the step, else up,
#: clamped to ``[AUTOSCALE_MIN_SCALE, AUTOSCALE_MAX_SCALE]``
AUTOSCALE_TARGET_HEALTH = 0.5
AUTOSCALE_STEP = 0.25
AUTOSCALE_MIN_SCALE = 0.25
AUTOSCALE_MAX_SCALE = 1.0


@dataclass(frozen=True)
class ControlPolicy:
    """What one control plane is set to: its tick interval and its
    graceful-degradation levers.  The encode-pool and re-steering
    thresholds are the module constants above, which never fire on a
    healthy fleet.
    """

    #: nominal seconds between control ticks (ticks land on the first
    #: scheduler event at or after each boundary)
    interval: float = 5.0
    #: graceful degradation: while any fault domain is fully dark, cap
    #: every new decision's density at this value (None disables the
    #: lever).  Lifted at the first tick with no dark region.
    quality_cap_when_dark: float | None = None
    #: graceful degradation: force ``sr_ratio`` to 1.0 (SR off — no
    #: device upscale work) while any fault domain is fully dark
    disable_sr_when_dark: bool = False

    def __post_init__(self) -> None:
        # chained so NaN fails it (every comparison with NaN is false)
        if not 0 < self.interval < math.inf:
            raise ValueError(
                f"interval must be finite and positive, got {self.interval!r}"
            )
        if self.quality_cap_when_dark is not None and not (
            0.0 < self.quality_cap_when_dark <= 1.0
        ):
            raise ValueError(
                "quality_cap_when_dark must be in (0, 1] (a density "
                f"cap), got {self.quality_cap_when_dark!r}"
            )


@dataclass(frozen=True)
class FleetView:
    """What the driver measured for one control tick (read-only)."""

    now: float
    #: unfinished sessions per edge, topology edge order
    edge_load: tuple[int, ...]
    #: edges currently dark from an :class:`~repro.streaming.faults.EdgeOutage`
    edge_down: tuple[bool, ...]
    #: every edge: unfinished session ids assigned to it, ascending (the
    #: fleet's steerable set)
    sessions_by_edge: dict[int, tuple[int, ...]]
    #: encode-queue waits recorded since the previous tick
    encode_waits: tuple[float, ...]
    #: current origin encode worker count
    encode_workers: int
    #: interval health sample (None when no chunks completed this interval)
    health: float | None
    #: fault domains whose member edges are *all* currently dark
    #: (topology ``regions`` names, sorted) — the graceful-degradation
    #: trigger; empty when no regions are declared or none is dark
    regions_dark: tuple[str, ...] = ()
    #: a degradation lever is pulled in this run (a decision cap below
    #: ``inf`` or SR off) — the state the degrade / restore step reads
    degraded: bool = False


@dataclass
class ControlActions:
    """What the driver should apply after one tick."""

    #: resize the origin encode pool to this many workers (None = keep)
    encode_workers: int | None = None
    #: ``(session id, new edge index)`` re-assignments
    resteer: list[tuple[int, int]] = field(default_factory=list)
    #: cap future decisions' density at this value; ``math.inf`` lifts a
    #: previously applied cap (None = leave the current cap alone)
    quality_cap: float | None = None
    #: force SR off (False) or restore policy-chosen SR (True);
    #: None = leave alone
    sr_enabled: bool | None = None

    def __bool__(self) -> bool:
        return (
            self.encode_workers is not None
            or bool(self.resteer)
            or self.quality_cap is not None
            or self.sr_enabled is not None
        )


class ControlPlane:
    """The per-interval controller ``simulate_fleet(controller=...)`` runs.

    Deterministic: actions are a pure function of the policy and the
    :class:`FleetView`, ties always break toward the lower edge/session
    index.  The plane holds configuration only — its ``policy`` and the
    optional cross-run ``autoscaler`` — so one plane may serve any number
    of runs.
    """

    def __init__(
        self,
        policy: ControlPolicy | None = None,
        autoscaler: "QoEArrivalAutoscaler | None" = None,
    ) -> None:
        self.policy = policy or ControlPolicy()
        self.autoscaler = autoscaler

    # ------------------------------------------------------------------
    def tick(self, view: FleetView, tracer=NULL_TRACER) -> ControlActions:
        """One control interval: observe ``view``, return actions; the
        ``control.*`` events go to the run's ``tracer``."""
        pol = self.policy
        tracer.emit(
            view.now, EV_CONTROL_TICK, health=view.health,
            workers=view.encode_workers,
        )
        actions = ControlActions()

        # Encode-pool autoscaling on interval p95 wait.
        if view.encode_waits:
            p95 = wait_percentile(list(view.encode_waits), 95.0)
            if (
                p95 > ENCODE_WAIT_HIGH
                and view.encode_workers < MAX_ENCODE_WORKERS
            ):
                actions.encode_workers = min(
                    MAX_ENCODE_WORKERS, view.encode_workers * 2
                )
            elif (
                p95 < ENCODE_WAIT_LOW
                and view.encode_workers > MIN_ENCODE_WORKERS
            ):
                actions.encode_workers = max(
                    MIN_ENCODE_WORKERS, view.encode_workers // 2
                )
            if actions.encode_workers is not None:
                tracer.emit(
                    view.now, EV_CONTROL_RESIZE,
                    workers_from=view.encode_workers,
                    workers_to=actions.encode_workers,
                )

        # Re-steering away from saturated (or dark) edges.
        live = [
            e for e in range(len(view.edge_load)) if not view.edge_down[e]
        ]
        if len(live) >= 2:
            load = list(view.edge_load)
            mean_load = sum(load[e] for e in live) / len(live)

            def saturated(x: int) -> bool:
                # Load exceeds SATURATION_FACTOR x the live mean *and* is
                # >= 2 (the floor keeps near-empty edges from thrashing; it
                # is a lower bound on saturation, not a second multiplier).
                return x >= 2 and x > SATURATION_FACTOR * mean_load

            budget = MAX_RESTEERS_PER_TICK
            for e in live:
                if budget <= 0 or not saturated(load[e]):
                    continue
                movable = view.sessions_by_edge.get(e, ())
                for sid in movable:
                    if budget <= 0 or not saturated(load[e]):
                        break
                    target = min(
                        (x for x in live if x != e),
                        key=lambda x: (load[x], x),
                    )
                    if load[target] + 1 >= load[e]:
                        break  # moving would just trade places
                    actions.resteer.append((sid, target))
                    load[e] -= 1
                    load[target] += 1
                    budget -= 1
            # The controller's *intent*; the fleet emits one
            # ``session.resteer`` per re-steer it actually applies
            # (finished or dark-target pairs are skipped there).
            for sid, target in actions.resteer:
                tracer.emit(
                    view.now, EV_CONTROL_RESTEER, session=sid, target=target,
                )

        # Graceful degradation while a whole fault domain is dark: cap
        # quality and/or switch SR off, restore when the region returns.
        # A step on (regions_dark, degraded), both read off the view —
        # with both levers unset (the defaults) this block never acts,
        # preserving the no-op parity contract.
        has_levers = (
            pol.quality_cap_when_dark is not None or pol.disable_sr_when_dark
        )
        if has_levers:
            dark = bool(view.regions_dark)
            if dark and not view.degraded:
                if pol.quality_cap_when_dark is not None:
                    actions.quality_cap = pol.quality_cap_when_dark
                if pol.disable_sr_when_dark:
                    actions.sr_enabled = False
                tracer.emit(
                    view.now, EV_CONTROL_DEGRADE, state="on",
                    regions=",".join(view.regions_dark),
                )
            elif not dark and view.degraded:
                if pol.quality_cap_when_dark is not None:
                    actions.quality_cap = math.inf
                if pol.disable_sr_when_dark:
                    actions.sr_enabled = True
                tracer.emit(
                    view.now, EV_CONTROL_DEGRADE, state="off"
                )

        # Feed the arrival autoscaler's per-day health accumulator.
        if self.autoscaler is not None and view.health is not None:
            self.autoscaler.observe(view.now, view.health)
        return actions


class QoEArrivalAutoscaler:
    """QoE-driven arrival-rate multipliers, per virtual day.

    Usable directly as the
    :class:`~repro.streaming.population.DiurnalArrivals` ``autoscale``
    hook (a deterministic ``day -> multiplier`` callable).  During a
    fleet run the control plane feeds it per-interval health samples;
    each completed day folds its mean health into the *next* day's
    multiplier — below ``AUTOSCALE_TARGET_HEALTH`` the offered load is
    scaled down by ``AUTOSCALE_STEP``, at or above it the multiplier
    relaxes back toward 1.0.  The closed loop across days: simulate day *d*, let the
    autoscaler set day *d+1*'s arrival scale, rebuild the population
    with the hook, repeat.
    """

    def __init__(self, day_seconds: float) -> None:
        if day_seconds <= 0:
            raise ValueError("day_seconds must be positive")
        self.day_seconds = float(day_seconds)
        self._scales: dict[int, float] = {}
        #: per-day (health sum, sample count) accumulators
        self._acc: dict[int, tuple[float, int]] = {}

    def __call__(self, day: int) -> float:
        """The ``DiurnalArrivals.autoscale`` hook: day -> multiplier."""
        return self._scales.get(day, 1.0)

    def observe(self, now: float, health: float) -> None:
        """Fold one health sample into its day's accumulator.

        Completing a day (a sample landing in a later day) immediately
        plans the next day's multiplier, so multi-day runs adapt while
        they execute.
        """
        day = int(now // self.day_seconds)
        for done in [d for d in self._acc if d < day]:
            self._plan_next(done)
        total, count = self._acc.get(day, (0.0, 0))
        self._acc[day] = (total + float(health), count + 1)

    def finish(self) -> None:
        """Close every open day (call when the run ends)."""
        for day in sorted(self._acc):
            self._plan_next(day)

    def day_health(self, day: int) -> float | None:
        """Mean observed health of ``day`` (None if unobserved)."""
        acc = self._acc.get(day)
        if acc is None or acc[1] == 0:
            return None
        return acc[0] / acc[1]

    def _plan_next(self, day: int) -> None:
        total, count = self._acc.pop(day, (0.0, 0))
        if count == 0:
            return
        mean = total / count
        current = self._scales.get(day, 1.0)
        if mean < AUTOSCALE_TARGET_HEALTH:
            scale = max(AUTOSCALE_MIN_SCALE, current * (1.0 - AUTOSCALE_STEP))
        else:
            scale = min(AUTOSCALE_MAX_SCALE, current * (1.0 + AUTOSCALE_STEP))
        self._scales[day + 1] = scale
