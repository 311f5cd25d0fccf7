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

The controller is *pure* with respect to the simulation: each tick it
receives a :class:`FleetView` snapshot and returns a
:class:`ControlActions` for the driver to apply, so policies are unit-
testable without a fleet.  Ticks fire **opportunistically at existing
event boundaries** (the first event at or after each nominal interval) —
the control plane never injects events of its own, which is what makes a
controller whose thresholds never trigger bit-exact with no controller
at all (the disabled-mode oracle the parity convention requires).

:class:`RecoveryTracker` computes the fault-recovery metrics
``FleetReport`` grows in this PR: per-interval health samples (a QoE
proxy over chunks completed in the interval), the dip depth below the
pre-fault baseline, and the time from fault onset back to baseline.
"""

from __future__ import annotations

import math
import numbers
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
    "RecoveryTracker",
]


@dataclass(frozen=True)
class ControlPolicy:
    """Thresholds and limits of one control plane.

    The defaults never fire on a healthy fleet; ``math.inf`` thresholds
    disable a lever entirely (the configuration the no-op parity test
    runs).
    """

    #: nominal seconds between control ticks (ticks land on the first
    #: scheduler event at or after each boundary)
    interval: float = 5.0
    #: grow the encode pool when interval p95 wait exceeds this
    encode_wait_high: float = 0.5
    #: shrink it when interval p95 wait falls below this
    encode_wait_low: float = 0.01
    min_encode_workers: int = 1
    max_encode_workers: int = 64
    #: an edge is saturated when its unfinished-session load exceeds
    #: ``saturation_factor`` x the mean over live edges (and >= 2)
    saturation_factor: float = 2.0
    #: cap on re-steered sessions per tick (avoid thundering herds)
    max_resteers_per_tick: int = 8
    #: graceful degradation: while any fault domain is fully dark, cap
    #: every new decision's density at this value (None disables the
    #: lever).  Lifted at the first tick with no dark region.
    quality_cap_when_dark: float | None = None
    #: graceful degradation: force ``sr_ratio`` to 1.0 (SR off — no
    #: device upscale work) while any fault domain is fully dark
    disable_sr_when_dark: bool = False

    def __post_init__(self) -> None:
        # chained so NaN fails them (every comparison with NaN is false);
        # an ``inf`` threshold is legal — it switches its lever off
        if not 0 < self.interval < math.inf:
            raise ValueError(
                f"interval must be finite and positive, got {self.interval!r}"
            )
        if not 0 <= self.encode_wait_high <= math.inf:
            raise ValueError(
                "encode_wait_high must be non-negative, got "
                f"{self.encode_wait_high!r}"
            )
        if not 0 <= self.encode_wait_low <= self.encode_wait_high:
            raise ValueError(
                "encode_wait_low must be non-negative and not exceed "
                f"encode_wait_high, got {self.encode_wait_low!r} "
                f"(encode_wait_high {self.encode_wait_high!r})"
            )
        _check_count("min_encode_workers", self.min_encode_workers, 1)
        _check_count(
            "max_encode_workers", self.max_encode_workers, self.min_encode_workers
        )
        if not 1.0 < self.saturation_factor <= math.inf:
            raise ValueError(
                f"saturation_factor must exceed 1.0, got "
                f"{self.saturation_factor!r}"
            )
        _check_count("max_resteers_per_tick", self.max_resteers_per_tick, 0)
        if self.quality_cap_when_dark is not None and not (
            0.0 < self.quality_cap_when_dark <= 1.0
        ):
            raise ValueError(
                "quality_cap_when_dark must be in (0, 1] (a density "
                f"cap), got {self.quality_cap_when_dark!r}"
            )


def _check_count(name: str, value, minimum: int) -> None:
    """Raise unless ``value`` is an integer (``bool`` excluded) >= ``minimum``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or not value >= minimum
    ):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class FleetView:
    """What the driver measured for one control tick (read-only)."""

    now: float
    #: unfinished sessions per edge, topology edge order
    edge_load: tuple[int, ...]
    #: edges currently dark from an :class:`~repro.streaming.faults.EdgeOutage`
    edge_down: tuple[bool, ...]
    #: per saturated-candidate edge: unfinished session ids assigned to it,
    #: ascending (the driver's steerable set)
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
    index.  Counters (``ticks``, ``encode_resizes``, ``resteered``) feed
    the report's control fields; ``log`` keeps a human-readable action
    trail for demos.
    """

    def __init__(
        self,
        policy: ControlPolicy | None = None,
        autoscaler: "QoEArrivalAutoscaler | None" = None,
    ) -> None:
        self.policy = policy or ControlPolicy()
        self.autoscaler = autoscaler
        self.ticks = 0
        self.encode_resizes = 0
        self.resteered = 0
        #: graceful-degradation lever pulls + releases (state flips)
        self.degrades = 0
        self._degraded = False
        self.log: list[str] = []
        #: wired by the fleet driver for the run; unwired in its finally
        self.tracer = NULL_TRACER

    # ------------------------------------------------------------------
    def tick(self, view: FleetView) -> ControlActions:
        """One control interval: observe ``view``, emit actions."""
        pol = self.policy
        self.ticks += 1
        self.tracer.emit(
            view.now, EV_CONTROL_TICK, health=view.health,
            workers=view.encode_workers,
        )
        actions = ControlActions()

        # Encode-pool autoscaling on interval p95 wait.
        if view.encode_waits:
            p95 = wait_percentile(list(view.encode_waits), 95.0)
            if (
                p95 > pol.encode_wait_high
                and view.encode_workers < pol.max_encode_workers
            ):
                actions.encode_workers = min(
                    pol.max_encode_workers, view.encode_workers * 2
                )
            elif (
                p95 < pol.encode_wait_low
                and view.encode_workers > pol.min_encode_workers
            ):
                actions.encode_workers = max(
                    pol.min_encode_workers, view.encode_workers // 2
                )
            if actions.encode_workers is not None:
                self.encode_resizes += 1
                self.tracer.emit(
                    view.now, EV_CONTROL_RESIZE,
                    workers_from=view.encode_workers,
                    workers_to=actions.encode_workers,
                )
                self.log.append(
                    f"t={view.now:.1f} encode pool {view.encode_workers} -> "
                    f"{actions.encode_workers} (interval p95 wait {p95:.3f}s)"
                )

        # Re-steering away from saturated (or dark) edges.
        live = [
            e for e in range(len(view.edge_load)) if not view.edge_down[e]
        ]
        if len(live) >= 2 and pol.max_resteers_per_tick > 0:
            load = list(view.edge_load)
            mean_load = sum(load[e] for e in live) / len(live)
            factor = pol.saturation_factor

            def saturated(x: int) -> bool:
                # Exactly as ControlPolicy documents: load exceeds
                # saturation_factor x the live mean *and* is >= 2 (the
                # floor keeps near-empty edges from thrashing; it is a
                # lower bound on saturation, not a second multiplier).
                return (
                    not math.isinf(factor)
                    and x >= 2
                    and x > factor * mean_load
                )

            budget = pol.max_resteers_per_tick
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
            if actions.resteer:
                self.resteered += len(actions.resteer)
                # The controller's *intent*; the driver emits one
                # ``session.resteer`` per re-steer it actually applies
                # (finished or dark-target pairs are skipped there).
                for sid, target in actions.resteer:
                    self.tracer.emit(
                        view.now, EV_CONTROL_RESTEER, session=sid,
                        target=target,
                    )
                self.log.append(
                    f"t={view.now:.1f} re-steered {len(actions.resteer)} "
                    f"session(s) off saturated edge(s)"
                )

        # Graceful degradation while a whole fault domain is dark: cap
        # quality and/or switch SR off, restore when the region returns.
        # Pure state machine on regions_dark — with both levers unset
        # (the defaults) this block never acts, preserving the no-op
        # parity contract.
        has_levers = (
            pol.quality_cap_when_dark is not None or pol.disable_sr_when_dark
        )
        if has_levers:
            dark = bool(view.regions_dark)
            if dark and not self._degraded:
                self._degraded = True
                self.degrades += 1
                if pol.quality_cap_when_dark is not None:
                    actions.quality_cap = pol.quality_cap_when_dark
                if pol.disable_sr_when_dark:
                    actions.sr_enabled = False
                self.tracer.emit(
                    view.now, EV_CONTROL_DEGRADE, state="on",
                    regions=",".join(view.regions_dark),
                )
                self.log.append(
                    f"t={view.now:.1f} degraded mode ON "
                    f"(dark: {', '.join(view.regions_dark)})"
                )
            elif not dark and self._degraded:
                self._degraded = False
                self.degrades += 1
                if pol.quality_cap_when_dark is not None:
                    actions.quality_cap = math.inf
                if pol.disable_sr_when_dark:
                    actions.sr_enabled = True
                self.tracer.emit(
                    view.now, EV_CONTROL_DEGRADE, state="off"
                )
                self.log.append(
                    f"t={view.now:.1f} degraded mode OFF (regions back)"
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
    multiplier — below ``target_health`` the offered load is scaled
    down by ``step``, at or above it the multiplier relaxes back toward
    1.0.  The closed loop across days: simulate day *d*, let the
    autoscaler set day *d+1*'s arrival scale, rebuild the population
    with the hook, repeat.
    """

    def __init__(
        self,
        day_seconds: float,
        *,
        target_health: float = 0.5,
        step: float = 0.25,
        min_scale: float = 0.25,
        max_scale: float = 1.0,
    ) -> None:
        if day_seconds <= 0:
            raise ValueError("day_seconds must be positive")
        if not 0.0 < step < 1.0:
            raise ValueError(f"step must be in (0, 1), got {step!r}")
        if not 0.0 < min_scale <= max_scale:
            raise ValueError("need 0 < min_scale <= max_scale")
        self.day_seconds = float(day_seconds)
        self.target_health = float(target_health)
        self.step = float(step)
        self.min_scale = float(min_scale)
        self.max_scale = float(max_scale)
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
        if mean < self.target_health:
            scale = max(self.min_scale, current * (1.0 - self.step))
        else:
            scale = min(self.max_scale, current * (1.0 + self.step))
        self._scales[day + 1] = scale


class RecoveryTracker:
    """Fault-recovery metrics over per-interval health samples.

    ``health`` is the driver's QoE proxy for one interval (mean
    per-chunk quality minus the stall penalty over chunks completed in
    the interval).  The tracker splits samples at the first fault onset:
    the pre-fault mean is the baseline, the post-onset minimum gives the
    **dip depth**, and the first sample at or after that minimum that
    climbs back within ``tolerance`` of the baseline dates the
    **time to recover** (``math.inf`` if the run ends still degraded,
    ``0.0`` if health never left the tolerance band).
    """

    def __init__(self, fault_start: float, *, tolerance: float = 0.1) -> None:
        if fault_start < 0:
            raise ValueError("fault_start must be non-negative")
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        self.fault_start = float(fault_start)
        self.tolerance = float(tolerance)
        self.samples: list[tuple[float, float]] = []

    def sample(self, now: float, health: float) -> None:
        self.samples.append((float(now), float(health)))

    @property
    def baseline(self) -> float:
        """Healthy-fleet reference the dip is measured against.

        Mean of the pre-fault samples.  When the first fault starts at or
        before the first health sample there is no pre-fault record at
        all — a fault-at-t=0 schedule, or onset inside the first
        monitoring interval.  Falling back to 0.0 there would measure the
        dip against an arbitrary floor (``qoe_dip_depth`` silently reads
        as ~0 however hard the fleet was hit), so the first *post-onset*
        sample stands in instead: the closest available proxy for
        where health started from.
        """
        pre = [h for t, h in self.samples if t < self.fault_start]
        if pre:
            return sum(pre) / len(pre)
        if self.samples:
            return self.samples[0][1]
        return 0.0

    def metrics(self) -> tuple[float, float]:
        """``(qoe_dip_depth, time_to_recover_s)`` for the run."""
        post = [(t, h) for t, h in self.samples if t >= self.fault_start]
        if not post:
            return 0.0, 0.0
        baseline = self.baseline
        floor = min(h for _, h in post)
        dip = max(0.0, baseline - floor)
        threshold = baseline - self.tolerance
        if dip <= self.tolerance:
            return dip, 0.0
        low_at = next(t for t, h in post if h == floor)
        for t, h in post:
            if t >= low_at and h >= threshold:
                return dip, t - self.fault_start
        return dip, math.inf
