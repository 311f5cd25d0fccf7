"""The scenario table: every fleet experiment and demo is a list of rows.

A :class:`Scenario` is one condition the VoLUT viewer is run under — who
watches (population), over what (topology), what goes wrong (faults),
how the client fights back (retry) and who steers (control).
:func:`run_scenario` runs a row at a :class:`~.common.Scale` and returns
one fixed :class:`ScenarioReport`; an experiment is its rows, its choice
of columns and its own post-processing.

Every row runs the same viewer: the ABR controller named by ``abr`` on a
16 × 3 grid over the measured LUT latency model, abandoning after 12 s
of stall, on a Zipf catalog of 8 videos seeded at 0.  Every row is
provisioned for its configured audience: access capacity is
``mbps_per_session × n_sessions`` however many viewers a flash crowd
adds.  A faulted row's damage is read against its **twin**, the same row
with ``faults=None``.  An experiment hands :func:`run_scenario` one memo
of fault-free runs keyed by the row itself, so a baseline row's run is
also every matching faulted row's twin and each twin runs once.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import Any

from ..metrics.qoe import QoEModel, bootstrap_ci
from ..net.traces import stable_trace
from ..obs.damage import fault_damage
from ..obs.events import ops_from_events
from ..streaming.abr import SRQualityModel
from ..streaming.cdn import CDNTopology, single_link_cdn, uniform_cdn
from ..streaming.chunks import VideoSpec
from ..streaming.control import ControlPlane, ControlPolicy, QoEArrivalAutoscaler
from ..streaming.cost import CostReport, price
from ..streaming.faults import FaultSchedule, RetryPolicy
from ..streaming.fleet import FleetResult, simulate_fleet
from ..streaming.latency import MeasuredSRLatency
from ..streaming.policies import get_policy
from ..streaming.population import (
    DiurnalArrivals,
    PoissonArrivals,
    build_population,
    synthetic_catalog,
)
from ..streaming.simulator import AbandonPolicy, FleetSession
from .common import ResultTable, Scale

__all__ = [
    "Scenario",
    "ScenarioReport",
    "run_scenario",
    "add_row",
    "check_conservation",
]

#: the viewer's planner grid: candidate densities × horizon chunks
N_GRID, HORIZON = 16, 3
#: seconds of total stall before a population viewer abandons
STALL_PATIENCE = 12.0
#: videos in a population's Zipf catalog
N_VIDEOS = 8
#: seeds the arrivals, the catalog picks and the bootstrap
SEED = 0
#: arrival rate over the requested count: the window almost always
#: yields ``n_sessions`` arrivals, then the population is capped; where
#: it does not (a small row), the rate is padded again until it does
ARRIVAL_PADDING = 1.2
#: seconds between joins of a ``"fixed"`` fleet
JOIN_SPACING = 0.5
#: each backhaul's share of its edge's access capacity — the regime
#: where cache misses hurt
BACKHAUL_FRACTION = 0.25
#: edge chunk-cache capacity when ``cache`` is on
CACHE_BYTES = 1 << 32
#: resamples of the per-session QoE bootstrap
N_BOOT = 1000
#: the provisioned encode pool: (workers, seconds per variant)
ENCODE_POOL = (8, 0.05)
#: a starved pool: one worker, 10x slower transcode
STARVED_ENCODE_POOL = (1, 0.5)

ARRIVALS = ("poisson", "diurnal", "fixed")

#: a fault plan: (window seconds, the population) -> the run's schedule
FaultPlan = Callable[[float, list[FleetSession]], FaultSchedule]


@dataclass(frozen=True)
class Scenario:
    """One row of the scenario table.

    A field exists where two rows (or a CLI flag) need different values;
    everything else is a module constant.
    """

    #: configured audience: the population's size and what it is
    #: provisioned for
    n_sessions: int
    #: catalog popularity ∝ 1/rank^skew
    skew: float = 1.2
    #: ``"poisson"`` or ``"diurnal"`` joins over a Zipf catalog with
    #: abandon-on-stall churn, or ``"fixed"``: identical viewers of one
    #: video joining every ``JOIN_SPACING`` seconds, no churn
    arrivals: str = "poisson"
    #: virtual days (one video length each) the diurnal arrivals span
    days: int = 1
    #: ABR controller, a :mod:`repro.streaming.policies` registry name
    abr: str = "continuous-mpc"
    #: CDN edges; 0 is no CDN, one bottleneck link
    edges: int = 4
    #: access capacity per configured viewer, split evenly across edges
    mbps_per_session: float = 6.0
    #: edge chunk caches on (``CACHE_BYTES``) or off
    cache: bool = True
    #: viewer → edge assignment policy
    assignment: str = "popularity"
    #: origin encode pool: (workers, seconds per variant)
    encode_pool: tuple[int, float] = ENCODE_POOL
    #: contiguous fault domains the edges are grouped into
    regions: int | None = None
    #: the fault plan, a module-level function of the window and the
    #: population (a flash crowd clones the first viewer)
    faults: FaultPlan | None = None
    #: the client's retry layer
    retry: RetryPolicy | None = None
    #: the control plane's policy; None runs without one
    control: ControlPolicy | None = None
    #: feed a :class:`QoEArrivalAutoscaler` from the control plane
    autoscale: bool = False

    def __post_init__(self) -> None:
        if self.n_sessions < 1:
            raise ValueError(f"n_sessions must be >= 1, got {self.n_sessions}")
        if self.days < 1:
            raise ValueError(f"days must be >= 1, got {self.days}")
        if self.arrivals not in ARRIVALS:
            raise ValueError(
                f"arrivals must be one of {ARRIVALS}, got {self.arrivals!r}"
            )
        if self.days > 1 and self.arrivals != "diurnal":
            raise ValueError("several days need the diurnal arrivals")
        if self.autoscale and self.control is None:
            raise ValueError("autoscale needs a control plane")

    def population(self, scale: Scale) -> list[FleetSession]:
        """The row's ``n_sessions`` viewers: one shared controller,
        deterministic given ``SEED``, so every row sees the same joins
        whatever its ``abr``."""
        qm = SRQualityModel()
        lat = MeasuredSRLatency(0.001, 1e-8, 2e-8)
        ctrl = get_policy(
            self.abr, quality_model=qm, qoe_model=QoEModel(), sr_latency=lat,
            n_grid=N_GRID, horizon=HORIZON,
        )
        if self.arrivals == "fixed":
            spec = VideoSpec(
                name="longdress", n_frames=scale.stream_seconds * 30, fps=30,
                points_per_frame=scale.device_points,
            )
            return [
                FleetSession(
                    spec=spec, controller=ctrl, sr_latency=lat,
                    quality_model=qm, join_time=JOIN_SPACING * i,
                )
                for i in range(self.n_sessions)
            ]
        catalog = synthetic_catalog(
            N_VIDEOS, seconds=scale.stream_seconds,
            points_per_frame=scale.device_points, skew=self.skew,
        )
        window = float(scale.stream_seconds)
        span = window * self.days

        def arrivals(rate: float) -> PoissonArrivals | DiurnalArrivals:
            if self.arrivals == "diurnal":
                return DiurnalArrivals(
                    mean_rate_hz=rate, day_seconds=window,
                    days=float(self.days), seed=SEED,
                )
            return PoissonArrivals(rate_hz=rate, seed=SEED)

        # the expected count is proportional to the rate, so raising it
        # ends the loop
        rate = ARRIVAL_PADDING * self.n_sessions / span
        while len(arrivals(rate).times(span)) < self.n_sessions:
            rate *= ARRIVAL_PADDING
        return build_population(
            catalog, arrivals(rate), span, ctrl, sr_latency=lat, quality_model=qm,
            churn=AbandonPolicy(max_total_stall=STALL_PATIENCE), seed=SEED,
            max_sessions=self.n_sessions,
        )

    def topology(self, scale: Scale) -> CDNTopology:
        """The serving graph, provisioned for ``n_sessions`` viewers."""
        capacity = self.mbps_per_session * self.n_sessions
        duration = float(scale.stream_seconds * 4)
        if self.edges == 0:
            return single_link_cdn(stable_trace(capacity, duration=duration))
        access = capacity / self.edges
        workers, seconds = self.encode_pool
        return uniform_cdn(
            self.edges, access_mbps=access,
            backhaul_mbps=BACKHAUL_FRACTION * access, duration=duration,
            cache_bytes=CACHE_BYTES if self.cache else 0,
            assignment=self.assignment, n_encode_workers=workers,
            encode_seconds=seconds, n_regions=self.regions,
        )


@dataclass(frozen=True)
class ScenarioReport:
    """What :func:`run_scenario` returns: the facts of one row's run and
    the runs they were read from (read-only: a twin is shared)."""

    row: Scenario
    result: FleetResult
    #: the fault-free twin's run; None for a fault-free row
    twin: FleetResult | None
    #: the first fault's start, where damage is measured from
    onset: float | None
    cost: CostReport
    #: ``(dip, recover_s)`` against the twin; zero without faults
    damage: tuple[float, float]
    #: the arrival autoscaler the run fed (``row.autoscale``)
    autoscaler: QoEArrivalAutoscaler | None

    @property
    def qoe_ci95(self) -> tuple[float, float]:
        """Seeded percentile-bootstrap 95 % CI of mean per-session QoE
        (on demand: its resample matrix is ``N_BOOT`` × the fleet)."""
        return bootstrap_ci(
            [s.qoe for s in self.result.sessions], n_boot=N_BOOT, seed=SEED
        )

    def cells(self) -> dict[str, Any]:
        """The fixed report row, rounded as the tables print it (the
        bootstrap CI is left to :func:`add_row`)."""
        rep, cost = self.result.report, self.cost
        dip, recover_s = self.damage
        return {
            "n_sessions": rep.n_sessions,
            "mbps_per_session": round(self.row.mbps_per_session, 1),
            "mean_qoe": round(rep.mean_qoe, 2),
            "p5_qoe": round(rep.p5_qoe, 2),
            "p95_qoe": round(rep.p95_qoe, 2),
            "stall_ratio": round(rep.stall_ratio, 4),
            "abandon_rate": round(rep.abandon_rate, 3),
            "cache_hit": round(rep.cache_hit_rate, 3),
            "data_gb": round(rep.total_bytes / 1e9, 2),
            "edge_hit": round(rep.edge_hit_rate, 3),
            "coal_gb": round(rep.coalesced_bytes / 1e9, 2),
            "origin_gb": round(rep.origin_egress_bytes / 1e9, 2),
            "enc_p95_s": round(rep.encode_wait_p95, 3),
            "resteer": rep.sessions_resteered,
            "ticks": rep.control_ticks,
            "resizes": rep.encode_pool_resizes,
            "retries": rep.chunk_retries,
            "timeouts": rep.requests_timed_out,
            "dip": round(dip, 2),
            "recover_s": round(recover_s, 1),
            "egress_usd": round(cost.egress_usd, 2),
            "encode_usd": round(cost.encode_usd, 4),
            "total_usd": round(cost.total_usd, 2),
            "qoe_per_usd": round(
                cost.qoe_per_dollar(rep.mean_qoe, len(self.result.sessions)), 1
            ),
        }


def add_row(table: ResultTable, report: ScenarioReport, **labels: Any) -> None:
    """Add ``report``'s cells (and the row's ``labels``) in ``table``'s
    columns; the bootstrap CI is resampled only for a table that shows
    it."""
    cells = {**report.cells(), **labels}
    if "qoe_ci95" in table.columns:
        lo, hi = report.qoe_ci95
        cells["qoe_ci95"] = f"[{lo:.2f}, {hi:.2f}]"
    table.add(**{c: cells[c] for c in table.columns})


def check_conservation(tracer, rep) -> None:
    """The conservation law: report counters == event-stream fold."""
    fold = ops_from_events(tracer)
    actual = {
        "sessions_resteered": rep.sessions_resteered,
        "faults_injected": rep.faults_injected,
        "control_ticks": rep.control_ticks,
        "encode_pool_resizes": rep.encode_pool_resizes,
        "requests_timed_out": rep.requests_timed_out,
    }
    if fold != actual:
        raise RuntimeError(
            f"trace/report conservation violated: fold={fold} "
            f"report={actual}"
        )


def _simulate(row: Scenario, scale: Scale, telemetry=None):
    """One run of ``row``: ``(result, fault schedule, autoscaler)``."""
    window = float(scale.stream_seconds)
    sessions = row.population(scale)
    faults = None if row.faults is None else row.faults(window, sessions)
    autoscaler = QoEArrivalAutoscaler(day_seconds=window) if row.autoscale else None
    result = simulate_fleet(
        sessions if faults is None else faults.expand_population(sessions),
        topology=row.topology(scale),
        sr_cache="shared",
        faults=faults,
        retry_policy=row.retry,
        controller=(
            None if row.control is None
            else ControlPlane(row.control, autoscaler=autoscaler)
        ),
        telemetry=telemetry,
    )
    if telemetry is not None and telemetry.tracer is not None:
        check_conservation(telemetry.tracer, result.report)
    return result, faults, autoscaler


def run_scenario(
    row: Scenario,
    scale: Scale,
    telemetry=None,
    runs: dict[tuple[Scenario, Scale], tuple] | None = None,
) -> ScenarioReport:
    """Run ``row`` at ``scale`` (and, if it is faulted, its twin).

    ``telemetry`` observes the row's own run, never the twin, and a
    traced run must pass :func:`check_conservation`.  ``runs`` is the
    caller's memo of fault-free runs keyed by ``(row, scale)``: passing
    one dict to every row of an experiment runs each twin once, and the
    runs are freed with the dict.
    """

    def fault_free(r: Scenario):
        if runs is None:
            return _simulate(r, scale)
        if (r, scale) not in runs:
            runs[r, scale] = _simulate(r, scale)
        return runs[r, scale]

    if row.faults is None and telemetry is None:
        result, faults, autoscaler = fault_free(row)
    else:
        result, faults, autoscaler = _simulate(row, scale, telemetry)
    twin, onset, damage = None, None, (0.0, 0.0)
    if faults is not None:
        twin = fault_free(replace(row, faults=None))[0]
        onset = min(ev.start for ev in faults.events)
        damage = fault_damage(result, twin, onset, range(len(result.sessions)))
    return ScenarioReport(
        row=row, result=result, twin=twin, onset=onset, cost=price(result),
        damage=damage, autoscaler=autoscaler,
    )
