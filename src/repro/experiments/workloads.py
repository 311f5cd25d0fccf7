"""Shared client stacks and viewer workloads for the fleet experiments.

The fleet-family experiments (``fleet``, ``fleet-population``,
``fleet-cdn``) all simulate the same kind of client — a VoLUT session
with the continuous MPC planner over the measured LUT latency model —
against different serving substrates.  The client construction and the
population builder live here once so every experiment (and the
benchmarks) agree on what "a VoLUT viewer" is.
"""

from __future__ import annotations

from ..metrics.qoe import QoEModel
from ..streaming.abr import AbrController, SRQualityModel
from ..streaming.latency import MeasuredSRLatency
from ..streaming.policies import get_policy
from ..streaming.population import (
    DiurnalArrivals,
    PoissonArrivals,
    build_population,
    synthetic_catalog,
)
from ..streaming.simulator import AbandonPolicy, FleetSession
from .common import Scale

__all__ = ["volut_latency_model", "volut_client", "make_population"]


def volut_latency_model() -> MeasuredSRLatency:
    """A VoLUT-class SR latency: ~ms per frame at paper-scale point counts."""
    return MeasuredSRLatency(0.001, 1e-8, 2e-8)


def volut_client(
    n_grid: int, horizon: int, abr: str = "continuous-mpc"
) -> tuple[AbrController, SRQualityModel, MeasuredSRLatency]:
    """One shared VoLUT client stack: controller + quality/latency models.

    ``abr`` names a controller in the
    :mod:`repro.streaming.policies` registry (``continuous-mpc`` — the
    historical default — ``discrete-mpc``, ``bola``, ``throughput``,
    ...); all are built over the same quality and measured
    LUT latency models so an A/B varies only the decision rule.
    """
    qm = SRQualityModel()
    lat = volut_latency_model()
    ctrl = get_policy(
        abr,
        quality_model=qm,
        qoe_model=QoEModel(),
        sr_latency=lat,
        n_grid=n_grid,
        horizon=horizon,
    )
    return ctrl, qm, lat


def make_population(
    scale: Scale,
    n_sessions: int,
    *,
    skew: float = 1.2,
    n_videos: int = 8,
    stall_patience: float = 12.0,
    n_grid: int = 16,
    horizon: int = 3,
    abr: str = "continuous-mpc",
    seed: int = 0,
    diurnal: bool = False,
    days: int = 1,
    autoscale=None,
) -> list[FleetSession]:
    """A Zipf-catalog, churn-enabled viewer population of VoLUT clients.

    Arrivals are Poisson by default; ``diurnal=True`` swaps in the
    nonhomogeneous :class:`~repro.streaming.population.DiurnalArrivals`
    process with the window compressed to one virtual day, so the
    prime-time peak lands inside the simulated interval.  ``days``
    stretches the run over several such virtual days (implies the
    diurnal process — a multi-day homogeneous run is just a longer
    window), spreading the same ``n_sessions`` across the whole span.
    ``autoscale`` is handed to the diurnal process's per-day rate hook —
    the lever a :class:`~repro.streaming.control.QoEArrivalAutoscaler`
    closes the arrival loop through.  ``abr`` swaps the controller (a
    :mod:`repro.streaming.policies` registry name) while arrivals and
    catalog stay pinned to ``seed`` — every policy in an A/B sees the
    same viewers at the same times.
    """
    if days < 1:
        raise ValueError(f"days must be >= 1, got {days}")
    if autoscale is not None and not (diurnal or days > 1):
        raise ValueError("autoscale needs the diurnal arrival process")
    ctrl, qm, lat = volut_client(n_grid, horizon, abr=abr)
    catalog = synthetic_catalog(
        n_videos,
        seconds=scale.stream_seconds,
        points_per_frame=scale.device_points,
        skew=skew,
    )
    # Arrivals spread over `days` virtual days of one video length each;
    # the rate is padded ~20% so the window almost always yields the
    # requested session count, then capped.
    window = float(scale.stream_seconds)
    span = window * days
    rate = 1.2 * n_sessions / span
    if diurnal or days > 1:
        arrivals: PoissonArrivals | DiurnalArrivals = DiurnalArrivals(
            mean_rate_hz=rate, day_seconds=window, days=float(days), seed=seed,
            autoscale=autoscale,
        )
    else:
        arrivals = PoissonArrivals(rate_hz=rate, seed=seed)
    return build_population(
        catalog,
        arrivals,
        span,
        ctrl,
        sr_latency=lat,
        quality_model=qm,
        churn=AbandonPolicy(max_total_stall=stall_patience),
        seed=seed,
        max_sessions=n_sessions,
    )
