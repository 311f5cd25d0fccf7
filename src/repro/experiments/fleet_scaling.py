"""Fleet scaling — aggregate QoE as concurrent sessions contend for a link.

Beyond the paper: §7.4/§7.5 evaluate one client on one trace.  A service
serves *fleets*, so this experiment sweeps the number of concurrent
sessions sharing a fixed bottleneck and reports the operator-facing
aggregates (mean/p5/p95 QoE, stall ratio, SR-cache hit rate, delivered
bytes).  Two effects compound as the fleet grows:

* per-session bandwidth shrinks (fair-share), pushing the continuous ABR
  down the density range — QoE degrades gracefully rather than cliffing;
* co-watching sessions hit the shared SR-result cache, so the marginal
  compute cost of a viewer falls with popularity.

The sweep ends with a **trace-driven population** row: a Poisson-arrival
viewer population over a Zipf-skewed catalog with abandon-on-stall churn —
the workload shape a real service sees, run through the same scheduler.
``run_population_fleet`` sweeps the popularity skew of that population to
isolate the co-watching lever.
"""

from __future__ import annotations

from ..net.traces import stable_trace
from ..streaming.cdn import single_link_cdn
from ..streaming.chunks import VideoSpec
from ..streaming.fleet import FleetSession, SRResultCache, simulate_fleet
from .common import SMOKE, ResultTable, Scale
from .workloads import make_population, volut_client

__all__ = ["run_fleet_scaling", "run_population_fleet", "make_fleet"]


def make_fleet(
    n_sessions: int,
    spec: VideoSpec,
    join_spacing: float = 0.5,
    n_grid: int = 16,
    horizon: int = 3,
    abr: str = "continuous-mpc",
) -> list[FleetSession]:
    """``n_sessions`` identical VoLUT clients with staggered joins.

    All sessions share one controller instance (the ABR classes are
    stateless between decisions), so the fleet scheduler can resolve
    simultaneous MPC decisions in a single vectorized ``decide_batch``
    pass instead of ``n_sessions`` scalar calls.
    """
    if n_sessions <= 0:
        raise ValueError("need at least one session")
    ctrl, qm, lat = volut_client(n_grid, horizon, abr=abr)
    return [
        FleetSession(
            spec=spec,
            controller=ctrl,
            sr_latency=lat,
            quality_model=qm,
            join_time=join_spacing * i,
        )
        for i in range(n_sessions)
    ]


def run_fleet_scaling(
    scale: Scale = SMOKE,
    fleet_sizes: tuple[int, ...] = (1, 4, 16, 64),
    link_mbps: float = 400.0,
    sr_cache_size: int = 4096,
    population_sessions: int = 200,
    population_mbps_per_session: float = 6.0,
    abr: str = "continuous-mpc",
) -> ResultTable:
    """Sweep fleet size on a fixed bottleneck; report aggregate QoE.

    The final row (``population_sessions > 0``) replaces the fixed-join
    fleet with a Poisson-arrival population over a Zipf catalog with
    abandon-on-stall churn, provisioned at
    ``population_mbps_per_session`` — the end-to-end population path.
    """
    spec = VideoSpec(
        name="longdress",
        n_frames=scale.stream_seconds * 30,
        fps=30,
        points_per_frame=scale.device_points,
    )
    table = ResultTable(
        title="Fleet scaling: aggregate QoE on a shared bottleneck",
        columns=[
            "n_sessions",
            "policy",
            "mean_qoe",
            "p5_qoe",
            "p95_qoe",
            "stall_ratio",
            "cache_hit",
            "abandon_rate",
            "data_gb",
            "mbps_per_session",
        ],
        notes=(
            f"{link_mbps:g} Mbps bottleneck, fair-share unless noted; "
            "cache_hit is the shared SR-result cache hit rate.  The "
            "poisson+churn row is a Poisson-arrival Zipf-catalog viewer "
            "population with abandon-on-stall churn."
        ),
    )
    trace = stable_trace(link_mbps, duration=float(scale.stream_seconds * 4))
    for n in fleet_sizes:
        cache = SRResultCache(capacity=sr_cache_size)
        result = simulate_fleet(
            make_fleet(n, spec, abr=abr),
            topology=single_link_cdn(trace),
            sr_cache=cache,
        )
        rep = result.report
        table.add(
            n_sessions=n,
            policy="fair",
            mean_qoe=round(rep.mean_qoe, 2),
            p5_qoe=round(rep.p5_qoe, 2),
            p95_qoe=round(rep.p95_qoe, 2),
            stall_ratio=round(rep.stall_ratio, 4),
            cache_hit=round(rep.cache_hit_rate, 3),
            abandon_rate=round(rep.abandon_rate, 3),
            data_gb=round(rep.total_bytes / 1e9, 2),
            mbps_per_session=round(link_mbps / n, 1),
        )
    if population_sessions > 0:
        sessions = make_population(scale, population_sessions, abr=abr)
        cache = SRResultCache(capacity=sr_cache_size)
        pop_trace = stable_trace(
            population_mbps_per_session * len(sessions),
            duration=float(scale.stream_seconds * 4),
        )
        rep = simulate_fleet(
            sessions,
            topology=single_link_cdn(pop_trace),
            sr_cache=cache,
        ).report
        table.add(
            n_sessions=len(sessions),
            policy="fair+poisson+churn",
            mean_qoe=round(rep.mean_qoe, 2),
            p5_qoe=round(rep.p5_qoe, 2),
            p95_qoe=round(rep.p95_qoe, 2),
            stall_ratio=round(rep.stall_ratio, 4),
            cache_hit=round(rep.cache_hit_rate, 3),
            abandon_rate=round(rep.abandon_rate, 3),
            data_gb=round(rep.total_bytes / 1e9, 2),
            mbps_per_session=population_mbps_per_session,
        )
    return table


def run_population_fleet(
    scale: Scale = SMOKE,
    skews: tuple[float, ...] = (0.0, 0.8, 1.6, 2.4),
    n_sessions: int = 200,
    mbps_per_session: float = 6.0,
    stall_patience: float = 12.0,
    diurnal: bool = False,
    abr: str = "continuous-mpc",
) -> ResultTable:
    """Sweep catalog popularity skew for a churn-enabled viewer population.

    Higher skew concentrates viewing on the head of the catalog, so the
    shared SR-result cache absorbs more of the fleet's compute — the
    popularity lever behind client-assist serving economics.

    ``diurnal=True`` replaces the homogeneous Poisson arrivals with the
    24-hour diurnal rate curve compressed into the window (one virtual
    day), so joins bunch at the prime-time peak instead of spreading
    evenly — the provisioning-relevant worst case.
    """
    arrivals_label = "Diurnal (24h curve in one window)" if diurnal else "Poisson"
    table = ResultTable(
        title="Viewer population: popularity skew vs cache amortization",
        columns=[
            "skew",
            "n_sessions",
            "mean_qoe",
            "stall_ratio",
            "cache_hit",
            "abandon_rate",
            "data_gb",
        ],
        notes=(
            f"{arrivals_label} arrivals over one video length, "
            f"{mbps_per_session:g} Mbps per session, abandon after "
            f"{stall_patience:g}s of stall; catalog popularity ∝ 1/rank^skew."
        ),
    )
    for skew in skews:
        sessions = make_population(
            scale, n_sessions, skew=skew, stall_patience=stall_patience,
            diurnal=diurnal, abr=abr,
        )
        cache = SRResultCache()
        trace = stable_trace(
            mbps_per_session * len(sessions),
            duration=float(scale.stream_seconds * 4),
        )
        rep = simulate_fleet(
            sessions, topology=single_link_cdn(trace), sr_cache=cache
        ).report
        table.add(
            skew=skew,
            n_sessions=len(sessions),
            mean_qoe=round(rep.mean_qoe, 2),
            stall_ratio=round(rep.stall_ratio, 4),
            cache_hit=round(rep.cache_hit_rate, 3),
            abandon_rate=round(rep.abandon_rate, 3),
            data_gb=round(rep.total_bytes / 1e9, 2),
        )
    return table
