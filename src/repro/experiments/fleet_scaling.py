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

from .common import SMOKE, ResultTable, Scale
from .scenario import STALL_PATIENCE, Scenario, add_row, run_scenario

__all__ = ["run_fleet_scaling", "run_population_fleet"]


def run_fleet_scaling(
    scale: Scale = SMOKE,
    fleet_sizes: tuple[int, ...] = (1, 4, 16, 64),
    link_mbps: float = 400.0,
    population_sessions: int = 200,
    population_mbps_per_session: float = 6.0,
    abr: str = "continuous-mpc",
) -> ResultTable:
    """Sweep fleet size on a fixed bottleneck; report aggregate QoE.

    Each fixed-join fleet shares one ``link_mbps`` link.  The final row
    (``population_sessions > 0``) replaces it with a Poisson-arrival
    population over a Zipf catalog with abandon-on-stall churn,
    provisioned at ``population_mbps_per_session`` — the end-to-end
    population path.
    """
    table = ResultTable(
        title="Fleet scaling: aggregate QoE on a shared bottleneck",
        columns=[
            "n_sessions", "policy", "mean_qoe", "p5_qoe", "p95_qoe",
            "stall_ratio", "cache_hit", "abandon_rate", "data_gb",
            "mbps_per_session",
        ],
        notes=(
            f"{link_mbps:g} Mbps bottleneck, fair-share unless noted; "
            "cache_hit is the shared SR-result cache hit rate.  The "
            "poisson+churn row is a Poisson-arrival Zipf-catalog viewer "
            "population with abandon-on-stall churn."
        ),
    )
    rows = [
        ("fair", Scenario(
            n, arrivals="fixed", abr=abr, edges=0, mbps_per_session=link_mbps / n
        ))
        for n in fleet_sizes
    ]
    if population_sessions > 0:
        rows.append(("fair+poisson+churn", Scenario(
            population_sessions, abr=abr, edges=0,
            mbps_per_session=population_mbps_per_session,
        )))
    for policy, row in rows:
        add_row(table, run_scenario(row, scale), policy=policy)
    return table


def run_population_fleet(
    scale: Scale = SMOKE,
    skews: tuple[float, ...] = (0.0, 0.8, 1.6, 2.4),
    n_sessions: int = 200,
    mbps_per_session: float = 6.0,
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
            "skew", "n_sessions", "mean_qoe", "stall_ratio", "cache_hit",
            "abandon_rate", "data_gb",
        ],
        notes=(
            f"{arrivals_label} arrivals over one video length, "
            f"{mbps_per_session:g} Mbps per session, abandon after "
            f"{STALL_PATIENCE:g}s of stall; catalog popularity ∝ 1/rank^skew."
        ),
    )
    for skew in skews:
        row = Scenario(
            n_sessions, skew=skew, arrivals="diurnal" if diurnal else "poisson",
            abr=abr, edges=0, mbps_per_session=mbps_per_session,
        )
        add_row(table, run_scenario(row, scale), skew=skew)
    return table
