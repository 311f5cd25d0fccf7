"""Policy-zoo A/B: QoE per dollar across ABR controllers on one workload.

Beyond the paper: VoLUT's evaluation pins the controller (continuous
MPC) and varies the serving substrate; an operator choosing a fleet-wide
ABR policy asks the opposite question — same substrate, same viewers,
which decision rule buys the most experience per infrastructure dollar?
This experiment runs every controller in the
:mod:`repro.streaming.policies` registry over a *common* seeded CDN
workload (identical Zipf catalog, identical arrival times — only the
decision rule varies) and reports, per policy:

* ``mean_qoe`` with a seeded percentile-bootstrap 95% CI over
  per-session QoE (:func:`~repro.metrics.qoe.bootstrap_ci`) — the
  interval an A/B gate would read before promoting a policy;
* the run's infrastructure bill from the first-principles
  :func:`~repro.streaming.cost.price` (origin egress + encode
  core-time + amortized edge cache + client SR device-time);
* ``qoe_per_usd`` — summed delivered QoE per dollar — and a ``pareto``
  marker for the policies on the (mean QoE, total cost) frontier: a
  ``*`` row is dominated by no other policy (none is at least as good
  on QoE *and* no more expensive).

Each finished run is priced afterwards by ``price(result)``
(:func:`~repro.experiments.scenario.run_scenario` does it for every
row), so the bill is read off the same result the QoE columns come from.
"""

from __future__ import annotations

from .common import SMOKE, ResultTable, Scale
from .scenario import N_BOOT, Scenario, add_row, run_scenario

__all__ = ["run_fleet_policies", "ZOO_POLICIES"]

#: The A/B lineup: both MPC variants (the paper's H1/H2), BOLA and the
#: rate rule, over identical quality/latency models.
ZOO_POLICIES = (
    "discrete-mpc",
    "bola",
    "throughput",
    "continuous-mpc",
)


def _pareto_front(points: list[tuple[float, float]]) -> list[bool]:
    """Which (qoe, usd) points no other point dominates.

    ``i`` is dominated when some ``j`` has ``qoe_j >= qoe_i`` and
    ``usd_j <= usd_i`` with at least one strict — better-or-equal
    experience for less-or-equal money.
    """
    front = []
    for i, (qi, ci) in enumerate(points):
        dominated = any(
            (qj >= qi and cj <= ci) and (qj > qi or cj < ci)
            for j, (qj, cj) in enumerate(points)
            if j != i
        )
        front.append(not dominated)
    return front


def run_fleet_policies(
    scale: Scale = SMOKE,
    n_sessions: int = 2000,
    skew: float = 1.2,
    n_edges: int = 4,
    mbps_per_session: float = 6.0,
) -> ResultTable:
    """Run the policy zoo over one seeded CDN workload; rank by QoE/$.

    Every policy sees byte-identical arrivals and catalog (the population
    is seeded independently of the controller), the same symmetric CDN,
    and the same list prices (:func:`~repro.streaming.cost.price`) —
    differences between rows are the decision rules, nothing else.
    """
    table = ResultTable(
        title="Policy zoo: QoE per infrastructure dollar, common workload",
        columns=[
            "policy", "mean_qoe", "qoe_ci95", "stall_ratio", "abandon_rate",
            "egress_usd", "encode_usd", "total_usd", "qoe_per_usd", "pareto",
        ],
        notes=(
            f"{n_sessions} viewers, Zipf skew {skew:g}, {n_edges} edges, "
            f"{mbps_per_session:g} Mbps/viewer; same seeded arrivals and "
            "catalog for every policy; CI is a "
            f"seeded {N_BOOT}-resample percentile bootstrap over "
            "per-session QoE; * marks the (mean QoE, total $) Pareto "
            "frontier."
        ),
    )
    # a row is added as its run ends, so one run is alive at a time; the
    # Pareto marker is set once every point is in
    points = []
    for name in ZOO_POLICIES:
        report = run_scenario(Scenario(
            n_sessions, skew=skew, abr=name, edges=n_edges,
            mbps_per_session=mbps_per_session,
        ), scale)
        add_row(table, report, policy=name, pareto="")
        points.append((report.result.report.mean_qoe, report.cost.total_usd))
    for row, on_front in zip(table.rows, _pareto_front(points)):
        row["pareto"] = "*" if on_front else ""
    return table
