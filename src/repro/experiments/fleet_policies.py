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

Each finished run is priced afterwards by ``price(result)``,
so the bill is read off the same result the QoE columns come from.
"""

from __future__ import annotations

from ..metrics.qoe import bootstrap_ci
from ..streaming.cost import price
from ..streaming.fleet import simulate_fleet
from .common import SMOKE, ResultTable, Scale
from .fleet_cdn import make_cdn
from .workloads import make_population

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
    n_boot: int = 1000,
    seed: int = 0,
) -> ResultTable:
    """Run the policy zoo over one seeded CDN workload; rank by QoE/$.

    Every policy sees byte-identical arrivals and catalog (``seed`` pins
    the population independently of the controller), the same symmetric
    CDN, and the same list prices (:func:`~repro.streaming.cost.price`)
    — differences between rows are the decision rules, nothing else.
    """
    table = ResultTable(
        title="Policy zoo: QoE per infrastructure dollar, common workload",
        columns=[
            "policy",
            "mean_qoe",
            "qoe_ci95",
            "stall_ratio",
            "abandon_rate",
            "egress_usd",
            "encode_usd",
            "total_usd",
            "qoe_per_usd",
            "pareto",
        ],
        notes=(
            f"{n_sessions} viewers, Zipf skew {skew:g}, {n_edges} edges, "
            f"{mbps_per_session:g} Mbps/viewer; same seeded arrivals and "
            "catalog for every policy; CI is a "
            f"seeded {n_boot}-resample percentile bootstrap over "
            "per-session QoE; * marks the (mean QoE, total $) Pareto "
            "frontier."
        ),
    )
    stats: list[dict] = []
    for name in ZOO_POLICIES:
        sessions = make_population(
            scale, n_sessions, skew=skew, abr=name, seed=seed
        )
        topo = make_cdn(
            scale, len(sessions), n_edges=n_edges,
            mbps_per_session=mbps_per_session,
        )
        result = simulate_fleet(
            sessions,
            topology=topo,
            sr_cache="shared",
        )
        rep = result.report
        cost = price(result)
        lo, hi = bootstrap_ci(
            [s.qoe for s in result.sessions], n_boot=n_boot, seed=seed
        )
        stats.append(
            {
                "policy": name,
                "rep": rep,
                "cost": cost,
                "ci": (lo, hi),
                "qoe_per_usd": cost.qoe_per_dollar(
                    rep.mean_qoe, len(result.sessions)
                ),
            }
        )
    front = _pareto_front(
        [(s["rep"].mean_qoe, s["cost"].total_usd) for s in stats]
    )
    for s, on_front in zip(stats, front):
        rep, cost = s["rep"], s["cost"]
        lo, hi = s["ci"]
        table.add(
            policy=s["policy"],
            mean_qoe=round(rep.mean_qoe, 2),
            qoe_ci95=f"[{lo:.2f}, {hi:.2f}]",
            stall_ratio=round(rep.stall_ratio, 4),
            abandon_rate=round(rep.abandon_rate, 3),
            egress_usd=round(cost.egress_usd, 2),
            encode_usd=round(cost.encode_usd, 4),
            total_usd=round(cost.total_usd, 2),
            qoe_per_usd=round(s["qoe_per_usd"], 1),
            pareto="*" if on_front else "",
        )
    return table
