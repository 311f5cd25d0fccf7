"""CDN topology — edge caching, assignment policy, and encode contention.

Beyond the paper: the single-link fleet answers "what happens on a shared
bottleneck"; a deployed service fronts viewers with a CDN, and its
economics hinge on what the *edge* absorbs.  This experiment runs the
same Zipf-skewed, churn-enabled viewer population through
:class:`~repro.streaming.cdn.CDNTopology` variants and reports the
operator-facing CDN columns:

* ``edge_hit`` — chunk-cache hit rate across edges (the egress lever);
* ``origin_gb`` vs ``data_gb`` — bytes that crossed an origin→edge
  backhaul vs bytes delivered to viewers (their gap is what the CDN
  saved; on a Zipf population a warm edge cache cuts origin egress well
  below delivered bytes);
* ``enc_p95`` — p95 encode-queue wait: the server-side transcode
  contention cold misses feel when the worker pool is undersized.

Rows sweep (a) a no-CDN single-link baseline, (b) cache off vs on at the
same capacity, (c) the three viewer→edge assignment policies, and (d) an
undersized encode pool.
"""

from __future__ import annotations

from dataclasses import replace

from .common import SMOKE, ResultTable, Scale
from .scenario import STARVED_ENCODE_POOL, Scenario, add_row, run_scenario

__all__ = ["run_fleet_cdn", "cdn_rows"]

COLUMNS = [
    "topology", "assign", "edge_hit", "coal_gb", "origin_gb", "data_gb",
    "enc_p95_s", "mean_qoe", "stall_ratio", "abandon_rate",
]


def cdn_rows(
    n_sessions: int = 200,
    skew: float = 1.2,
    n_edges: int = 4,
    mbps_per_session: float = 6.0,
    diurnal: bool = False,
    days: int = 1,
    abr: str = "continuous-mpc",
) -> list[tuple[str, Scenario]]:
    """``(topology, row)`` pairs: one population over every variant."""
    arrivals = "diurnal" if diurnal or days > 1 else "poisson"
    cdn = {
        assignment: Scenario(
            n_sessions, skew=skew, arrivals=arrivals, days=days, abr=abr,
            edges=n_edges, mbps_per_session=mbps_per_session,
            assignment=assignment,
        )
        for assignment in ("static", "least-loaded", "popularity")
    }
    popular = cdn["popularity"]
    return [
        # no CDN: one bottleneck link at the same aggregate access capacity
        ("single-link", replace(popular, edges=0)),
        ("no-cache", replace(popular, cache=False)),
        *(("cdn", row) for row in cdn.values()),
        ("cdn+slow-encode", replace(popular, encode_pool=STARVED_ENCODE_POOL)),
    ]


def run_fleet_cdn(
    scale: Scale = SMOKE,
    n_sessions: int = 200,
    skew: float = 1.2,
    n_edges: int = 4,
    mbps_per_session: float = 6.0,
    diurnal: bool = False,
    days: int = 1,
    abr: str = "continuous-mpc",
) -> ResultTable:
    """Run the population through CDN variants; report edge-side aggregates.

    ``days > 1`` stretches the diurnal population over several virtual
    days (the multi-day smoke the nightly lane runs).
    """
    table = ResultTable(
        title="CDN topology: edge caching, assignment, encode contention",
        columns=COLUMNS,
        notes=(
            f"{n_sessions} viewers, Zipf skew {skew:g}, {n_edges} edges, "
            f"{mbps_per_session:g} Mbps/viewer access split across edges, "
            "backhaul at 25% of edge access; origin_gb is backhaul egress "
            "(cold misses + startup), coal_gb the bytes served by "
            "coalescing onto in-flight fills, data_gb bytes delivered to "
            "viewers."
        ),
    )
    rows = cdn_rows(n_sessions, skew, n_edges, mbps_per_session, diurnal, days, abr)
    for topology, row in rows:
        assign = "-" if row.edges == 0 else row.assignment
        add_row(table, run_scenario(row, scale), topology=topology, assign=assign)
    return table
