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

from ..net.traces import stable_trace
from ..streaming.cdn import CDNTopology, single_link_cdn, uniform_cdn
from ..streaming.fleet import simulate_fleet
from .common import SMOKE, ResultTable, Scale
from .workloads import make_population

__all__ = ["run_fleet_cdn", "make_cdn"]


def make_cdn(
    scale: Scale,
    n_sessions: int,
    *,
    n_edges: int = 4,
    mbps_per_session: float = 6.0,
    backhaul_fraction: float = 0.25,
    cache_bytes: int = 1 << 32,
    assignment: str = "popularity",
    n_encode_workers: int = 8,
    encode_seconds: float = 0.05,
    n_regions: int | None = None,
) -> CDNTopology:
    """A symmetric CDN sized for ``n_sessions`` viewers.

    Access capacity is provisioned at ``mbps_per_session`` aggregated and
    split evenly across edges; each backhaul gets ``backhaul_fraction``
    of its edge's access capacity — the regime where cache misses hurt.
    ``n_regions`` groups the edges into that many contiguous fault
    domains (for region-outage scenarios).
    """
    access_mbps = mbps_per_session * n_sessions / n_edges
    return uniform_cdn(
        n_edges,
        access_mbps=access_mbps,
        backhaul_mbps=backhaul_fraction * access_mbps,
        duration=float(scale.stream_seconds * 4),
        cache_bytes=cache_bytes,
        assignment=assignment,
        n_encode_workers=n_encode_workers,
        encode_seconds=encode_seconds,
        n_regions=n_regions,
    )


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
        columns=[
            "topology",
            "assign",
            "edge_hit",
            "coal_gb",
            "origin_gb",
            "data_gb",
            "enc_p95_s",
            "mean_qoe",
            "stall_ratio",
            "abandon_rate",
        ],
        notes=(
            f"{n_sessions} viewers, Zipf skew {skew:g}, {n_edges} edges, "
            f"{mbps_per_session:g} Mbps/viewer access split across edges, "
            "backhaul at 25% of edge access; origin_gb is backhaul egress "
            "(cold misses + startup), coal_gb the bytes served by "
            "coalescing onto in-flight fills, data_gb bytes delivered to "
            "viewers."
        ),
    )
    sessions = make_population(
        scale, n_sessions, skew=skew, diurnal=diurnal, days=days, abr=abr
    )

    def row(topology: str, assign: str, rep) -> None:
        table.add(
            topology=topology,
            assign=assign,
            edge_hit=round(rep.edge_hit_rate, 3),
            coal_gb=round(rep.coalesced_bytes / 1e9, 2),
            origin_gb=round(rep.origin_egress_bytes / 1e9, 2),
            data_gb=round(rep.total_bytes / 1e9, 2),
            enc_p95_s=round(rep.encode_wait_p95, 3),
            mean_qoe=round(rep.mean_qoe, 2),
            stall_ratio=round(rep.stall_ratio, 4),
            abandon_rate=round(rep.abandon_rate, 3),
        )

    # (a) no CDN: one bottleneck link at the same aggregate access capacity.
    trace = stable_trace(
        mbps_per_session * len(sessions), duration=float(scale.stream_seconds * 4)
    )
    rep = simulate_fleet(
        sessions,
        topology=single_link_cdn(trace),
        sr_cache="shared",
    ).report
    row("single-link", "-", rep)

    # (b) cache off vs on, and (c) the assignment policies.
    variants = [("no-cache", "popularity", 0), ("cdn", "static", 1 << 32),
                ("cdn", "least-loaded", 1 << 32), ("cdn", "popularity", 1 << 32)]
    for label, assignment, cache_bytes in variants:
        topo = make_cdn(
            scale, len(sessions), n_edges=n_edges,
            mbps_per_session=mbps_per_session, cache_bytes=cache_bytes,
            assignment=assignment,
        )
        rep = simulate_fleet(
            sessions, topology=topo, sr_cache="shared"
        ).report
        row(label, assignment, rep)

    # (d) starved encode pool: one worker, 10x slower transcode.
    topo = make_cdn(
        scale, len(sessions), n_edges=n_edges,
        mbps_per_session=mbps_per_session, assignment="popularity",
        n_encode_workers=1, encode_seconds=0.5,
    )
    rep = simulate_fleet(
        sessions, topology=topo, sr_cache="shared"
    ).report
    row("cdn+slow-encode", "popularity", rep)
    return table
