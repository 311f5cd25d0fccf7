"""Infrastructure cost model: hand-checkable dollars from run accounting."""

import pytest

from repro.metrics import QoEModel
from repro.net import stable_trace
from repro.streaming import (
    AbandonPolicy,
    ContinuousMPC,
    CostReport,
    FleetSession,
    SRQualityModel,
    price,
    simulate_fleet,
    single_link_cdn,
    uniform_cdn,
)
from repro.streaming.cdn import EncodeQueue

from .helpers import spec, sr_lat

GB = 1e9
MONTH = 30 * 86400


def make_sessions(n=6):
    qm = SRQualityModel()
    lat = sr_lat()
    ctrl = ContinuousMPC(qm, QoEModel(), lat, n_grid=8, horizon=2)
    return [
        FleetSession(
            spec=spec(6, name=f"v{i % 2}"),
            controller=ctrl,
            sr_latency=lat,
            quality_model=qm,
            join_time=1.0 * i,
            churn=AbandonPolicy(max_total_stall=20.0),
        )
        for i in range(n)
    ]


def make_topology(n_edges=2, encode_seconds=0.05, cache_bytes=1 << 30):
    return uniform_cdn(
        n_edges,
        access_mbps=80.0,
        backhaul_mbps=30.0,
        cache_bytes=cache_bytes,
        assignment="static",
        n_encode_workers=3,
        encode_seconds=encode_seconds,
    )


class TestEncodeBusyAccounting:
    def test_queue_accumulates_job_costs(self):
        q = EncodeQueue(n_workers=2)
        q.submit(0.0, 0.5)
        q.submit(0.1, 0.25)
        assert q.busy_seconds == pytest.approx(0.75)

    def test_zero_cost_jobs_bypass(self):
        q = EncodeQueue(n_workers=2)
        q.submit(0.0, 0.0)
        assert q.busy_seconds == 0.0

    def test_report_reads_origin_busy_time(self):
        result = simulate_fleet(make_sessions(), topology=make_topology())
        assert result.report.encode_core_seconds == (
            result.topology.origin.queue.busy_seconds
        )
        assert result.report.encode_core_seconds > 0.0

    def test_single_link_has_no_encode_time(self):
        result = simulate_fleet(
            make_sessions(),
            topology=single_link_cdn(stable_trace(60.0, duration=600.0)),
        )
        assert result.report.encode_core_seconds == 0.0


class TestCostModel:
    def test_price_components_hand_computed(self):
        topo = make_topology(cache_bytes=1 << 30)
        result = simulate_fleet(make_sessions(), topology=topo)
        cost = price(result)
        rep = result.report

        assert cost.egress_gb == rep.origin_egress_bytes / GB
        assert cost.encode_core_hours == rep.encode_core_seconds / 3600.0
        expected_storage = (2 * (1 << 30) / GB) * (rep.makespan / MONTH)
        assert cost.storage_gb_months == pytest.approx(expected_storage)
        expected_sr_hours = (
            sum(s.watched_seconds for s in result.sessions) / 3600.0
        )
        assert cost.sr_device_hours == pytest.approx(expected_sr_hours)

        assert cost.egress_usd == pytest.approx(cost.egress_gb * 0.05)
        assert cost.encode_usd == pytest.approx(
            cost.encode_core_hours * 0.08
        )
        assert cost.storage_usd == pytest.approx(
            cost.storage_gb_months * 0.02
        )
        assert cost.sr_usd == pytest.approx(cost.sr_device_hours * 0.01)
        assert cost.total_usd == pytest.approx(
            cost.egress_usd + cost.encode_usd + cost.storage_usd
            + cost.sr_usd
        )

    def test_single_link_prices_delivered_bytes(self):
        """A zero-capacity edge means every delivered byte is origin
        egress and there is no cache to store or encode pool to bill."""
        result = simulate_fleet(
            make_sessions(),
            topology=single_link_cdn(stable_trace(60.0, duration=600.0)),
        )
        cost = price(result)
        assert cost.egress_gb == result.report.total_bytes / GB
        assert cost.encode_usd == 0.0
        assert cost.storage_usd == 0.0
        assert cost.sr_usd > 0.0

    def test_qoe_per_dollar(self):
        report = CostReport(
            egress_gb=1.0, encode_core_hours=0.0, storage_gb_months=0.0,
            sr_device_hours=0.0, egress_usd=2.0, encode_usd=0.0,
            storage_usd=0.0, sr_usd=0.0, total_usd=2.0,
        )
        assert report.qoe_per_dollar(3.0, 10) == pytest.approx(15.0)

    def test_free_run_is_infinite_qoe_per_dollar(self):
        free = CostReport(
            egress_gb=1.0, encode_core_hours=0.0, storage_gb_months=0.0,
            sr_device_hours=0.0, egress_usd=0.0, encode_usd=0.0,
            storage_usd=0.0, sr_usd=0.0, total_usd=0.0,
        )
        assert free.qoe_per_dollar(3.0, 10) == float("inf")


class TestPricingAFinishedRun:
    def test_sr_cache_lowers_sr_hours_not_watched(self):
        """The SR device-hour line bills watched seconds; a shared SR
        cache changes compute reuse, not watch time, so the bill is a
        function of viewer behaviour only."""
        no_cache = price(
            simulate_fleet(make_sessions(), topology=make_topology())
        )
        cached = price(
            simulate_fleet(
                make_sessions(), topology=make_topology(),
                sr_cache="shared",
            )
        )
        assert no_cache.sr_device_hours == pytest.approx(
            cached.sr_device_hours, rel=0.2
        )
