"""Trace-driven population properties: conservation, skew, determinism."""

import math

import numpy as np
import pytest

from repro.metrics import QoEModel
from repro.net import stable_trace
from repro.streaming import (
    AbandonPolicy,
    ContentCatalog,
    ContinuousMPC,
    PoissonArrivals,
    SRQualityModel,
    TraceArrivals,
    build_population,
    simulate_fleet,
    single_link_cdn,
)
from repro.streaming.population import synthetic_catalog

from .helpers import FixedDensity, sr_lat, spec


class TestArrivalProcesses:
    def test_poisson_deterministic_and_in_window(self):
        arr = PoissonArrivals(rate_hz=2.0, seed=5)
        a, b = arr.times(30.0), arr.times(30.0)
        assert np.array_equal(a, b)
        assert len(a) > 0
        assert np.all((a > 0) & (a <= 30.0))
        assert np.all(np.diff(a) > 0)

    def test_poisson_rate_scales_arrival_count(self):
        slow = PoissonArrivals(rate_hz=0.5, seed=1).times(100.0)
        fast = PoissonArrivals(rate_hz=5.0, seed=1).times(100.0)
        assert len(fast) > len(slow)

    def test_poisson_validation(self):
        with pytest.raises(ValueError, match="rate_hz"):
            PoissonArrivals(rate_hz=0.0)
        with pytest.raises(ValueError, match="window"):
            PoissonArrivals(rate_hz=1.0).times(0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_poisson_rejects_a_non_finite_rate(self, bad):
        """Both passed ``<= 0``, and ``times`` then never returned."""
        with pytest.raises(ValueError, match="PoissonArrivals.rate_hz must be finite"):
            PoissonArrivals(rate_hz=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_poisson_rejects_a_non_finite_window(self, bad):
        with pytest.raises(ValueError, match="window must be finite"):
            PoissonArrivals(rate_hz=1.0).times(bad)

    def test_trace_arrivals_window_filter(self):
        arr = TraceArrivals((0.0, 1.5, 4.0, 9.0))
        assert arr.times(5.0).tolist() == [0.0, 1.5, 4.0]

    def test_trace_arrivals_validation(self):
        with pytest.raises(ValueError):
            TraceArrivals(())
        with pytest.raises(ValueError, match="sorted"):
            TraceArrivals((3.0, 1.0))
        with pytest.raises(ValueError, match="non-negative"):
            TraceArrivals((-1.0, 2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_trace_arrivals_reject_a_non_finite_entry(self, bad):
        """A NaN entry used to be dropped silently by ``times``."""
        with pytest.raises(ValueError, match=r"finite and non-negative, got .* at index 1"):
            TraceArrivals((0.0, bad))

    def test_trace_arrivals_reject_a_nan_window(self):
        with pytest.raises(ValueError, match="window must be finite"):
            TraceArrivals((0.0, 1.0)).times(math.nan)


class TestContentCatalog:
    def test_popularity_normalized_and_rank_ordered(self):
        cat = synthetic_catalog(6, skew=1.3)
        p = cat.popularity
        assert p.sum() == pytest.approx(1.0)
        assert np.all(np.diff(p) < 0)  # strictly less popular down the rank

    def test_zero_skew_is_uniform(self):
        p = synthetic_catalog(5, skew=0.0).popularity
        assert np.allclose(p, 0.2)

    def test_video_for_inverse_cdf(self):
        cat = synthetic_catalog(4, skew=0.0)
        assert cat.video_for(0.0) is cat.videos[0]
        assert cat.video_for(0.30) is cat.videos[1]
        assert cat.video_for(0.99) is cat.videos[3]

    def test_video_for_near_one_never_overflows(self):
        """The float CDF can sum to a few ulps under 1.0; draws above it
        must clamp to the tail rank, not raise IndexError."""
        u = float(np.nextafter(1.0, 0.0))
        for n, skew in ((8, 1.2), (3, 0.0), (40, 2.7)):
            cat = synthetic_catalog(n, skew=skew)
            assert cat.video_for(u) is cat.videos[-1]

    def test_higher_skew_never_demotes_a_draw(self):
        """Inverse-CDF sampling: the same uniform maps to an equal or more
        popular rank as skew grows (what makes the cache test monotone)."""
        flat, peaked = synthetic_catalog(8, skew=0.2), synthetic_catalog(8, skew=2.0)
        for u in np.linspace(0.0, 0.999, 97):
            r_flat = flat.videos.index(flat.video_for(float(u)))
            r_peak = peaked.videos.index(peaked.video_for(float(u)))
            assert r_peak <= r_flat

    def test_validation(self):
        with pytest.raises(ValueError):
            ContentCatalog(videos=())
        with pytest.raises(ValueError, match="skew"):
            synthetic_catalog(3, skew=-0.5)
        with pytest.raises(ValueError, match="u must be"):
            synthetic_catalog(3).video_for(1.0)


class TestAbandonPolicy:
    def test_thresholds(self):
        pol = AbandonPolicy(max_total_stall=5.0)
        assert not pol.should_abandon(4.0)
        assert not pol.should_abandon(5.0)
        assert pol.should_abandon(5.5)  # cumulative patience gone

    def test_validation_names_field_and_value(self):
        with pytest.raises(ValueError, match=r"max_total_stall.*got 0\.0"):
            AbandonPolicy(max_total_stall=0.0)

    def test_nan_patience_is_refused_and_inf_is_never(self):
        """``total > nan`` is always false: a NaN patience used to be
        accepted and never abandon."""
        with pytest.raises(ValueError, match=r"max_total_stall.*got nan"):
            AbandonPolicy(max_total_stall=math.nan)
        never = AbandonPolicy(max_total_stall=math.inf)
        assert not never.should_abandon(1e9)


def churn_population(patience, n=8, seconds=8, mbps_per_session=2.0):
    """An overloaded fixed-density population that churns at ``patience``."""
    catalog = ContentCatalog(
        videos=(spec(seconds, name="a"), spec(seconds, name="b"))
    )
    sessions = build_population(
        catalog,
        TraceArrivals(tuple(0.5 * i for i in range(n))),
        window=100.0,
        controller=FixedDensity(1.0, 1.0),
        churn=AbandonPolicy(max_total_stall=patience) if patience else None,
        seed=3,
    )
    trace = stable_trace(mbps_per_session * n, rtt=0.0)
    return simulate_fleet(sessions, topology=single_link_cdn(trace))


class TestChurn:
    def test_overload_makes_viewers_abandon(self):
        result = churn_population(patience=1.0)
        assert result.report.n_abandoned > 0
        assert result.report.abandon_rate == pytest.approx(
            result.report.n_abandoned / result.report.n_sessions
        )
        for r in result.sessions:
            if r.abandoned:
                assert r.stall_seconds > 1.0
                assert r.n_chunks < 8  # left before the video ended
                assert r.watched_seconds < spec(8).duration

    def test_bandwidth_conservation_under_churn(self):
        """Churn frees capacity but never creates it: delivered bits stay
        bounded by the link, and every byte is accounted to a record."""
        mbps = 2.0 * 8
        result = churn_population(patience=1.0, n=8, mbps_per_session=2.0)
        total_bits = 8.0 * sum(
            rec.bytes_downloaded for r in result.sessions for rec in r.records
        )
        assert total_bits <= mbps * 1e6 * result.report.makespan * (1 + 1e-9)
        for r in result.sessions:
            assert r.total_bytes == sum(rec.bytes_downloaded for rec in r.records)

    def test_churn_frees_bandwidth_for_survivors(self):
        """With churn, remaining viewers finish sooner than a no-churn run."""
        churned = churn_population(patience=1.0)
        patient = churn_population(patience=None)
        assert churned.report.n_abandoned > 0
        assert patient.report.n_abandoned == 0
        assert churned.report.makespan < patient.report.makespan
        assert churned.report.total_bytes < patient.report.total_bytes

    def test_patient_population_matches_no_churn(self):
        """A patience no stall can exhaust is the same as no churn at all."""
        relaxed = churn_population(patience=1e9)
        none = churn_population(patience=None)
        assert relaxed.report == none.report


class TestCacheVsSkew:
    @staticmethod
    def run(skew):
        catalog = synthetic_catalog(6, seconds=6, skew=skew)
        sessions = build_population(
            catalog,
            TraceArrivals(tuple(2.0 * i for i in range(24))),
            window=100.0,
            controller=FixedDensity(0.5),
            sr_latency=sr_lat(),
            seed=17,
        )
        return simulate_fleet(
            sessions, topology=single_link_cdn(stable_trace(500.0)), sr_cache="shared"
        ).sr_cache.hit_rate

    def test_cache_hit_rate_monotone_in_skew(self):
        """More head-heavy catalogs mean more co-watching, so the shared
        SR cache can only do better as skew grows (same uniforms)."""
        rates = [self.run(s) for s in (0.0, 0.75, 1.5, 3.0)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        assert rates[-1] > rates[0]


class TestDeterministicReplay:
    @staticmethod
    def run():
        qm = SRQualityModel()
        lat = sr_lat()
        controller = ContinuousMPC(qm, QoEModel(), lat, n_grid=12, horizon=3)
        sessions = build_population(
            synthetic_catalog(5, seconds=8, skew=1.0),
            PoissonArrivals(rate_hz=1.5, seed=9),
            window=12.0,
            controller=controller,
            sr_latency=lat,
            quality_model=qm,
            churn=AbandonPolicy(max_total_stall=6.0),
            seed=21,
        )
        return simulate_fleet(
            sessions, topology=single_link_cdn(stable_trace(40.0)),
            sr_cache="shared",
        )

    def test_fixed_seed_replays_bit_exactly(self):
        a, b = self.run(), self.run()
        assert a.report == b.report
        assert len(a.sessions) == len(b.sessions)
        for ra, rb in zip(a.sessions, b.sessions):
            assert ra.qoe == rb.qoe
            assert ra.decisions == rb.decisions
            assert ra.total_bytes == rb.total_bytes
            assert ra.abandoned == rb.abandoned
            assert ra.watched_seconds == rb.watched_seconds

    def test_different_seed_differs(self):
        base = build_population(
            synthetic_catalog(5, seconds=8, skew=1.0),
            PoissonArrivals(rate_hz=1.5, seed=9),
            window=12.0,
            controller=FixedDensity(0.5),
            seed=21,
        )
        other = build_population(
            synthetic_catalog(5, seconds=8, skew=1.0),
            PoissonArrivals(rate_hz=1.5, seed=10),
            window=12.0,
            controller=FixedDensity(0.5),
            seed=21,
        )
        assert [s.join_time for s in base] != [s.join_time for s in other]


class TestBuildPopulation:
    def test_sessions_share_the_controller(self):
        ctrl = FixedDensity(0.5)
        sessions = build_population(
            synthetic_catalog(3), TraceArrivals((0.0, 1.0, 2.0)), 10.0, ctrl
        )
        assert all(s.controller is ctrl for s in sessions)

    def test_max_sessions_caps_population(self):
        sessions = build_population(
            synthetic_catalog(3),
            TraceArrivals(tuple(float(i) for i in range(10))),
            100.0,
            FixedDensity(0.5),
            max_sessions=4,
        )
        assert len(sessions) == 4

    def test_max_sessions_below_one_rejected_up_front(self):
        # Regression: max_sessions=0 used to sample the whole arrival
        # process and then quietly return an empty population.
        for bad in (0, -3):
            with pytest.raises(ValueError, match="max_sessions"):
                build_population(
                    synthetic_catalog(3),
                    TraceArrivals((0.0, 1.0)),
                    10.0,
                    FixedDensity(0.5),
                    max_sessions=bad,
                )

    def test_max_sessions_of_one_is_allowed(self):
        sessions = build_population(
            synthetic_catalog(3),
            TraceArrivals((0.0, 1.0, 2.0)),
            10.0,
            FixedDensity(0.5),
            max_sessions=1,
        )
        assert len(sessions) == 1

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="no arrivals"):
            build_population(
                synthetic_catalog(3),
                TraceArrivals((50.0,)),
                10.0,
                FixedDensity(0.5),
            )
