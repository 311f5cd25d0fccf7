"""Bandwidth trace tests."""

import numpy as np
import pytest

from repro.net import MBPS, PAPER_LTE_PROFILES, NetworkTrace, lte_trace, stable_trace
from repro.net.traces import LTE_FADE_PROB, LTE_RTT, LTE_STEP


def period(tr: NetworkTrace) -> float:
    """The period a trace loops with, from its public arrays: the last
    segment start plus the median segment width, summed as the trace sums
    it."""
    return float(tr.timestamps[-1] + float(np.median(np.diff(tr.timestamps))))


class TestNetworkTrace:
    def test_lookup_in_segments(self):
        tr = NetworkTrace("t", np.array([0.0, 10.0]), np.array([1e6, 2e6]))
        assert tr.bandwidth_at(5.0) == 1e6
        assert tr.bandwidth_at(15.0) == 2e6

    def test_loops_past_end(self):
        tr = NetworkTrace("t", np.array([0.0, 10.0]), np.array([1e6, 2e6]))
        assert tr.bandwidth_at(25.0) == 1e6  # 25 % 20 = 5

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkTrace("t", np.array([1.0]), np.array([1e6]))  # not at 0
        with pytest.raises(ValueError):
            NetworkTrace("t", np.array([0.0, 0.0]), np.array([1e6, 1e6]))
        with pytest.raises(ValueError):
            NetworkTrace("t", np.array([0.0]), np.array([-1e6]))
        with pytest.raises(ValueError):
            NetworkTrace("t", np.array([0.0]), np.array([1e6]), rtt=-1)
        tr = NetworkTrace("t", np.array([0.0]), np.array([1e6]))
        with pytest.raises(ValueError):
            tr.bandwidth_at(-1.0)

    def test_a_wrap_onto_an_inexact_instant_reads_the_next_segment(self):
        """6.5 + 3.2 rounds to a float whose ``% 6.5`` is an ulp short of
        3.2: the instant is read as lying past that boundary, so the next
        change moves the clock and the rate is the new segment's."""
        tr = NetworkTrace(
            "t", [0.0, 0.7, 1.9, 3.2, 5.0, 5.3], [1e6, 2e6, 3e6, 4e6, 5e6, 6e6]
        )
        t = 6.5 + 3.2
        assert period(tr) == 6.5
        assert t % period(tr) < 3.2  # the rounding this guards against
        assert tr.bandwidth_at(t) == 4e6
        assert tr.time_to_next_change(t) == pytest.approx(1.8)
        assert t + tr.time_to_next_change(t) > t

    def test_a_wrap_onto_the_period_end_reads_the_first_segment(self):
        tr = NetworkTrace("t", [0.0, 0.1, 0.2], [1e6, 2e6, 3e6])
        t = 2.7  # the ninth wrap, whose ``% duration`` is just short of it
        duration = period(tr)
        assert t + (duration - t % duration) == t
        assert tr.bandwidth_at(t) == 1e6
        assert tr.time_to_next_change(t) == pytest.approx(0.1)

    def test_an_instant_no_boundary_can_move_returns(self):
        """At 1e20 s every boundary rounds away: the lookup gives up after
        one period instead of searching for ever."""
        tr = NetworkTrace("t", [0.0, 0.1, 0.2], [1e6, 2e6, 3e6])
        t = 1e20
        assert t % period(tr) < 0.1
        assert tr.bandwidth_at(t) == 1e6
        assert t + tr.time_to_next_change(t) == t

    def test_every_next_change_moves_the_clock(self):
        rates = np.random.default_rng(0).uniform(1e6, 4e7, 32)
        tr = NetworkTrace("t", np.arange(32) * 0.1, rates)
        t = 0.0
        for _ in range(500):
            dt = tr.time_to_next_change(t)
            assert t + dt > t
            t += dt
        assert t == pytest.approx(500 * 0.1, rel=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_timestamps(self, bad):
        with pytest.raises(ValueError, match="timestamps must be finite"):
            NetworkTrace("t", [0.0, bad], [1e6, 1e6])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_bandwidths(self, bad):
        with pytest.raises(ValueError, match="bandwidths_bps must be finite"):
            NetworkTrace("t", [0.0, 1.0], [bad, 5e6])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rtt(self, bad):
        with pytest.raises(ValueError, match="rtt must be finite"):
            NetworkTrace("t", [0.0], [1e6], rtt=bad)


class TestStable:
    def test_constant_rate(self):
        tr = stable_trace(50.0)
        for t in (0.0, 100.0, 599.0):
            assert tr.bandwidth_at(t) == 50 * MBPS

    def test_default_rtt(self):
        assert stable_trace(50.0).rtt == pytest.approx(0.010)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            stable_trace(0.0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"mbps": np.nan}, "mbps"),
            ({"mbps": np.inf}, "mbps"),
            ({"mbps": 50.0, "duration": np.inf}, "duration"),
            ({"mbps": 50.0, "duration": 0.0}, "duration"),
            ({"mbps": 50.0, "rtt": np.nan}, "rtt"),
        ],
    )
    def test_rejects_a_bad_argument_by_name(self, kwargs, name):
        with pytest.raises(ValueError, match=f"stable_trace: {name} must be finite"):
            stable_trace(**kwargs)


class TestLTE:
    def test_one_sample_per_step_at_the_lte_rtt(self):
        tr = lte_trace(30, 10, duration=12.5, seed=0)
        assert tr.timestamps.tolist() == [i * LTE_STEP for i in range(12)]
        assert tr.rtt == LTE_RTT

    def test_deep_fades_at_the_fade_probability(self):
        """With no AR(1) noise every sample sits at the mean unless a fade
        cut it to 20–50 % of it, so the faded share is the fade rate."""
        tr = lte_trace(mean_mbps=50.0, std_mbps=0.0, duration=20_000, seed=5)
        bw = tr.bandwidths_bps / MBPS
        faded = bw < 50.0
        assert np.all(bw[~faded] == 50.0)
        assert np.all((bw[faded] >= 10.0) & (bw[faded] <= 25.0))
        # binomial sd of the share is ~0.001 over 20k samples
        assert faded.mean() == pytest.approx(LTE_FADE_PROB, abs=0.005)

    def test_matches_requested_moments(self):
        """Realized mean/std land near the paper-profile parameters (the
        samples are evenly spaced, so the time-weighted moments are the
        plain ones)."""
        tr = lte_trace(mean_mbps=75.0, std_mbps=20.0, duration=3000, seed=0)
        assert tr.bandwidths_bps.mean() / MBPS == pytest.approx(75.0, rel=0.15)
        assert tr.bandwidths_bps.std() / MBPS == pytest.approx(20.0, rel=0.5)

    @pytest.mark.parametrize("mean,std", PAPER_LTE_PROFILES)
    def test_paper_profiles_generate(self, mean, std):
        tr = lte_trace(mean, std, duration=300, seed=1)
        assert tr.bandwidths_bps.mean() > 0

    def test_floor_at_1mbps(self):
        tr = lte_trace(mean_mbps=2.0, std_mbps=5.0, duration=600, seed=2)
        assert tr.bandwidths_bps.min() >= 1.0 * MBPS

    def test_deterministic_per_seed(self):
        a = lte_trace(32.5, 13.5, seed=7)
        b = lte_trace(32.5, 13.5, seed=7)
        assert np.array_equal(a.bandwidths_bps, b.bandwidths_bps)

    def test_seeds_differ(self):
        a = lte_trace(32.5, 13.5, seed=1)
        b = lte_trace(32.5, 13.5, seed=2)
        assert not np.array_equal(a.bandwidths_bps, b.bandwidths_bps)

    def test_autocorrelated(self):
        """AR(1) structure: adjacent samples correlate strongly."""
        tr = lte_trace(75.0, 20.0, duration=2000, seed=3)
        bw = tr.bandwidths_bps
        r = np.corrcoef(bw[:-1], bw[1:])[0, 1]
        assert r > 0.6

    def test_validation(self):
        with pytest.raises(ValueError):
            lte_trace(mean_mbps=0.0)
        with pytest.raises(ValueError):
            lte_trace(mean_mbps=10.0, std_mbps=-1.0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"duration": np.inf}, "duration"),
            ({"duration": np.nan}, "duration"),
            ({"mean_mbps": np.inf}, "mean_mbps"),
            ({"std_mbps": np.nan}, "std_mbps"),
        ],
    )
    def test_rejects_a_bad_argument_by_name(self, kwargs, name):
        with pytest.raises(ValueError, match=f"lte_trace: {name} must be finite"):
            lte_trace(**kwargs)
