"""Harmonic-mean throughput estimator tests."""

import pytest

from repro.net import HarmonicMeanEstimator


class TestEstimator:
    def test_initial_estimate(self):
        est = HarmonicMeanEstimator(initial_bps=5e6)
        assert est.estimate() == 5e6
        assert est.n_samples == 0

    def test_single_sample(self):
        est = HarmonicMeanEstimator()
        est.observe(10e6)
        assert est.estimate() == pytest.approx(10e6)

    def test_harmonic_mean_value(self):
        est = HarmonicMeanEstimator(window=3)
        for s in (10e6, 20e6, 40e6):
            est.observe(s)
        expected = 3 / (1 / 10e6 + 1 / 20e6 + 1 / 40e6)
        assert est.estimate() == pytest.approx(expected)

    def test_sliding_window_evicts_old(self):
        est = HarmonicMeanEstimator(window=2)
        est.observe(1e6)
        est.observe(50e6)
        est.observe(50e6)
        assert est.estimate() == pytest.approx(50e6)

    def test_robust_to_spikes(self):
        """The harmonic mean is pulled toward the low samples."""
        est = HarmonicMeanEstimator(window=5)
        for s in (10e6, 10e6, 10e6, 10e6, 1000e6):
            est.observe(s)
        arith = (4 * 10e6 + 1000e6) / 5
        assert est.estimate() < arith / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            HarmonicMeanEstimator(window=0)
        with pytest.raises(ValueError):
            HarmonicMeanEstimator(initial_bps=0)
        est = HarmonicMeanEstimator()
        with pytest.raises(ValueError):
            est.observe(0.0)

    @pytest.mark.parametrize("window", [0.5, 2.5, True, 0, -1])
    def test_window_must_be_a_whole_count(self, window):
        """``window=0.5`` used to build a zero-length window that dropped
        every sample, so the estimate read ``initial_bps`` for ever."""
        with pytest.raises(ValueError, match=rf"window must be an integer >= 1, got {window!r}"):
            HarmonicMeanEstimator(window=window)

    @pytest.mark.parametrize("initial", [float("nan"), float("inf"), -1e6])
    def test_initial_estimate_must_be_finite_and_positive(self, initial):
        """NaN and inf used to be accepted, so the estimate before the
        first sample was NaN or inf."""
        with pytest.raises(ValueError, match=rf"finite and positive, got {initial!r}"):
            HarmonicMeanEstimator(initial_bps=initial)

    @pytest.mark.parametrize(
        "sample,shown", [(float("inf"), "inf"), (float("nan"), "nan"), (-1e6, "-1000000.0")]
    )
    def test_non_finite_sample_rejected(self, sample, shown):
        """``inf <= 0`` and ``nan <= 0`` are false, so both used to be
        recorded: ``estimate()`` then divided by zero (inf) or returned
        NaN, which the next ``AbrContext`` refused with a misleading
        "throughput_bps must be positive, got nan"."""
        est = HarmonicMeanEstimator(initial_bps=7e6)
        est.observe(5e6)
        with pytest.raises(ValueError, match=rf"finite and positive, got {shown}"):
            est.observe(sample)
        assert est.n_samples == 1
        assert est.estimate() == 5e6
