"""SR latency model tests."""

import pytest

from repro.devices import DESKTOP_GPU, ORANGE_PI
from repro.streaming import DeviceSRLatency, MeasuredSRLatency, ZERO_LATENCY


class TestDeviceSRLatency:
    def test_volut_faster_than_yuzu(self):
        v = DeviceSRLatency("volut", DESKTOP_GPU)
        y = DeviceSRLatency("yuzu", DESKTOP_GPU)
        assert v(50_000, 2.0) < y(50_000, 2.0)

    def test_no_sr_no_cost(self):
        v = DeviceSRLatency("volut", DESKTOP_GPU)
        assert v(50_000, 1.0) == 0.0

    def test_orange_pi_slower_than_gpu(self):
        a = DeviceSRLatency("volut", ORANGE_PI)(25_000, 4.0)
        b = DeviceSRLatency("volut", DESKTOP_GPU)(25_000, 4.0)
        assert a > b

    def test_unknown_system_rejected_eagerly(self):
        with pytest.raises(ValueError):
            DeviceSRLatency("pugan", DESKTOP_GPU)


class TestMeasuredSRLatency:
    def test_linear_model(self):
        m = MeasuredSRLatency(base=0.001, per_input_point=1e-6, per_output_point=2e-6)
        t = m(1000, 3.0)
        assert t == pytest.approx(0.001 + 1e-3 + 2e-6 * 2000)

    def test_no_sr_free(self):
        m = MeasuredSRLatency(0.01, 1e-6, 1e-6)
        assert m(1000, 1.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MeasuredSRLatency(-0.1, 0, 0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-9])
    @pytest.mark.parametrize("name", ["base", "per_input_point", "per_output_point"])
    def test_refuses_a_non_finite_or_negative_coefficient(self, name, value):
        """Each coefficient alone: a NaN used to slip past ``min(...) < 0``
        and price every SR frame NaN seconds."""
        coefficients = {"base": 0.001, "per_input_point": 1e-8, "per_output_point": 2e-8}
        coefficients[name] = value
        with pytest.raises(
            ValueError, match=rf"{name} must be finite and non-negative, got {value!r}$"
        ):
            MeasuredSRLatency(**coefficients)


def test_zero_latency():
    assert ZERO_LATENCY(10_000, 8.0) == 0.0
