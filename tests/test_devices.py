"""Device profile + op-count cost model tests.  The paper's headline
latency bands (Figs 11, 17, 18) are judged once, on the device-model
tables, by the reproduction ledger (``tests/experiments/test_reproduction.py``)."""

import pytest

from repro.devices import DESKTOP_GPU, ORANGE_PI, CostModel, DeviceProfile

#: An i9-class desktop CPU (the C++ client without CUDA): a third platform
#: the paper does not measure, with rates between its two clients'.
DESKTOP_CPU = DeviceProfile(
    name="desktop-cpu",
    ops_per_second=1.5e10,
    macs_per_second=6.0e10,
    candidate_fraction=0.26,
)


class TestDeviceProfile:
    def test_seconds(self):
        p = DeviceProfile("t", ops_per_second=1e9, macs_per_second=1e10, candidate_fraction=0.5)
        assert p.seconds(1e9) == pytest.approx(1.0)
        assert p.seconds(0, macs=1e10) == pytest.approx(1.0)
        assert p.seconds(5e8, macs=5e9) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceProfile("t", 0, 1, 0.5)
        with pytest.raises(ValueError):
            DeviceProfile("t", 1, 1, 0.0)
        p = DeviceProfile("t", 1e9, 1e9, 0.5)
        with pytest.raises(ValueError):
            p.seconds(-1)

    def test_registry(self):
        """The paper's two clients (§7): the Orange Pi and the desktop GPU."""
        assert [p.name for p in (ORANGE_PI, DESKTOP_GPU)] == ["orange-pi", "desktop-gpu"]


class TestCostModel:
    def test_new_points(self):
        assert CostModel.new_points(1000, 2.0) == 1000
        assert CostModel.new_points(1000, 1.0) == 0
        assert CostModel.new_points(1000, 2.5) == 1500

    def test_volut_stage_keys(self):
        stages = CostModel.volut_frame(10_000, 2.0, ORANGE_PI)
        assert set(stages) == {"knn", "interpolation", "colorization", "refinement"}
        assert all(v >= 0 for v in stages.values())

    def test_knn_dominates_volut(self):
        stages = CostModel.volut_frame(50_000, 2.0, ORANGE_PI)
        others = sum(v for k, v in stages.items() if k != "knn")
        assert stages["knn"] > others

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            CostModel.frame_seconds("pu-net", 1000, 2.0, ORANGE_PI)

    def test_yuzu_workload_grows_at_low_density(self):
        """Paper §7.4: lower fetch density → more SR workload for YuZu."""
        hi_density = CostModel.frame_seconds("yuzu", 50_000, 2.0, DESKTOP_GPU)
        lo_density = CostModel.frame_seconds("yuzu", 12_500, 8.0, DESKTOP_GPU)
        assert lo_density > hi_density

    def test_cpu_between_pi_and_gpu(self):
        t = {
            p.name: CostModel.frame_seconds("volut", 25_000, 4.0, p)
            for p in (ORANGE_PI, DESKTOP_CPU, DESKTOP_GPU)
        }
        assert t["desktop-gpu"] < t["desktop-cpu"] < t["orange-pi"]
