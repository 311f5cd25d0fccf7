"""Device profile + op-count cost model tests, including the paper's
headline shapes."""

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


class TestPaperShapes:
    """The headline latency relationships the reproduction must preserve."""

    def test_interpolation_speedup_orange_pi(self):
        """Paper: 3.7-3.9x over vanilla on the Orange Pi (Fig 11)."""
        for ratio in (2.0, 4.0, 8.0):
            n_in = int(100_000 / ratio)
            ours = CostModel.volut_frame(n_in, ratio, ORANGE_PI)
            van = CostModel.vanilla_frame(n_in, ratio, ORANGE_PI)
            ours_interp = ours["knn"] + ours["interpolation"]
            van_interp = (
                ORANGE_PI.seconds(CostModel.knn_ops(n_in, n_in, 1.0))
                + van["interpolation"]
            )
            speedup = van_interp / ours_interp
            assert 3.0 < speedup < 4.5

    def test_interpolation_speedup_gpu(self):
        """Paper: 7.5-8.1x on the 3080Ti."""
        n_in = 50_000
        ours = CostModel.volut_frame(n_in, 2.0, DESKTOP_GPU)
        van_knn = DESKTOP_GPU.seconds(CostModel.knn_ops(n_in, n_in, 1.0))
        speedup = van_knn / (ours["knn"] + ours["interpolation"])
        assert 7.0 < speedup < 9.0

    def test_orange_pi_line_rate_at_8x(self):
        """Paper: ~31 FPS at 8x on the Orange Pi."""
        sec = CostModel.frame_seconds("volut", 12_500, 8.0, ORANGE_PI)
        assert 24 < 1.0 / sec < 40

    def test_gpu_fps_at_2x(self):
        """Paper: ~357 FPS at 2x on the 3080Ti."""
        sec = CostModel.frame_seconds("volut", 50_000, 2.0, DESKTOP_GPU)
        assert 250 < 1.0 / sec < 450

    def test_yuzu_slowdown_near_paper(self):
        """Paper: VoLUT 8.4x faster than YuZu's neural SR (Fig 17)."""
        v = CostModel.frame_seconds("volut", 50_000, 2.0, DESKTOP_GPU)
        y = CostModel.frame_seconds("yuzu", 50_000, 2.0, DESKTOP_GPU)
        assert 6.0 < y / v < 14.0

    def test_gradpu_slowdown_order_of_magnitude(self):
        """Paper: 46,400x faster than GradPU (Fig 17)."""
        v = CostModel.frame_seconds("volut", 50_000, 2.0, DESKTOP_GPU)
        g = CostModel.frame_seconds("gradpu", 50_000, 2.0, DESKTOP_GPU)
        assert 1e4 < g / v < 1e5

    def test_volut_latency_flat_in_ratio(self):
        """Paper Fig 18: FPS ~stable across ratios at fixed input size."""
        times = [
            CostModel.frame_seconds("volut", 12_500, r, ORANGE_PI)
            for r in (2.0, 4.0, 8.0)
        ]
        assert max(times) / min(times) < 1.3

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
