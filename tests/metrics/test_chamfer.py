"""Geometric metric tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from repro.metrics import chamfer_distance, geometry_psnr, p2p_distances
from repro.pointcloud import PointCloud


def cloud(arr):
    return PointCloud(np.asarray(arr, dtype=float))


#: One rotation and one translation each, applied to both clouds at once.
RIGID_MOTIONS = {
    "quarter-turn-z": (Rotation.from_euler("z", 90, degrees=True), [0.0, 0.0, 0.0]),
    "tilt-xy": (Rotation.from_euler("xy", [30, -45], degrees=True), [1.0, -2.0, 0.5]),
    "half-turn-y": (Rotation.from_euler("y", 180, degrees=True), [0.0, 3.0, 0.0]),
    "oblique": (Rotation.from_rotvec([0.3, -1.1, 0.7]), [-0.3, 0.2, 7.0]),
}


def moved(pc, motion):
    rot, shift = motion
    return PointCloud(rot.apply(pc.positions) + shift, pc.colors)


def scaled(pc, factor, center):
    return PointCloud((pc.positions - center) * factor + center, pc.colors)


class TestP2P:
    def test_identical_clouds_zero(self, random_cloud):
        d = p2p_distances(random_cloud, random_cloud)
        assert np.allclose(d, 0.0)

    def test_known_distance(self):
        a = cloud([[0, 0, 0]])
        b = cloud([[3, 4, 0], [10, 10, 10]])
        assert p2p_distances(a, b)[0] == pytest.approx(5.0)

    def test_empty_source(self):
        assert len(p2p_distances(cloud(np.zeros((0, 3))), cloud([[0, 0, 0]]))) == 0

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            p2p_distances(cloud([[0, 0, 0]]), cloud(np.zeros((0, 3))))

    def test_accepts_raw_arrays(self):
        d = p2p_distances(np.zeros((2, 3)), np.ones((3, 3)))
        assert d.shape == (2,)


class TestChamfer:
    def test_zero_for_identical(self, random_cloud):
        assert chamfer_distance(random_cloud, random_cloud) == pytest.approx(0.0)

    def test_symmetric(self, random_cloud, small_frame):
        a = chamfer_distance(random_cloud, small_frame)
        b = chamfer_distance(small_frame, random_cloud)
        assert a == pytest.approx(b)

    def test_known_value(self):
        a = cloud([[0, 0, 0]])
        b = cloud([[1, 0, 0]])
        assert chamfer_distance(a, b) == pytest.approx(2.0)  # 1 + 1
        assert chamfer_distance(a, b, squared=True) == pytest.approx(2.0)

    def test_grows_with_noise(self, small_frame):
        g = np.random.default_rng(0)
        small = PointCloud(small_frame.positions + g.normal(0, 0.001, (len(small_frame), 3)))
        big = PointCloud(small_frame.positions + g.normal(0, 0.05, (len(small_frame), 3)))
        assert chamfer_distance(small, small_frame) < chamfer_distance(big, small_frame)


class TestGeometryPSNR:
    def test_inf_for_identical(self, random_cloud):
        assert geometry_psnr(random_cloud, random_cloud) == float("inf")

    def test_monotone_in_noise(self, small_frame):
        g = np.random.default_rng(2)
        a = PointCloud(small_frame.positions + g.normal(0, 0.001, (len(small_frame), 3)))
        b = PointCloud(small_frame.positions + g.normal(0, 0.01, (len(small_frame), 3)))
        assert geometry_psnr(a, small_frame) > geometry_psnr(b, small_frame)

    def test_custom_peak(self):
        a = cloud([[0, 0, 0]])
        b = cloud([[1, 0, 0]])
        # mse = 1; peak 10 → 10*log10(100) = 20 dB
        assert geometry_psnr(a, b, peak=10.0) == pytest.approx(20.0)

    def test_invalid_peak(self, random_cloud):
        with pytest.raises(ValueError):
            geometry_psnr(random_cloud, random_cloud, peak=0.0)

    def test_inf_for_a_subset_of_the_reference(self, small_frame):
        """D1 PSNR measures the test cloud against the reference only."""
        assert geometry_psnr(small_frame.select(np.arange(0, 2000, 7)), small_frame) == float("inf")


class TestRigidInvariance:
    """The metrics read only Euclidean distances, so one rigid motion of both
    clouds leaves every value where it was."""

    @pytest.mark.parametrize("motion", sorted(RIGID_MOTIONS))
    def test_p2p_distances(self, random_cloud, small_frame, motion):
        m = RIGID_MOTIONS[motion]
        before = p2p_distances(random_cloud, small_frame)
        after = p2p_distances(moved(random_cloud, m), moved(small_frame, m))
        assert np.allclose(after, before, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("motion", sorted(RIGID_MOTIONS))
    def test_chamfer(self, random_cloud, small_frame, motion):
        m = RIGID_MOTIONS[motion]
        for squared in (False, True):
            before = chamfer_distance(random_cloud, small_frame, squared=squared)
            after = chamfer_distance(moved(random_cloud, m), moved(small_frame, m), squared=squared)
            assert after == pytest.approx(before, rel=1e-9)

    @pytest.mark.parametrize("motion", sorted(RIGID_MOTIONS))
    def test_geometry_psnr_at_a_fixed_peak(self, small_frame, motion):
        # The default peak is the axis-aligned box diagonal, which a rotation
        # changes; a fixed peak isolates the distance term.
        m = RIGID_MOTIONS[motion]
        g = np.random.default_rng(3)
        noisy = PointCloud(small_frame.positions + g.normal(0, 0.01, (len(small_frame), 3)))
        before = geometry_psnr(noisy, small_frame, peak=2.0)
        after = geometry_psnr(moved(noisy, m), moved(small_frame, m), peak=2.0)
        assert after == pytest.approx(before, rel=1e-9)


class TestScale:
    @pytest.mark.parametrize("factor", [0.5, 2.0, 10.0])
    def test_chamfer_scales_linearly_and_squared_quadratically(
        self, random_cloud, small_frame, factor
    ):
        a = scaled(random_cloud, factor, np.zeros(3))
        b = scaled(small_frame, factor, np.zeros(3))
        assert chamfer_distance(a, b) == pytest.approx(
            factor * chamfer_distance(random_cloud, small_frame), rel=1e-9
        )
        assert chamfer_distance(a, b, squared=True) == pytest.approx(
            factor**2 * chamfer_distance(random_cloud, small_frame, squared=True), rel=1e-9
        )

    @pytest.mark.parametrize("factor", [0.5, 2.0, 10.0])
    def test_geometry_psnr_is_scale_free(self, small_frame, factor):
        """The default peak grows with the reference, so the ratio holds."""
        g = np.random.default_rng(4)
        noisy = PointCloud(small_frame.positions + g.normal(0, 0.01, (len(small_frame), 3)))
        center = noisy.centroid()
        psnr = geometry_psnr(scaled(noisy, factor, center), scaled(small_frame, factor, center))
        assert psnr == pytest.approx(geometry_psnr(noisy, small_frame), rel=1e-9)


class TestWorstCase:
    """The largest point-to-point distance in either direction (the
    Hausdorff reading of the same search) bounds the Chamfer means."""

    def test_max_bounds_the_mean_in_each_direction(self, random_cloud, small_frame):
        ab = p2p_distances(random_cloud, small_frame)
        ba = p2p_distances(small_frame, random_cloud)
        assert chamfer_distance(random_cloud, small_frame) <= ab.max() + ba.max()
        assert max(ab.max(), ba.max()) >= 0.5 * chamfer_distance(random_cloud, small_frame)

    def test_one_far_point_sets_the_max_not_the_mean(self):
        a = cloud([[0, 0, 0], [1, 0, 0]])
        b = cloud([[0, 0, 0]])
        assert p2p_distances(a, b).max() == pytest.approx(1.0)
        assert chamfer_distance(a, b) == pytest.approx(0.5)  # (0 + 1) / 2 + 0

    def test_a_subset_is_covered_one_way(self, small_frame):
        sub = small_frame.select(np.arange(0, 2000, 5))
        assert np.allclose(p2p_distances(sub, small_frame), 0.0)
        assert chamfer_distance(sub, small_frame) == pytest.approx(
            p2p_distances(small_frame, sub).mean()
        )


@pytest.mark.parametrize("shape", [(3,), (4, 2), (2, 3, 1)], ids=["1d", "two-columns", "3d"])
def test_raw_arrays_must_be_n_by_3(shape):
    with pytest.raises(ValueError, match="expected \\(n, 3\\) positions"):
        p2p_distances(np.zeros(shape), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="expected \\(n, 3\\) positions"):
        chamfer_distance(np.zeros((2, 3)), np.zeros(shape))


@given(seed=st.integers(0, 200), n_src=st.integers(1, 30), n_tgt=st.integers(1, 30))
@settings(max_examples=25, deadline=None)
def test_p2p_matches_brute_force(seed, n_src, n_tgt):
    g = np.random.default_rng(seed)
    src, tgt = g.uniform(-1, 1, (n_src, 3)), g.uniform(-1, 1, (n_tgt, 3))
    brute = np.linalg.norm(src[:, None] - tgt[None], axis=2).min(axis=1)
    assert np.allclose(p2p_distances(src, tgt), brute, rtol=0, atol=1e-12)


@given(seed=st.integers(0, 100), sigma=st.floats(1e-4, 0.2))
@settings(max_examples=20, deadline=None)
def test_chamfer_nonnegative_and_triangleish(seed, sigma):
    g = np.random.default_rng(seed)
    base = g.uniform(-1, 1, (60, 3))
    noisy = base + g.normal(0, sigma, (60, 3))
    cd = chamfer_distance(PointCloud(base), PointCloud(noisy))
    assert cd >= 0.0
    # CD between a cloud and a shifted copy is at most twice the shift.
    assert cd <= 2 * np.linalg.norm(noisy - base, axis=1).max() + 1e-12
