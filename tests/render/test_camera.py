"""Camera projection tests."""

import numpy as np
import pytest

from repro.render import Camera


def default_cam(**kw):
    args = dict(position=(0, 0, -5), target=(0, 0, 0), width=100, height=100)
    args.update(kw)
    return Camera(**args)


class TestBasis:
    def test_orthonormal(self):
        cam = default_cam()
        r, u, f = cam.basis()
        for v in (r, u, f):
            assert np.linalg.norm(v) == pytest.approx(1.0)
        assert abs(r @ u) < 1e-12
        assert abs(r @ f) < 1e-12
        assert abs(u @ f) < 1e-12

    def test_forward_points_at_target(self):
        cam = default_cam()
        _, _, f = cam.basis()
        assert np.allclose(f, [0, 0, 1])

    def test_degenerate_up_recovered(self):
        cam = Camera(position=(0, -5, 0), target=(0, 0, 0), up=(0, 1, 0))
        r, u, f = cam.basis()
        assert np.isfinite(r).all() and np.linalg.norm(r) == pytest.approx(1.0)

    def test_position_equals_target_rejected(self):
        cam = Camera(position=(1, 1, 1), target=(1, 1, 1))
        with pytest.raises(ValueError):
            cam.basis()


class TestProjection:
    def test_center_point_at_image_center(self):
        cam = default_cam()
        xy, depth, valid = cam.project(np.array([[0.0, 0.0, 0.0]]))
        assert valid[0]
        assert xy[0, 0] == pytest.approx(50.0)
        assert xy[0, 1] == pytest.approx(50.0)
        assert depth[0] == pytest.approx(5.0)

    def test_point_behind_camera_invalid(self):
        cam = default_cam()
        _, _, valid = cam.project(np.array([[0.0, 0.0, -10.0]]))
        assert not valid[0]

    def test_point_outside_fov_invalid(self):
        cam = default_cam(fov_deg=30)
        _, _, valid = cam.project(np.array([[100.0, 0.0, 0.0]]))
        assert not valid[0]

    def test_handedness(self):
        """Looking down +z (camera at -z), world +x appears to the LEFT;
        looking down -z (camera at +z), world +x appears to the RIGHT."""
        from_neg_z = default_cam()
        xy, _, valid = from_neg_z.project(np.array([[1.0, 0, 0]]))
        assert valid.all() and xy[0, 0] < 50
        from_pos_z = default_cam(position=(0, 0, 5))
        xy, _, valid = from_pos_z.project(np.array([[1.0, 0, 0]]))
        assert valid.all() and xy[0, 0] > 50

    def test_up_offset_decreases_pixel_y(self):
        cam = default_cam()
        xy, _, _ = cam.project(np.array([[0, 1.0, 0]]))
        assert xy[0, 1] < 50

    def test_wider_fov_shrinks_projection(self):
        narrow = default_cam(fov_deg=30)
        wide = default_cam(fov_deg=90)
        p = np.array([[1.0, 0, 0]])
        x_n = narrow.project(p)[0][0, 0]
        x_w = wide.project(p)[0][0, 0]
        assert abs(x_n - 50) > abs(x_w - 50)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            default_cam().project(np.zeros((2, 2)))


class TestVisibility:
    def test_fraction_reasonable_for_orbit_distance(self, small_frame):
        """At typical viewing distance a figure is mostly in frame."""
        c = small_frame.centroid()
        cam = Camera(position=tuple(c + [0, 0, 3]), target=tuple(c))
        _, _, visible = cam.project(small_frame.positions)
        frac = visible.mean()
        assert frac > 0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Camera(position=(0, 0, -1), target=(0, 0, 0), width=0)
        with pytest.raises(ValueError):
            Camera(position=(0, 0, -1), target=(0, 0, 0), fov_deg=200)
        with pytest.raises(ValueError):
            Camera(position=(0, 0, -1), target=(0, 0, 0), near=0)
