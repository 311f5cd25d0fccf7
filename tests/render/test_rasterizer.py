"""Point-splat rasterizer tests."""

import numpy as np
import pytest

from repro.pointcloud import PointCloud
from repro.render import Camera, render


def cam(**kw):
    args = dict(position=(0, 0, -5), target=(0, 0, 0), width=64, height=64)
    args.update(kw)
    return Camera(**args)


class TestRender:
    def test_output_shape_dtype(self, small_frame):
        img = render(small_frame, cam())
        assert img.shape == (64, 64, 3)
        assert img.dtype == np.uint8

    def test_empty_scene_is_background(self):
        img = render(PointCloud(np.zeros((0, 3))), cam())
        assert (img == 0).all()

    def test_custom_background(self):
        img = render(PointCloud(np.zeros((0, 3))), cam(), background=np.array([10, 20, 30]))
        assert (img == [10, 20, 30]).all()

    def test_single_point_lands_at_center(self):
        pc = PointCloud(np.array([[0.0, 0.0, 0.0]]), np.array([[255, 0, 0]], dtype=np.uint8))
        img = render(pc, cam(), splat=1)
        assert img[32, 32].tolist() == [255, 0, 0]
        assert (img.reshape(-1, 3).sum(axis=1) > 0).sum() == 1

    def test_splat_size_covers_more_pixels(self):
        pc = PointCloud(np.array([[0.0, 0.0, 0.0]]), np.array([[255, 255, 255]], dtype=np.uint8))
        small = render(pc, cam(), splat=1)
        big = render(pc, cam(), splat=3)
        assert (big > 0).sum() > (small > 0).sum()

    def test_depth_test_front_wins(self):
        pc = PointCloud(
            np.array([[0.0, 0, 0], [0.0, 0, -2.0]]),  # second is nearer the camera
            np.array([[255, 0, 0], [0, 255, 0]], dtype=np.uint8),
        )
        img = render(pc, cam(), splat=1)
        # Both project to the image center; the nearer (green) point wins.
        assert img[32, 32].tolist() == [0, 255, 0]

    def test_colorless_cloud_depth_shaded(self):
        pc = PointCloud(np.array([[0.0, 0, 0], [0.5, 0, 2.0]]))
        img = render(pc, cam(), splat=1)
        lit = img[(img.sum(axis=2) > 0)]
        assert len(lit) == 2
        # Grey shading: channels equal per pixel.
        assert (lit[:, 0] == lit[:, 1]).all() and (lit[:, 1] == lit[:, 2]).all()

    def test_invalid_splat(self, small_frame):
        with pytest.raises(ValueError):
            render(small_frame, cam(), splat=0)

    def test_denser_cloud_changes_fewer_pixels_vs_gt(self, small_frame):
        """Sanity for the PSNR protocol: rendering a downsampled cloud
        differs from the ground-truth render more than rendering a less
        downsampled one."""
        from repro.metrics import image_psnr
        from repro.pointcloud import random_downsample_count

        c = cam(position=(0, 1, 3), target=(0, 0.9, 0))
        gt_img = render(small_frame, c)
        half = render(random_downsample_count(small_frame, len(small_frame) // 2, seed=0), c)
        tenth = render(random_downsample_count(small_frame, len(small_frame) // 10, seed=0), c)
        assert image_psnr(half, gt_img) > image_psnr(tenth, gt_img)


class TestDepthOrder:
    """The z-buffer seen through a colorless render: nearer shades brighter."""

    def test_single_point_lit_background_empty(self):
        img = render(PointCloud(np.array([[0.0, 0.0, 0.0]])), cam(), splat=1)
        assert img[32, 32].tolist() == [255, 255, 255]
        assert (img[0, 0] == 0).all()

    def test_nearest_depth_wins_its_pixel(self):
        # Depths 4 and 8 share the center pixel; depth 6 lands beside them.
        pc = PointCloud(np.array([[0.0, 0, -1.0], [0.0, 0, 3.0], [0.5, 0, 1.0]]))
        grey = render(pc, cam(), splat=1)[..., 0]
        (side,) = [tuple(p) for p in np.argwhere(grey > 0) if tuple(p) != (32, 32)]
        # The center holds depth 4, the nearest lit depth, not the hidden 8.
        assert (grey[32, 32], grey[side]) == (255, 64)

    def test_shade_falls_with_depth(self):
        # Four points on distinct pixels at depths 4, 5, 6 and 8.
        pc = PointCloud(np.array([[-1.2, 0, -1.0], [-0.4, 0, 0.0], [0.4, 0, 1.0], [1.2, 0, 3.0]]))
        c = cam()
        xy, depth, _ = c.project(pc.positions)
        grey = render(pc, c, splat=1)[..., 0]
        shades = [int(grey[int(y), int(x)]) for x, y in xy]
        assert shades[0] == 255 and shades[-1] == 64
        assert shades == sorted(shades, reverse=True) and len(set(shades)) == 4

    def test_winner_independent_of_input_order(self, small_frame):
        c = cam(position=(0, 1, 3), target=(0, 0.9, 0))
        perm = np.random.default_rng(0).permutation(len(small_frame))
        assert np.array_equal(render(small_frame, c), render(small_frame.select(perm), c))


class TestFootprint:
    @pytest.mark.parametrize("splat", [1, 2, 3, 4, 5])
    def test_interior_point_covers_splat_squared_pixels(self, splat):
        img = render(PointCloud(np.array([[0.0, 0.0, 0.0]])), cam(), splat=splat)
        lit = np.argwhere(img[..., 0] > 0)
        assert len(lit) == splat * splat
        # A square block that contains the projected pixel.
        assert (lit.max(axis=0) - lit.min(axis=0)).tolist() == [splat - 1, splat - 1]
        assert img[32, 32, 0] > 0

    def test_behind_camera_not_drawn(self):
        img = render(PointCloud(np.array([[0.0, 0.0, -8.0]])), cam(), splat=3)
        assert (img == 0).all()

    def test_outside_frustum_not_drawn(self):
        img = render(PointCloud(np.array([[100.0, 0.0, 0.0]])), cam(), splat=3)
        assert (img == 0).all()

    def test_splat_clipped_at_the_image_border(self):
        c = cam()
        # Solve for a world x that projects onto pixel column 0 at depth 5;
        # the camera looks down +z, so world +x is image left.
        f = 0.5 * c.height / np.tan(np.deg2rad(c.fov_deg) / 2)
        x = (c.width / 2 - 0.5) * 5.0 / f
        xy, _, valid = c.project(np.array([[x, 0.0, 0.0]]))
        assert valid[0] and int(xy[0, 0]) == 0
        img = render(PointCloud(np.array([[x, 0.0, 0.0]])), c, splat=5)
        lit = np.argwhere(img[..., 0] > 0)
        assert len(lit) == 5 * 3  # the two columns left of the image are cut
        assert lit[:, 1].min() == 0
