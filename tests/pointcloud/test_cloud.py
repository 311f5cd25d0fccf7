"""Unit tests for the PointCloud container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.pointcloud import PointCloud


def make(pos, col=None):
    return PointCloud(np.asarray(pos, dtype=float), col)


class TestConstruction:
    def test_basic(self):
        pc = make([[0, 0, 0], [1, 2, 3]])
        assert len(pc) == 2
        assert not pc.has_colors

    def test_positions_coerced_to_float64(self):
        pc = PointCloud(np.array([[1, 2, 3]], dtype=np.float32))
        assert pc.positions.dtype == np.float64

    def test_colors_uint8_passthrough(self):
        col = np.array([[1, 2, 3]], dtype=np.uint8)
        pc = PointCloud(np.zeros((1, 3)), col)
        assert pc.colors.dtype == np.uint8
        assert (pc.colors == col).all()

    def test_float_colors_interpreted_as_unit_range(self):
        pc = PointCloud(np.zeros((2, 3)), np.array([[0.0, 0.5, 1.0], [1.0, 0.0, 0.25]]))
        assert pc.colors.dtype == np.uint8
        assert pc.colors[0].tolist() == [0, 128, 255]

    def test_int_colors_clipped(self):
        pc = PointCloud(np.zeros((1, 3)), np.array([[300, -5, 128]]))
        assert pc.colors[0].tolist() == [255, 0, 128]

    def test_rejects_wrong_position_shape(self):
        with pytest.raises(ValueError, match="positions"):
            PointCloud(np.zeros((3, 2)))

    def test_rejects_nonfinite_positions(self):
        with pytest.raises(ValueError, match="finite"):
            PointCloud(np.array([[np.nan, 0, 0]]))

    def test_rejects_mismatched_color_count(self):
        with pytest.raises(ValueError, match="does not match"):
            PointCloud(np.zeros((2, 3)), np.zeros((3, 3), dtype=np.uint8))

    def test_rejects_wrong_color_shape(self):
        with pytest.raises(ValueError, match="colors"):
            PointCloud(np.zeros((2, 3)), np.zeros((2, 4), dtype=np.uint8))

    def test_empty(self):
        pc = PointCloud(np.zeros((0, 3)))
        assert len(pc) == 0 and not pc.has_colors
        pc2 = PointCloud(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.uint8))
        assert pc2.has_colors and len(pc2) == 0

    def test_repr_names_the_count_and_colors(self):
        assert repr(make([[0, 0, 0], [1, 2, 3]])) == "PointCloud(n=2, no-color)"
        assert repr(make([[0, 0, 0]], [[1, 2, 3]])) == "PointCloud(n=1, rgb)"


class TestGeometry:
    def test_bounds(self):
        pc = make([[0, 0, 0], [1, 2, 3], [-1, 0, 1]])
        lo, hi = pc.bounds()
        assert lo.tolist() == [-1, 0, 0]
        assert hi.tolist() == [1, 2, 3]
        # Bit-equal to the axis-0 reductions, signed zeros included (the
        # codec header carries these bytes): clouds whose extremum on an
        # axis is a mix of 0.0 / -0.0, one-point clouds, duplicated rows,
        # both memory layouts.
        g = np.random.default_rng(37)
        for n in (1, 1, 2, 3, 8, 17, 64, 255, 1000, 4099):
            pos = g.choice([0.0, -0.0, 0.5, 1.0, 2.0], size=(n, 3))
            pos[:, 1] *= -1.0  # a zero is the max here, not the min
            pos[:, 2] = g.choice([0.0, -0.0], size=n)  # only zeros
            pos = np.concatenate([pos, pos[g.integers(0, n, n // 2)]])  # duplicated rows
            for layout in (pos, np.asfortranarray(pos)):
                pc = PointCloud(layout)
                lo, hi = pc.bounds()
                assert lo.tobytes() == pc.positions.min(axis=0).tobytes(), (n, layout.flags)
                assert hi.tobytes() == pc.positions.max(axis=0).tobytes(), (n, layout.flags)

    def test_bounds_empty(self):
        lo, hi = PointCloud(np.zeros((0, 3))).bounds()
        assert lo.tolist() == [0, 0, 0] and hi.tolist() == [0, 0, 0]

    def test_centroid(self):
        pc = make([[0, 0, 0], [2, 2, 2]])
        assert pc.centroid().tolist() == [1, 1, 1]

    def test_centroid_empty(self):
        assert PointCloud(np.zeros((0, 3))).centroid().tolist() == [0, 0, 0]

    def test_extent(self):
        pc = make([[0, 0, 0], [3, 4, 0]])
        assert pc.extent() == pytest.approx(5.0)


class TestTransforms:
    def test_select_by_indices(self, random_cloud):
        sub = random_cloud.select(np.array([0, 2, 4]))
        assert len(sub) == 3
        assert np.allclose(sub.positions[1], random_cloud.positions[2])
        assert (sub.colors[2] == random_cloud.colors[4]).all()

    def test_select_by_mask(self, random_cloud):
        mask = random_cloud.positions[:, 0] > 0
        sub = random_cloud.select(mask)
        assert len(sub) == mask.sum()

    @pytest.mark.parametrize(
        "index",
        [[3, -1, 3, 0], np.array([], dtype=np.int64), np.arange(10, dtype=np.uint32)],
    )
    def test_select_equals_fancy_indexing(self, random_cloud, index):
        """The ``np.take`` gather returns what ``array[index]`` does."""
        sub = random_cloud.select(index)
        idx = np.asarray(index)
        assert np.array_equal(sub.positions, random_cloud.positions[idx])
        assert np.array_equal(sub.colors, random_cloud.colors[idx])
        assert sub.positions.flags.c_contiguous

    def test_select_out_of_range_raises(self, random_cloud):
        with pytest.raises(IndexError):
            random_cloud.select(np.array([len(random_cloud)]))

    def test_copy_is_deep(self, random_cloud):
        cp = random_cloud.copy()
        cp.positions[0] = 99.0
        assert random_cloud.positions[0, 0] != 99.0


class TestNbytes:
    def test_wire_size_with_colors(self, random_cloud):
        assert random_cloud.nbytes() == len(random_cloud) * 15

    def test_wire_size_without_colors(self):
        pc = PointCloud(np.zeros((10, 3)))
        assert pc.nbytes() == 10 * 12


@given(
    pos=arrays(
        np.float64,
        st.tuples(st.integers(1, 40), st.just(3)),
        elements=st.floats(-100, 100, allow_nan=False),
    )
)
@settings(max_examples=40, deadline=None)
def test_roundtrip_select_all_is_identity(pos):
    pc = PointCloud(pos)
    sub = pc.select(np.arange(len(pc)))
    assert np.array_equal(sub.positions, pc.positions)

