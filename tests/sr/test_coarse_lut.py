"""Per-point keying tests — the paper's Table-1 indexing — and the lookup
against a per-query loop under both keyings."""

import numpy as np
import pytest

from repro.nn import MLP
from repro.sr import (
    HashedLUT,
    LUTRefiner,
    PositionEncoder,
    build_coarse_lut,
    build_lut,
)

from .test_lut import assert_roundtrip


@pytest.fixture
def enc128():
    return PositionEncoder(rf_size=4, bins=128)


def random_normalized(m, rf=4, seed=0):
    g = np.random.default_rng(seed)
    nb = g.uniform(-1, 1, (m, rf - 1, 3))
    # Scale so the farthest neighbor has unit norm, like real encodings.
    r = np.linalg.norm(nb, axis=2).max(axis=1, keepdims=True)
    nb = nb / r[..., None]
    return np.concatenate([np.zeros((m, 1, 3)), nb], axis=1)


class TestPointCodes:
    def test_grid_size(self, enc128):
        assert enc128.point_grid == 5  # largest g with g^3 <= 128

    @pytest.mark.parametrize("bins, g", [
        (2, 2), (8, 2), (16, 2), (26, 2), (27, 3), (32, 3), (63, 3), (64, 4),
        (125, 5), (128, 5), (216, 6), (512, 8), (1000, 10), (4096, 16),
    ])
    def test_grid_is_the_integer_cube_root(self, bins, g):
        """Perfect cubes included: floor(b ** (1/3)) gave 3 for b=64."""
        assert PositionEncoder(rf_size=4, bins=bins).point_grid == g

    def test_codes_in_range(self, enc128):
        """Three base-125 digits: one 5x5x5 cell code per neighbour."""
        norm = random_normalized(200, seed=1)
        keys = enc128.keys(norm, per_point=True)
        assert keys.dtype == np.uint64
        assert int(keys.max()) < (5 ** 3) ** 3
        first_neighbour = keys // np.uint64(125 ** 2)
        q = np.clip(np.floor((norm[:, 1] + 1.0) * 0.5 * 5), 0, 4).astype(np.uint64)
        assert np.array_equal(first_neighbour, (q[:, 0] * 5 + q[:, 1]) * 5 + q[:, 2])

    def test_target_code_constant(self, enc128):
        """The target row is the origin by construction and is not coded."""
        norm = random_normalized(50, seed=2)
        moved = norm.copy()
        moved[:, 0] = 0.7
        assert np.array_equal(
            enc128.keys(norm, per_point=True), enc128.keys(moved, per_point=True)
        )

    def test_key_space_matches_table1_scale(self, enc128):
        # (5^3)^3 ≈ 1.95M — coverable by real content, unlike 128^9.
        assert enc128.key_space(per_point=True) == (5 ** 3) ** 3
        assert enc128.key_space(per_point=False) == 128 ** 9
        top = np.zeros((1, 4, 3))
        top[0, 1:] = 1.0
        assert int(enc128.keys(top, per_point=True)[0]) == (5 ** 3) ** 3 - 1

    def test_cell_centers_requantize_to_same_key(self, enc128):
        norm = random_normalized(100, seed=3)
        for per_point in (True, False):
            keys = enc128.keys(norm, per_point=per_point)
            centers = enc128.cell_centers(keys, per_point=per_point)
            with_target = np.concatenate(
                [np.zeros((len(keys), 1, 3)), centers.reshape(len(keys), 3, 3)], axis=1
            )
            assert np.array_equal(keys, enc128.keys(with_target, per_point=per_point))


class TestCoarseLUT:
    def _net(self, enc, seed=0):
        return MLP((enc.rf_size * 3, 12, 3), output_activation="tanh", seed=seed)

    def test_populate_and_hit(self, enc128):
        net = self._net(enc128)
        norm = random_normalized(300, seed=4)
        lut = build_coarse_lut(net, enc128, norm)
        out = lut.lookup_normalized(norm)
        assert lut.stats.hits == 300
        assert out.shape == (300, 3)

    def test_generalizes_better_than_fine_keys(self, enc128):
        """The design reason for coarse codes: on *surface content* (whose
        local configurations repeat), unseen-video lookups actually hit;
        fine (n·3)-dim keys at b=128 essentially never do."""
        from repro.pointcloud import make_video, random_downsample_count
        from repro.sr import gather_refinement_neighborhoods, interpolate

        net = self._net(enc128)

        def neighborhoods(video_name, seed):
            gt = make_video(video_name, n_points=3000, n_frames=1).frame(0)
            low = random_downsample_count(gt, 1500, seed=seed)
            interp = interpolate(low, 2.0, seed=seed)
            nb = gather_refinement_neighborhoods(low.positions, interp, 4)
            return enc128.encode(interp.new_positions, nb)

        # Several training passes approximate the paper's multi-density,
        # multi-frame training set (coverage grows with training data).
        train = np.vstack(
            [neighborhoods("longdress", s).normalized for s in range(4)]
        )
        test = neighborhoods("loot", 99)  # different content entirely

        coarse = build_coarse_lut(net, enc128, train)
        coarse.lookup_normalized(test.normalized)

        fine = build_lut(net, enc128, train)
        fine.lookup_normalized(test.normalized)

        assert coarse.stats.hit_rate > 0.15
        assert coarse.stats.hit_rate > fine.stats.hit_rate + 0.1

    @pytest.mark.parametrize("per_point", [True, False], ids=["per_point", "eq4"])
    def test_hits_and_misses_against_a_per_query_loop(self, enc128, per_point):
        """Hit: the stored value.  Miss: the closer adjacent stored key
        (lower on a tie; the end key past either end)."""
        from bisect import bisect_left

        net = self._net(enc128, seed=3)
        train = random_normalized(300, seed=11)
        lut = HashedLUT(enc128, per_point=per_point)
        lut.populate(train, net)
        table = [int(key) for key in lut._keys]
        values = lut._values.astype(np.float64)
        corners = np.zeros((2, 4, 3))  # keys 0 and key_space - 1
        corners[0, 1:], corners[1, 1:] = -1.0, 1.0
        query = np.concatenate([train[:40], random_normalized(300, seed=12), corners])
        keys = [int(key) for key in enc128.keys(query, per_point=per_point)]
        assert keys[-2] == 0 < table[0]
        assert keys[-1] == enc128.key_space(per_point=per_point) - 1 > table[-1]

        want, n_hit = np.zeros((len(keys), 3)), 0
        for row, key in enumerate(keys):
            at = bisect_left(table, key)
            if at < len(table) and table[at] == key:
                want[row], n_hit = values[at], n_hit + 1
            else:
                lo, hi = max(at - 1, 0), min(at, len(table) - 1)
                want[row] = values[hi if table[hi] - key < key - table[lo] else lo]
        assert 40 <= n_hit < len(keys) - 2

        got = lut.lookup_normalized(query)
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
        assert (lut.stats.hits, lut.stats.misses) == (n_hit, len(keys) - n_hit)
        assert lut.n_entries == len(table)

    def test_refiner_dispatches_to_normalized(self, enc128, small_frame):
        from repro.sr import gather_refinement_neighborhoods, interpolate

        net = self._net(enc128)
        interp = interpolate(small_frame, 2.0, seed=0)
        nb = gather_refinement_neighborhoods(small_frame.positions, interp, 4)
        e = enc128.encode(interp.new_positions, nb)
        lut = build_coarse_lut(net, enc128, e.normalized)
        out = LUTRefiner(lut).refine(interp.new_positions, nb)
        assert out.shape == interp.new_positions.shape
        assert lut.stats.total > 0

    def test_values_track_network(self, enc128):
        net = self._net(enc128, seed=7)
        norm = random_normalized(400, seed=8)
        lut = build_coarse_lut(net, enc128, norm)
        lut_out = lut.lookup_normalized(norm)
        net_out = net.forward(norm.reshape(len(norm), -1))
        # Coarse cells are wide (g=5), so tolerance is loose but bounded.
        err = np.linalg.norm(lut_out - net_out, axis=1).mean()
        spread = np.abs(net_out).mean() + 1e-9
        assert err < 4 * spread

    def test_save_load(self, enc128, tmp_path):
        norm = random_normalized(100, seed=9)
        lut = build_coarse_lut(self._net(enc128), enc128, norm)
        query = np.concatenate([norm[:20], random_normalized(60, seed=10)])
        assert_roundtrip(lut, query, tmp_path)

    def test_memory_far_below_dense_table1(self, enc128):
        from repro.sr import lut_memory_bytes

        net = self._net(enc128)
        norm = random_normalized(1000, seed=10)
        lut = build_coarse_lut(net, enc128, norm)
        assert lut.memory_bytes() < lut_memory_bytes(4, 128) / 100
