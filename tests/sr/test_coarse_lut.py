"""Coarse (per-point-code) LUT tests — the paper's Table-1 indexing."""

import numpy as np
import pytest

from repro.nn import MLP
from repro.sr import (
    CoarseHashedLUT,
    LUTRefiner,
    PositionEncoder,
    build_coarse_lut,
)


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
        assert enc128.point_grid == 5  # floor(128^(1/3))

    def test_codes_in_range(self, enc128):
        norm = random_normalized(200, seed=1)
        codes = enc128.point_codes(norm)
        assert codes.min() >= 0
        assert codes.max() < 5 ** 3

    def test_target_code_constant(self, enc128):
        norm = random_normalized(50, seed=2)
        codes = enc128.point_codes(norm)
        assert len(np.unique(codes[:, 0])) == 1

    def test_key_space_matches_table1_scale(self, enc128):
        lut = CoarseHashedLUT(enc128)
        # (5^3)^3 ≈ 1.95M — coverable by real content, unlike 128^9.
        assert lut.key_space() == (5 ** 3) ** 3

    def test_cell_centers_requantize_to_same_key(self, enc128):
        norm = random_normalized(100, seed=3)
        keys = enc128.pack_keys_coarse(norm)
        centers = enc128.coarse_cell_centers(keys).reshape(len(keys), 3, 3)
        with_target = np.concatenate(
            [np.zeros((len(keys), 1, 3)), centers], axis=1
        )
        keys2 = enc128.pack_keys_coarse(with_target)
        assert np.array_equal(keys, keys2)


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
        from repro.sr import (
            HashedLUT,
            gather_refinement_neighborhoods,
            interpolate,
        )

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

        fine = HashedLUT(enc128, fallback="zero")
        q = np.floor((train + 1.0) * 0.5 * 127).astype(np.int16)
        fine.populate_from_network(enc128.pack_keys(q), net)
        fine.lookup(test.bins)

        assert coarse.stats.hit_rate > 0.15
        assert coarse.stats.hit_rate > fine.stats.hit_rate + 0.1

    @pytest.mark.parametrize("fallback", ["nearest", "zero", "net"])
    def test_hits_and_misses_against_a_per_query_loop(self, enc128, fallback):
        """Hit: the stored value.  Miss: the closer adjacent stored key
        (lower on a tie; the end key past either end), zero, or the net at
        the query's own cell centre, by ``fallback``."""
        from bisect import bisect_left

        net = self._net(enc128, seed=3)
        train = random_normalized(300, seed=11)
        lut = build_coarse_lut(net, enc128, train, fallback=fallback)
        table = [int(key) for key in lut._keys]
        values = lut._values.astype(np.float64)
        corners = np.zeros((2, 4, 3))  # keys 0 and key_space() - 1
        corners[0, 1:], corners[1, 1:] = -1.0, 1.0
        query = np.concatenate([train[:40], random_normalized(300, seed=12), corners])
        keys = [int(key) for key in enc128.pack_keys_coarse(query)]
        assert keys[-2] < table[0] and keys[-1] > table[-1]

        want, n_hit = np.zeros((len(keys), 3)), 0
        for row, key in enumerate(keys):
            at = bisect_left(table, key)
            if at < len(table) and table[at] == key:
                want[row], n_hit = values[at], n_hit + 1
            elif fallback == "nearest":
                lo, hi = max(at - 1, 0), min(at, len(table) - 1)
                want[row] = values[hi if table[hi] - key < key - table[lo] else lo]
            elif fallback == "net":
                centre = enc128.coarse_cell_centers(np.array([key], dtype=np.uint64))
                want[row] = net.forward(np.concatenate([np.zeros((1, 3)), centre], axis=1))
        assert 40 <= n_hit < len(keys) - 2

        got = lut.lookup_normalized(query)
        assert got.dtype == np.float64
        # a one-row forward pass rounds differently from the batched one
        assert np.allclose(got, want, rtol=0, atol=1e-12 if fallback == "net" else 0)
        assert (lut.stats.hits, lut.stats.misses) == (n_hit, len(keys) - n_hit)
        # only the net fallback memoizes what it computed
        new_keys = len(set(keys) - set(table)) if fallback == "net" else 0
        assert lut.n_entries == len(table) + new_keys

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
        net = self._net(enc128)
        norm = random_normalized(100, seed=9)
        lut = build_coarse_lut(net, enc128, norm)
        p = tmp_path / "coarse.npz"
        lut.save(p)
        back = CoarseHashedLUT.load(p)
        assert back.n_entries == lut.n_entries
        assert np.allclose(
            back.lookup_normalized(norm), lut.lookup_normalized(norm)
        )

    def test_bin_lookup_not_supported(self, enc128):
        lut = CoarseHashedLUT(enc128)
        with pytest.raises(NotImplementedError):
            lut.lookup(np.zeros((1, 4, 3), dtype=np.int16))

    def test_memory_far_below_dense_table1(self, enc128):
        from repro.sr import lut_memory_bytes

        net = self._net(enc128)
        norm = random_normalized(1000, seed=10)
        lut = build_coarse_lut(net, enc128, norm)
        assert lut.memory_bytes() < lut_memory_bytes(4, 128) / 100

    def test_fallback_validation(self, enc128):
        with pytest.raises(ValueError):
            CoarseHashedLUT(enc128, fallback="net")
        with pytest.raises(ValueError):
            CoarseHashedLUT(enc128, fallback="magic")
