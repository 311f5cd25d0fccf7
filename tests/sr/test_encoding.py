"""Position encoding tests (Eqs. 3–4): normalization, quantization, packing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sr import HashedLUT, PositionEncoder


def random_neighborhoods(m, rf, seed=0, scale=1.0):
    g = np.random.default_rng(seed)
    targets = g.uniform(-scale, scale, (m, 3))
    neighbors = targets[:, None, :] + g.normal(0, 0.1 * scale, (m, rf - 1, 3))
    return targets, neighbors


def eq4_bins(e, bins, phase=0.0):
    """Eq. 4's bins of the neighbour rows of ``e``, ``(m, rf - 1, 3)``:
    ``floor((n + 1)/2 · (b - 1) + phase)``, clipped to the ``b`` bins."""
    q = np.floor((e.normalized[:, 1:] + 1.0) * 0.5 * (bins - 1) + phase)
    return np.clip(q, 0, bins - 1).astype(np.int64)


def eq4_keys(enc, e):
    return enc.keys(e.normalized, per_point=False)


def eq4_centers(enc, e):
    """Bin centres of the neighbour rows of ``e``, as ``(m, rf - 1, 3)``."""
    keys = enc.keys(e.normalized, per_point=False)
    return enc.cell_centers(keys, per_point=False).reshape(len(keys), -1, 3)


class TestNormalization:
    def test_all_normalized_in_unit_cube(self):
        enc = PositionEncoder(rf_size=4, bins=16)
        t, nb = random_neighborhoods(50, 4, scale=10.0)
        e = enc.encode(t, nb)
        assert (np.abs(e.normalized) <= 1.0 + 1e-12).all()

    def test_target_row_is_origin(self):
        enc = PositionEncoder(rf_size=4, bins=16)
        t, nb = random_neighborhoods(20, 4)
        e = enc.encode(t, nb)
        assert np.allclose(e.normalized[:, 0, :], 0.0)

    def test_radius_is_max_neighbor_distance(self):
        enc = PositionEncoder(rf_size=3, bins=16)
        t = np.zeros((1, 3))
        nb = np.array([[[1.0, 0, 0], [0, 2.0, 0]]])
        e = enc.encode(t, nb)
        assert e.radius[0] == pytest.approx(2.0)
        # The farthest neighbor normalizes to unit length.
        assert np.linalg.norm(e.normalized[0], axis=1).max() == pytest.approx(1.0)

    def test_scale_invariance(self):
        """Scaling the whole neighborhood leaves the encoding unchanged."""
        enc = PositionEncoder(rf_size=4, bins=32)
        t, nb = random_neighborhoods(30, 4)
        e1 = enc.encode(t, nb)
        e2 = enc.encode(t * 50.0, (nb - t[:, None, :]) * 50.0 + t[:, None, :] * 50.0)
        assert np.array_equal(eq4_keys(enc, e1), eq4_keys(enc, e2))

    def test_translation_invariance(self):
        enc = PositionEncoder(rf_size=4, bins=32)
        t, nb = random_neighborhoods(30, 4)
        off = np.array([100.0, -50.0, 3.0])
        e1 = enc.encode(t, nb)
        e2 = enc.encode(t + off, nb + off)
        assert np.array_equal(eq4_keys(enc, e1), eq4_keys(enc, e2))

    def test_degenerate_neighborhood_no_nan(self):
        enc = PositionEncoder(rf_size=3, bins=16)
        t = np.ones((1, 3))
        nb = np.ones((1, 2, 3))  # all coincide with the target
        e = enc.encode(t, nb)
        assert np.isfinite(e.normalized).all()
        assert e.radius[0] == 0.0


class TestQuantization:
    def test_bins_in_range(self):
        enc = PositionEncoder(rf_size=4, bins=8)
        t, nb = random_neighborhoods(100, 4)
        e = enc.encode(t, nb)
        assert (eq4_keys(enc, e) < enc.key_space(per_point=False)).all()

    def test_eq4_formula(self):
        enc = PositionEncoder(rf_size=2, bins=11)
        t = np.zeros((1, 3))
        nb = np.array([[[0.5, -1.0, 1.0]]])  # radius sqrt(2.25)=1.5
        e = enc.encode(t, nb)
        n = nb[0, 0] / 1.5
        expected = np.clip(np.floor((n + 1) / 2 * 10).astype(int), 0, 10)
        (key,) = eq4_keys(enc, e).tolist()
        assert [key // 121, key // 11 % 11, key % 11] == expected.tolist()

    def test_bin_centers_inverse(self):
        enc = PositionEncoder(rf_size=2, bins=64)
        # one key per bin: the digits of key k·64² are (k, 0, 0)
        keys = np.arange(64, dtype=np.uint64) * np.uint64(64 ** 2)
        centers = enc.cell_centers(keys, per_point=False)
        # Re-quantizing a bin center returns the same bin.
        requant = np.floor((centers[:, 0] + 1) / 2 * 63).astype(int)
        assert np.array_equal(np.clip(requant, 0, 63), np.arange(64))
        with_target = np.concatenate([np.zeros((64, 1, 3)), centers[:, None]], axis=1)
        assert np.array_equal(enc.keys(with_target, per_point=False), keys)

    def test_quantization_error_bound_holds(self):
        enc = PositionEncoder(rf_size=4, bins=32)
        t, nb = random_neighborhoods(200, 4, seed=5)
        e = enc.encode(t, nb)
        err = np.abs(eq4_centers(enc, e) - e.normalized[:, 1:]).max()
        assert err <= 1.0 / (32 - 1) + 1e-12  # half of a 2 / (b - 1) bin

    def test_more_bins_lower_error(self):
        t, nb = random_neighborhoods(200, 4, seed=6)
        errs = []
        for b in (8, 32, 128):
            enc = PositionEncoder(rf_size=4, bins=b)
            e = enc.encode(t, nb)
            errs.append(np.abs(eq4_centers(enc, e) - e.normalized[:, 1:]).mean())
        assert errs[0] > errs[1] > errs[2]


class TestKeyPacking:
    def test_pack_unique_for_distinct_bins(self):
        enc = PositionEncoder(rf_size=3, bins=16)
        t, nb = random_neighborhoods(500, 3, seed=7)
        e = enc.encode(t, nb)
        keys = enc.keys(e.normalized, per_point=False)
        flat = eq4_bins(e, 16).reshape(len(keys), -1)
        _, unique_rows = np.unique(flat, axis=0, return_index=True)
        assert len(np.unique(keys)) == len(unique_rows)

    @pytest.mark.parametrize("bins", [8, 16, 128])
    @pytest.mark.parametrize("phase", [0.0, 0.25, 0.5])
    def test_pack_roundtrip_by_digits(self, phase, bins):
        """The key's base-``bins`` digits are Eq. 4's bins, up to the
        63-bit key of ``rf_size=4, bins=128``."""
        enc = PositionEncoder(rf_size=4, bins=bins, phase=phase)
        t, nb = random_neighborhoods(200, 4, seed=8)
        e = enc.encode(t, nb)
        keys = enc.keys(e.normalized, per_point=False)
        # Decode digits and compare.
        digits = np.empty((200, 9), dtype=np.int64)
        rem = keys.copy()
        for d in range(8, -1, -1):
            digits[:, d] = (rem % np.uint64(bins)).astype(np.int64)
            rem //= np.uint64(bins)
        assert (rem == 0).all()
        assert np.array_equal(digits, eq4_bins(e, bins, phase).reshape(200, -1))

    def test_packable_boundary(self):
        fits = PositionEncoder(rf_size=4, bins=128)  # 9*7 = 63 bits
        assert fits.key_space(per_point=False) == 2 ** 63
        top = np.ones((1, 4, 3))
        assert int(fits.keys(top, per_point=False)[0]) == 2 ** 63 - 1
        wide = PositionEncoder(rf_size=5, bins=128)  # 84 bits
        assert wide.key_space(per_point=False) == 2 ** 84

    def test_pack_rejects_oversized(self):
        """``keys`` would wrap; the table that would hold them refuses."""
        enc = PositionEncoder(rf_size=5, bins=128)
        with pytest.raises(ValueError, match="uint64"):
            HashedLUT(enc, per_point=False)

    def test_validation(self):
        with pytest.raises(ValueError):
            PositionEncoder(rf_size=1, bins=8)
        with pytest.raises(ValueError):
            PositionEncoder(rf_size=4, bins=1)
        enc = PositionEncoder(rf_size=4, bins=8)
        with pytest.raises(ValueError, match="neighbors"):
            enc.encode(np.zeros((3, 3)), np.zeros((3, 2, 3)))
        with pytest.raises(ValueError, match="targets"):
            enc.encode(np.zeros((3, 2)), np.zeros((3, 3, 3)))

    @pytest.mark.parametrize(
        "field, value",
        [("rf_size", 4.5), ("rf_size", True), ("bins", 128.7), ("bins", True)],
    )
    def test_structural_integers_are_not_truncated(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            PositionEncoder(**{field: value})

    def test_numpy_integers_are_integers(self):
        enc = PositionEncoder(rf_size=np.int64(4), bins=np.int32(128))
        assert (enc.rf_size, enc.bins) == (4, 128) and type(enc.bins) is int


class TestKeyInputs:
    """A key belongs to one ``(m, rf_size, 3)`` finite neighbourhood; any
    other array is refused instead of packed into some other key."""

    @pytest.mark.parametrize("shape", [(5, 3, 3), (5, 4, 2), (5, 12), (4, 3)])
    @pytest.mark.parametrize("per_point", [False, True])
    def test_wrong_shape_is_rejected(self, shape, per_point):
        enc = PositionEncoder(rf_size=4, bins=32)
        with pytest.raises(ValueError, match=r"normalized must be \(m, 4, 3\)"):
            enc.keys(np.zeros(shape), per_point=per_point)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("per_point", [False, True])
    def test_non_finite_names_the_first_bad_row(self, bad, per_point):
        enc = PositionEncoder(rf_size=4, bins=32)
        normalized = enc.encode(*random_neighborhoods(6, 4, seed=2)).normalized
        normalized[4, 2, 1] = bad
        normalized[5, 1, 0] = bad
        with pytest.raises(ValueError, match="normalized row 4 is not finite"):
            enc.keys(normalized, per_point=per_point)

    def test_a_nan_target_cannot_reach_a_key(self):
        enc = PositionEncoder(rf_size=4, bins=32)
        t, nb = random_neighborhoods(3, 4, seed=3)
        t[1, 0] = np.nan
        with pytest.raises(ValueError, match="normalized row 1"):
            enc.keys(enc.encode(t, nb).normalized, per_point=True)

    def test_empty_is_valid(self):
        enc = PositionEncoder(rf_size=4, bins=32)
        assert enc.keys(np.zeros((0, 4, 3)), per_point=True).shape == (0,)


@given(seed=st.integers(0, 200), bins=st.integers(2, 64))
@settings(max_examples=30, deadline=None)
def test_encoding_deterministic_and_bounded(seed, bins):
    enc = PositionEncoder(rf_size=4, bins=bins)
    t, nb = random_neighborhoods(20, 4, seed=seed)
    e1 = enc.encode(t, nb)
    e2 = enc.encode(t, nb)
    assert np.array_equal(eq4_keys(enc, e1), eq4_keys(enc, e2))
    assert (eq4_keys(enc, e1) < enc.key_space(per_point=False)).all()
