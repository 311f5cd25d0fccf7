"""LUT tests: memory model, the Eq. 4-keyed table, its file, fusion."""

import numpy as np
import pytest

from repro.nn import MLP
from repro.sr import (
    EnsembleLUT,
    HashedLUT,
    PositionEncoder,
    build_coarse_lut,
    build_lut,
    lut_entries,
    lut_entries_full,
    lut_memory_bytes,
)


def encode_random(encoder, m=50, seed=0):
    g = np.random.default_rng(seed)
    t = g.uniform(-1, 1, (m, 3))
    nb = t[:, None, :] + g.normal(0, 0.1, (m, encoder.rf_size - 1, 3))
    return encoder.encode(t, nb)


def assert_roundtrip(lut, query, tmp_path):
    """``save`` → ``load`` restores the keying, the grid and every answer."""
    lut.save(tmp_path / "table.npz")
    back = HashedLUT.load(tmp_path / "table.npz")
    assert back.per_point == lut.per_point
    assert vars(back.encoder) == vars(lut.encoder)
    assert back.n_entries == lut.n_entries > 0
    before = (lut.stats.hits, lut.stats.misses)
    assert np.array_equal(back.lookup_normalized(query), lut.lookup_normalized(query))
    delta = (lut.stats.hits - before[0], lut.stats.misses - before[1])
    assert (back.stats.hits, back.stats.misses) == delta
    assert min(delta) > 0 and sum(delta) == len(query)


class TestMemoryModel:
    @pytest.mark.parametrize("rf_size", [3, 4, 5])
    @pytest.mark.parametrize("bins", [128, 64])
    def test_table1_rows_are_two_bytes_per_entry(self, rf_size, bins):
        """Every row of Table 1 sizes ``b^n · 3`` float16 slots (its
        rf 4 / bins 128 row is a reproduction-ledger claim)."""
        assert lut_entries(rf_size, bins) == bins ** rf_size * 3
        assert lut_memory_bytes(rf_size, bins) == 2 * lut_entries(rf_size, bins)

    def test_entries_formula(self):
        assert lut_entries_full(4, 128) == 128 ** 12

    def test_validation(self):
        with pytest.raises(ValueError):
            lut_entries(0, 128)
        with pytest.raises(ValueError):
            lut_entries_full(4, 0)


class TestHashedLUT:
    def test_populate_then_hit(self, encoder):
        net = MLP((encoder.rf_size * 3, 8, 3), output_activation="tanh", seed=0)
        e = encode_random(encoder, m=100, seed=2)
        lut = build_lut(net, encoder, e.normalized)
        keys = encoder.keys(e.normalized, per_point=False)
        assert lut.n_entries == len(np.unique(keys))
        out = lut.lookup_normalized(e.normalized)
        assert lut.stats.hits == 100
        assert np.abs(out).max() <= 1.0  # tanh range

    def test_nearest_fallback_returns_populated_value(self, encoder):
        net = MLP((encoder.rf_size * 3, 8, 3), output_activation="tanh", seed=1)
        e_train = encode_random(encoder, m=200, seed=4)
        lut = build_lut(net, encoder, e_train.normalized)
        e_test = encode_random(encoder, m=50, seed=99)
        out = lut.lookup_normalized(e_test.normalized)
        assert np.isfinite(out).all()
        # Every returned value exists in the table (or is an exact hit).
        vals = lut._values.astype(np.float64)
        for row in out:
            assert np.isclose(vals, row, atol=1e-6).all(axis=1).any()

    @pytest.mark.parametrize("per_point", [True, False], ids=["per_point", "eq4"])
    def test_lookup_only_reads(self, encoder, per_point):
        """An empty table answers zero; a populated one answers the same
        query the same way twice and a miss stores nothing."""
        net = MLP((encoder.rf_size * 3, 8, 3), output_activation="tanh", seed=2)
        query = encode_random(encoder, m=30, seed=5).normalized
        lut = HashedLUT(encoder, per_point=per_point)
        assert np.array_equal(lut.lookup_normalized(query), np.zeros((30, 3)))
        assert (lut.stats.hits, lut.stats.misses, lut.n_entries) == (0, 30, 0)

        lut.populate(encode_random(encoder, m=60, seed=6).normalized, net)
        n_entries = lut.n_entries
        first = lut.lookup_normalized(query)
        assert lut.stats.misses > 30
        assert np.array_equal(lut.lookup_normalized(query), first)
        assert lut.n_entries == n_entries

    def test_insert_last_wins(self, encoder):
        lut = HashedLUT(encoder, per_point=False)
        keys = np.array([5, 5], dtype=np.uint64)
        vals = np.array([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]], dtype=np.float16)
        lut.insert(keys, vals)
        assert lut.n_entries == 1
        assert np.allclose(lut._values[0], 0.9, atol=1e-3)

    def test_save_load_roundtrip(self, tmp_path):
        """Eq. 4 keying, on a phase-shifted grid (an ensemble member)."""
        encoder = PositionEncoder(rf_size=4, bins=32, phase=0.25)
        net = MLP((12, 8, 3), output_activation="tanh", seed=3)
        train = encode_random(encoder, m=60, seed=6).normalized
        query = np.concatenate([train[:20], encode_random(encoder, m=60, seed=7).normalized])
        assert_roundtrip(build_lut(net, encoder, train), query, tmp_path)

    @pytest.mark.parametrize("field, damage", [
        ("per_point", lambda d: d.pop("per_point")),
        ("phase", lambda d: d.pop("phase")),
        ("rf_size", lambda d: d.pop("rf_size")),
        ("bins", lambda d: d.pop("bins")),
        ("values", lambda d: d.pop("values")),
        ("keys", lambda d: d.update(keys=d["keys"][::-1])),
        ("keys", lambda d: d.update(keys=d["keys"][[0, 0, 2]])),
        ("values", lambda d: d.update(values=d["values"][:-1])),
        ("values", lambda d: d.update(values=d["values"][:, :2])),
        ("keys", lambda d: d.update(keys=d["keys"] + np.uint64(125 ** 3))),
    ])
    def test_load_rejects_a_file_that_is_not_a_table(self, tmp_path, field, damage):
        encoder = PositionEncoder(rf_size=4, bins=128)
        net = MLP((12, 8, 3), output_activation="tanh", seed=3)
        lut = build_coarse_lut(net, encoder, encode_random(encoder, m=3, seed=1).normalized)
        assert lut.n_entries == 3
        lut.save(tmp_path / "good.npz")
        with np.load(tmp_path / "good.npz") as data:
            fields = dict(data)
        damage(fields)
        np.savez_compressed(tmp_path / "bad.npz", **fields)
        with pytest.raises(ValueError, match=field):
            HashedLUT.load(tmp_path / "bad.npz")

    def test_rejects_unpackable_encoder(self):
        """Either keying: a key space past 2^64 is refused, not wrapped."""
        with pytest.raises(ValueError, match="rf_size=5, bins=128, per_point=False"):
            HashedLUT(PositionEncoder(rf_size=5, bins=128), per_point=False)  # 84 bits
        with pytest.raises(ValueError, match="rf_size=8, bins=4096, per_point=True"):
            HashedLUT(PositionEncoder(rf_size=8, bins=4096), per_point=True)  # 84 bits
        HashedLUT(PositionEncoder(rf_size=4, bins=128), per_point=False)  # 63 bits
        HashedLUT(PositionEncoder(rf_size=5, bins=128), per_point=True)  # 28 bits

    @pytest.mark.parametrize("per_point", [False, True])
    def test_lookup_refuses_what_is_not_a_neighbourhood(self, encoder, per_point):
        """A wrong-shaped or non-finite query answers no offset and counts
        no lookup."""
        net = MLP((encoder.rf_size * 3, 8, 3), output_activation="tanh", seed=2)
        e = encode_random(encoder, m=30, seed=4)
        lut = HashedLUT(encoder, per_point=per_point)
        lut.populate(e.normalized, net)
        bad = e.normalized.copy()
        bad[7, 1, 2] = np.nan
        for query, message in (
            (e.normalized[:, 1:], "normalized must be"),
            (e.normalized[:, :, :2], "normalized must be"),
            (bad, "normalized row 7 is not finite"),
        ):
            with pytest.raises(ValueError, match=message):
                lut.lookup_normalized(query)
        assert lut.stats.total == 0

    def test_memory_much_smaller_than_dense(self, encoder):
        net = MLP((encoder.rf_size * 3, 8, 3), output_activation="tanh", seed=4)
        e = encode_random(encoder, m=500, seed=7)
        lut = build_lut(net, encoder, e.normalized)
        assert lut.memory_bytes() < lut_memory_bytes(
            encoder.rf_size, encoder.bins
        )


class TestEnsembleLUT:
    def test_single_member_matches_plain_lut(self, encoder):
        net = MLP((encoder.rf_size * 3, 8, 3), output_activation="tanh", seed=5)
        e = encode_random(encoder, m=40, seed=8)
        ens = EnsembleLUT.build(net, encoder, e.normalized, n_members=1)
        plain = build_lut(net, encoder, e.normalized)
        assert np.array_equal(
            ens.lookup_normalized(e.normalized), plain.lookup_normalized(e.normalized)
        )

    def test_fusion_reduces_quantization_error(self, encoder):
        """The point of multi-LUT fusion: the averaged offsets track the
        network more closely than any single phase's table."""
        net = MLP((encoder.rf_size * 3, 8, 3), output_activation="tanh", seed=6)
        e = encode_random(encoder, m=300, seed=9)
        target = net.forward(e.normalized.reshape(len(e.normalized), -1))

        single = EnsembleLUT.build(net, encoder, e.normalized, n_members=1)
        fused = EnsembleLUT.build(net, encoder, e.normalized, n_members=3)
        err_single = np.linalg.norm(
            single.lookup_normalized(e.normalized) - target, axis=1
        ).mean()
        err_fused = np.linalg.norm(
            fused.lookup_normalized(e.normalized) - target, axis=1
        ).mean()
        assert err_fused < err_single

    def test_memory_scales_with_members(self, encoder):
        net = MLP((encoder.rf_size * 3, 8, 3), output_activation="tanh", seed=7)
        e = encode_random(encoder, m=40, seed=10)
        one = EnsembleLUT.build(net, encoder, e.normalized, n_members=1)
        three = EnsembleLUT.build(net, encoder, e.normalized, n_members=3)
        assert three.memory_bytes() > one.memory_bytes()

    def test_validation(self, encoder):
        with pytest.raises(ValueError):
            EnsembleLUT([])
        other = HashedLUT(PositionEncoder(rf_size=3, bins=8), per_point=False)
        mine = HashedLUT(encoder, per_point=False)
        with pytest.raises(ValueError, match="share"):
            EnsembleLUT([mine, other])
        net = MLP((encoder.rf_size * 3, 8, 3), seed=0)
        with pytest.raises(ValueError):
            EnsembleLUT.build(net, encoder, np.zeros((1, 4, 3)), n_members=0)

    def test_lookup_refuses_what_is_not_a_neighbourhood(self, encoder):
        net = MLP((encoder.rf_size * 3, 8, 3), output_activation="tanh", seed=3)
        e = encode_random(encoder, m=20, seed=5)
        ens = EnsembleLUT.build(net, encoder, e.normalized, n_members=2)
        bad = e.normalized.copy()
        bad[3, 2, 0] = np.inf
        with pytest.raises(ValueError, match="normalized row 3 is not finite"):
            ens.lookup_normalized(bad)
        with pytest.raises(ValueError, match="normalized must be"):
            ens.lookup_normalized(e.normalized[:, :3])


class TestBuildLUT:
    def test_hashed_build(self, encoder):
        net = MLP((encoder.rf_size * 3, 8, 3), output_activation="tanh", seed=7)
        e = encode_random(encoder, m=80, seed=10)
        lut = build_lut(net, encoder, e.normalized)
        assert isinstance(lut, HashedLUT) and not lut.per_point
        assert lut.n_entries > 0
