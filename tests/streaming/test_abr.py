"""ABR controller tests (continuous vs discrete MPC, quality model)."""

import math
import random

import numpy as np
import pytest

from repro.metrics import QoEModel
from repro.streaming import (
    YUZU_DENSITY_LEVELS,
    AbrContext,
    BolaController,
    BufferBased,
    ContinuousMPC,
    Decision,
    DiscreteMPC,
    SRQualityModel,
    VideoSpec,
    ZERO_LATENCY,
)

from repro.streaming.latency import MeasuredSRLatency

from ..golden import assert_golden
from . import reference_planner


def ctx(tput_mbps=50.0, buffer_level=3.0, prev=None, points=100_000, bpp=6.0):
    spec = VideoSpec(
        name="t", n_frames=300, fps=30, points_per_frame=points, bytes_per_point=bpp
    )
    return AbrContext(
        throughput_bps=tput_mbps * 1e6,
        buffer_level=buffer_level,
        prev_quality=prev,
        next_chunks=spec.chunks(1.0),
    )


class TestSRQualityModel:
    def test_full_density_full_quality(self):
        qm = SRQualityModel()
        assert qm.quality(1.0) == pytest.approx(1.0)

    def test_sr_ratio_capped(self):
        qm = SRQualityModel(max_ratio=4.0)
        assert qm.sr_ratio_for(0.1) == 4.0
        assert qm.sr_ratio_for(0.5) == 2.0

    def test_quality_monotone_in_density(self):
        qm = SRQualityModel()
        qs = [qm.quality(d) for d in (0.125, 0.25, 0.5, 1.0)]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_discount_grows_with_ratio(self):
        qm = SRQualityModel()
        assert qm.quality(0.5) == pytest.approx(0.93)
        assert qm.quality(0.25) == pytest.approx(0.93 ** 2)

    def test_quality_is_the_stdlib_formula(self):
        """``log2`` is the stdlib's: NumPy's SIMD ``log2`` differs from it by
        one ulp on some ratios on AVX-512 hosts (about 4 in 10,000 on
        [1, 16]), and Q is stated once."""
        qm = SRQualityModel(max_ratio=16.0)
        rng = random.Random(7)
        for _ in range(100_000):
            d, s = 1.0 - rng.random(), rng.uniform(1.0, 16.0)
            assert qm.quality(d, s) == min(1.0, d * s) * 0.93 ** math.log2(s), (d, s)

    def test_nan_is_refused(self):
        """The range checks are chained comparisons, which NaN fails."""
        with pytest.raises(ValueError, match="max_ratio"):
            SRQualityModel(max_ratio=math.nan)
        qm = SRQualityModel()
        with pytest.raises(ValueError, match="density"):
            qm.quality(math.nan)
        with pytest.raises(ValueError, match="density"):
            qm.quality(math.nan, sr_ratio=2.0)
        with pytest.raises(ValueError, match="sr_ratio"):
            qm.quality(0.5, sr_ratio=math.nan)

    def test_under_restored_density(self):
        qm = SRQualityModel(max_ratio=2.0)
        # density 0.25 with SR capped at 2x -> restored 0.5, discounted.
        assert qm.quality(0.25) == pytest.approx(0.5 * 0.93)

    def test_validation(self):
        with pytest.raises(ValueError):
            SRQualityModel(max_ratio=0.5)
        qm = SRQualityModel()
        with pytest.raises(ValueError):
            qm.quality(0.0)
        with pytest.raises(ValueError):
            qm.quality(0.5, sr_ratio=0.5)


class TestDecision:
    def test_validation(self):
        with pytest.raises(ValueError):
            Decision(density=0.0, sr_ratio=2.0)
        with pytest.raises(ValueError):
            Decision(density=0.5, sr_ratio=0.9)


NAN, INF = float("nan"), float("inf")


class TestNonFiniteAndOutOfRangeSRInputs:
    """Densities outside (0, 1] and SR ratios outside [1, inf) are refused
    by every entry point: NaN fails the chained comparisons instead of
    slipping through ``min(1.0, nan) == 1.0`` or ``nan < 1.0 == False``."""

    def test_quality_refuses_a_nan_density(self):
        with pytest.raises(ValueError, match="density"):
            SRQualityModel().quality(NAN, 2.0)

    def test_quality_refuses_a_negative_density(self):
        with pytest.raises(ValueError, match="density"):
            SRQualityModel().quality(-1.0, 2.0)

    def test_quality_refuses_a_density_above_one(self):
        with pytest.raises(ValueError, match="density"):
            SRQualityModel().quality(5.0, 2.0)

    def test_quality_refuses_a_nan_or_infinite_ratio(self):
        for ratio in (NAN, INF):
            with pytest.raises(ValueError, match="sr_ratio"):
                SRQualityModel().quality(0.5, ratio)

    def test_decision_refuses_a_nan_ratio(self):
        with pytest.raises(ValueError, match=r"Decision\.sr_ratio.*got nan"):
            Decision(0.5, NAN)

    def test_decision_refuses_an_infinite_ratio(self):
        with pytest.raises(ValueError, match=r"Decision\.sr_ratio.*got inf"):
            Decision(0.5, INF)

    def test_model_refuses_a_nan_or_infinite_max_ratio(self):
        for ratio in (NAN, INF):
            with pytest.raises(ValueError, match="max_ratio"):
                SRQualityModel(max_ratio=ratio)


def make_mpc(cls=ContinuousMPC, **kw):
    qm = SRQualityModel()
    return cls(qm, QoEModel(), ZERO_LATENCY, **kw)


class TestContinuousMPC:
    def test_high_bandwidth_picks_high_density(self):
        mpc = make_mpc()
        d = mpc.decide(ctx(tput_mbps=500.0))
        assert d.density > 0.9

    def test_low_bandwidth_picks_low_density(self):
        mpc = make_mpc()
        d = mpc.decide(ctx(tput_mbps=5.0))
        assert d.density < 0.2

    def test_decision_monotone_in_bandwidth(self):
        mpc = make_mpc()
        densities = [
            mpc.decide(ctx(tput_mbps=m)).density for m in (10, 30, 60, 120, 400)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(densities, densities[1:]))

    def test_sr_ratio_consistent_with_density(self):
        mpc = make_mpc()
        d = mpc.decide(ctx(tput_mbps=40.0))
        assert d.sr_ratio == pytest.approx(min(8.0, 1.0 / d.density))

    def test_fine_grid_beats_discrete_on_intermediate_bandwidth(self):
        """The continuous grid can sit between discrete rungs."""
        cont = make_mpc(ContinuousMPC)
        disc = make_mpc(DiscreteMPC)
        c = ctx(tput_mbps=55.0, buffer_level=1.0)
        d_cont = cont.decide(c).density
        d_disc = disc.decide(c).density
        assert d_disc in YUZU_DENSITY_LEVELS
        assert d_cont not in YUZU_DENSITY_LEVELS

    def test_empty_buffer_conservative(self):
        mpc = make_mpc()
        hungry = mpc.decide(ctx(tput_mbps=60.0, buffer_level=0.0)).density
        comfy = mpc.decide(ctx(tput_mbps=60.0, buffer_level=8.0)).density
        assert hungry <= comfy

    @pytest.mark.golden
    def test_candidate_grids_are_pinned(self):
        """The grids the single-link cases (8, 12), the fleet (16) and the
        paper figures (64) plan over hold on every CPU; the rule-based
        zoo's grid is the same one, and so are BOLA's per-candidate
        scores ``V·(u_c + γp)`` over it."""
        grids = (8, 12, 16, 64)
        rows = [
            {"n": n, "i": i, "density": d}
            for n in grids
            for i, d in enumerate(make_mpc(n_grid=n).candidates.tolist())
        ] + [
            {"policy": "bola", "n": n, "i": i, "vu": v}
            for n in grids
            for i, v in enumerate(BolaController(SRQualityModel(), n_grid=n)._vu.tolist())
        ]
        assert_golden("planner_grid", rows, key=("n", "i", "policy"))
        bola = BolaController(SRQualityModel(), n_grid=16)
        assert bola.candidates.tolist() == make_mpc(n_grid=16).candidates.tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            make_mpc(min_density=0.0)
        with pytest.raises(ValueError):
            make_mpc(horizon=0)


class TestDiscreteMPC:
    def test_always_on_a_level(self):
        mpc = make_mpc(DiscreteMPC)
        for m in (5, 20, 50, 100, 300):
            d = mpc.decide(ctx(tput_mbps=m)).density
            assert any(np.isclose(d, lvl) for lvl in YUZU_DENSITY_LEVELS)

    def test_floor_is_quarter_density(self):
        mpc = make_mpc(DiscreteMPC)
        d = mpc.decide(ctx(tput_mbps=1.0)).density
        assert d == pytest.approx(0.25)


class TestBufferBased:
    def test_thresholds(self):
        bb = BufferBased(SRQualityModel())
        assert bb.decide(ctx(buffer_level=0.5)).density == pytest.approx(0.125)
        assert bb.decide(ctx(buffer_level=8.0)).density == pytest.approx(1.0)
        # linear between the low (1 s) and high (6 s) buffer levels
        mid = bb.decide(ctx(buffer_level=3.5)).density
        assert mid == pytest.approx(0.125 + 0.5 * 0.875)

    @pytest.mark.parametrize("level, density", [(1.0, 0.125), (6.0, 1.0)])
    def test_the_ramp_ends_are_inclusive(self, level, density):
        bb = BufferBased(SRQualityModel())
        assert bb.decide(ctx(buffer_level=level)).density == density


class TestAbrContext:
    def test_validation(self):
        spec = VideoSpec(name="t", n_frames=30, fps=30, points_per_frame=100)
        with pytest.raises(ValueError):
            AbrContext(0.0, 1.0, None, spec.chunks())
        with pytest.raises(ValueError):
            AbrContext(1e6, -1.0, None, spec.chunks())
        with pytest.raises(ValueError):
            AbrContext(1e6, 1.0, None, [])

    @pytest.mark.parametrize(
        "field,args",
        [
            ("throughput_bps", (float("nan"), 1.0, None)),
            ("buffer_level", (1e6, float("nan"), None)),
            ("prev_quality", (1e6, 1.0, float("nan"))),
            ("prev_quality", (1e6, 1.0, float("inf"))),
            ("prev_quality", (1e6, 1.0, float("-inf"))),
            ("buffer_level", (1e6, float("inf"), None)),
        ],
    )
    def test_nan_rejected(self, field, args):
        """``nan <= 0`` is false, so NaN used to construct — and the
        planner answered with the argmax of an all-NaN row (or read a NaN
        ``prev_quality`` as "no previous chunk").  An infinite previous
        quality made every plan value ``-inf``, so ``argmax`` silently
        picked density 0.125 / x8; an infinite buffer was accepted too."""
        spec = VideoSpec(name="t", n_frames=30, fps=30, points_per_frame=100)
        with pytest.raises(
            ValueError, match=rf"AbrContext\.{field}.*got (nan|inf|-inf)"
        ):
            AbrContext(*args, spec.chunks())

    def test_infinite_throughput_plans_a_zero_time_download(self):
        spec = VideoSpec(name="t", n_frames=30, fps=30, points_per_frame=100)
        mpc = ContinuousMPC(SRQualityModel(), QoEModel(), ZERO_LATENCY)
        best = mpc.decide(AbrContext(float("inf"), 1.0, None, spec.chunks()))
        assert best == Decision(density=1.0, sr_ratio=1.0)


class TestHostileSRLatency:
    """A custom ``SRLatency`` is outside input.  NaN seconds used to plan
    an all-NaN row (``argmax`` = index 0: density 0.125 / x8 for ever), a
    negative latency planned as if SR were free, +inf gave all -inf and
    the same silent index 0.  The window's tensors are checked where they
    are cached; a refused window is never cached, so every decision that
    needs it raises."""

    @pytest.mark.parametrize(
        "value,shown", [(float("nan"), "nan"), (-0.002, "-0.06"), (float("inf"), "inf")]
    )
    @pytest.mark.parametrize(
        "make,ratio,density", [(ContinuousMPC, 8.0, "0.125"), (DiscreteMPC, 2.0, "0.5")]
    )
    def test_bad_seconds_name_chunk_density_and_value(
        self, make, ratio, density, value, shown
    ):
        def hostile(n_points_in, sr_ratio):
            return value if sr_ratio == ratio else 1e-3  # one bad candidate

        mpc = make(SRQualityModel(), QoEModel(), hostile)
        tail = ctx()
        tail.next_chunks = tail.next_chunks[4:]
        message = (
            rf"SR seconds of a planned chunk must be finite and non-negative, "
            rf"got {shown}\S* for chunk 4 at density {density}$"
        )
        for _ in range(2):  # once per call, not once per object
            with pytest.raises(ValueError, match=message):
                mpc.decide(tail)
            with pytest.raises(ValueError, match=message):
                mpc.decide_batch([tail, ctx(prev=0.5)])
        assert not mpc._horizon_cache and not mpc._window_ids

    def test_infinite_throughput_still_plans(self):
        """``throughput_bps = inf`` is legal (a zero-time download): the
        plan values stay finite and SR time alone sets the stalls."""
        mpc = ContinuousMPC(
            SRQualityModel(), QoEModel(), lambda n, r: 0.0 if r <= 1.0 else 0.05
        )
        fast = AbrContext(float("inf"), 0.0, 0.4, ctx().next_chunks)
        values = mpc.plan_values(fast)
        assert np.isfinite(values).all()
        # 30 frames x 50 ms of SR against a 1 s chunk: any upsampling stalls
        assert mpc.decide(fast) == Decision(density=1.0, sr_ratio=1.0)
        assert mpc.decide_batch([fast, ctx()])[0] == Decision(density=1.0, sr_ratio=1.0)


def measured():
    return MeasuredSRLatency(0.001, 1e-8, 2e-8)


class TestWindowIdentityMap:
    """``decide_batch`` finds a row's window floats by the identity of its
    first chunk, confirmed by tuple ``==``, and falls back to the
    value-keyed ``_horizon_cache``: the floats never depend on which of
    the two found them."""

    def test_value_equal_tables_plan_through_one_window(self):
        """Eight specs of one shape hold value-equal chunks as separate
        objects: each first chunk gets its own identity entry, all of
        them naming the one cached floats object, and rows with equal
        scalars plan once."""
        mpc = ContinuousMPC(SRQualityModel(), QoEModel(), measured(), n_grid=16, horizon=3)
        tables = [
            VideoSpec(f"v{k}", n_frames=300, fps=30, points_per_frame=100_000).chunks(1.0)
            for k in range(8)
        ]
        assert tables[0] == tables[1] and tables[0][0] is not tables[1][0]
        rows = [AbrContext(25e6, 2.5, 0.5, table[2:]) for table in tables]
        decisions = mpc.decide_batch(rows)
        (window,) = mpc._horizon_cache.values()
        assert len(mpc._window_ids) == 8
        for key, (chunks, floats) in mpc._window_ids.items():
            assert floats is window and key == id(chunks[0])
        assert {id(chunks[0]) for chunks, _ in mpc._window_ids.values()} == {
            id(table[2]) for table in tables
        }
        assert (mpc.decide_rows, mpc.decide_unique) == (8, 1)
        assert decisions == [reference_planner.tensor_decide(mpc, rows[0])] * 8

    def test_a_reused_first_chunk_plans_its_own_followers(self):
        """One first-chunk object followed by other chunks: the identity
        entry does not confirm, so the row plans its own window, as a
        fresh controller and both oracles do — in either order, and
        again once the entries are warm."""
        wide, mid, thin = (
            VideoSpec(name, n_frames=300, fps=30, points_per_frame=points).chunks(1.0)
            for name, points in (("a", 100_000), ("b", 50_000), ("c", 20_000))
        )
        head = wide[0]
        rows = [
            AbrContext(25e6, 3.0, None, wide[:5]),
            AbrContext(25e6, 3.0, None, (head, *thin[1:5])),
            AbrContext(25e6, 3.0, None, (head, *mid[1:5])),
            AbrContext(25e6, 3.0, None, (head, thin[1])),
        ]
        for order in (rows, rows[::-1]):
            mpc = ContinuousMPC(SRQualityModel(), QoEModel(), measured(), n_grid=16, horizon=3)
            for _ in range(2):
                decisions = mpc.decide_batch(order)
                for ctx, decision in zip(order, decisions):
                    fresh = ContinuousMPC(
                        SRQualityModel(), QoEModel(), measured(), n_grid=16, horizon=3
                    )
                    values = mpc.plan_values(ctx)
                    np.testing.assert_array_equal(values, fresh.plan_values(ctx))
                    np.testing.assert_array_equal(
                        values, reference_planner.tensor_values(mpc, [ctx])[0]
                    )
                    np.testing.assert_allclose(
                        values, reference_planner.scalar_values(mpc, ctx), rtol=0.0, atol=1e-9
                    )
                    assert decision == reference_planner.tensor_decide(mpc, ctx)
            assert len(mpc._horizon_cache) == 4
        # the followers move the decision, so a stale entry would show
        assert len({d.density for d in mpc.decide_batch(rows[:3])}) == 3

    def test_the_identity_map_is_bounded(self):
        """More first chunks than the bound: the map starts over instead
        of growing, every entry still names its own chunk, and no value
        moves."""
        mpc = ContinuousMPC(SRQualityModel(), QoEModel(), measured(), n_grid=4, horizon=2)
        limit = mpc.WINDOW_IDS_LIMIT
        table = VideoSpec(
            "long", n_frames=30 * (limit + 40), fps=30, points_per_frame=1000
        ).chunks(1.0)
        sizes = []
        for start in range(len(table)):
            mpc.decide_batch([AbrContext(25e6, 2.5, None, table[start : start + 2])])
            sizes.append(len(mpc._window_ids))
        assert max(sizes) == limit and sizes[-1] < limit
        assert all(key == id(chunks[0]) for key, (chunks, _) in mpc._window_ids.items())
        fresh = ContinuousMPC(SRQualityModel(), QoEModel(), measured(), n_grid=4, horizon=2)
        for start in (0, 1, limit - 1, limit, len(table) - 1):
            ctx = AbrContext(25e6, 2.5, 0.3, table[start:])
            assert mpc.decide(ctx) == fresh.decide(ctx)
            np.testing.assert_array_equal(mpc.plan_values(ctx), fresh.plan_values(ctx))


class TestValidationMessages:
    """Errors name the offending field and echo the rejected value."""

    def test_decision_density_message(self):
        with pytest.raises(ValueError, match=r"Decision\.density.*got 0\.0"):
            Decision(density=0.0, sr_ratio=2.0)
        with pytest.raises(ValueError, match=r"Decision\.density.*got 1\.7"):
            Decision(density=1.7, sr_ratio=2.0)

    def test_decision_sr_ratio_message(self):
        with pytest.raises(ValueError, match=r"Decision\.sr_ratio.*got 0\.9"):
            Decision(density=0.5, sr_ratio=0.9)

    def test_abr_context_throughput_message(self):
        spec = VideoSpec(name="t", n_frames=30, fps=30, points_per_frame=100)
        with pytest.raises(
            ValueError, match=r"AbrContext\.throughput_bps.*got -5\.0"
        ):
            AbrContext(-5.0, 1.0, None, spec.chunks())

    def test_abr_context_buffer_message(self):
        spec = VideoSpec(name="t", n_frames=30, fps=30, points_per_frame=100)
        with pytest.raises(
            ValueError, match=r"AbrContext\.buffer_level.*got -0\.25"
        ):
            AbrContext(1e6, -0.25, None, spec.chunks())

    def test_abr_context_chunks_message(self):
        with pytest.raises(
            ValueError, match=r"AbrContext\.next_chunks.*got \[\]"
        ):
            AbrContext(1e6, 1.0, None, [])
