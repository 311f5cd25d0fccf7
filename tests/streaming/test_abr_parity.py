"""MPC parity oracles: the one-pass float planner vs its references.

``tests/streaming/reference_planner.py`` holds two: the scalar reference
(1e-9 — it sums Eq. 10 term by term, in another order) and the
``(H, N, C)`` tensor planner production ran before (``==`` — the same
float operations in the same order).  ``plan_values`` / ``decide`` /
``decide_batch`` in ``src/`` are pinned against both across a
parametrized grid of contexts and controllers — the MPC analogue of
``tests/spatial/test_knn.py::TestThreeBackendParity`` — and the
rule-based zoo against first-principles re-derivations of each rule.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import QoEModel, QoEWeights
from repro.streaming import (
    AbrContext,
    ChunkSpec,
    ContinuousMPC,
    Decision,
    DiscreteMPC,
    FleetSession,
    SRQualityModel,
    VideoSpec,
    ZERO_LATENCY,
    get_policy,
    simulate_fleet,
    uniform_cdn,
)
from repro.streaming.abr import SAFETY, _MPCBase, geometric_grid
from repro.streaming.latency import MeasuredSRLatency
from repro.streaming.policies import BOLA_BUFFER_TARGET, BOLA_GAMMA_P

from . import reference_planner
from .helpers import assert_same_run, spec, sr_lat

ATOL = 1e-9


def make_ctx(tput_mbps, buffer_level, prev, n_chunks=10, points=100_000):
    spec = VideoSpec(
        name="t", n_frames=n_chunks * 30, fps=30, points_per_frame=points
    )
    return AbrContext(
        throughput_bps=tput_mbps * 1e6,
        buffer_level=buffer_level,
        prev_quality=prev,
        next_chunks=spec.chunks(1.0),
    )


def measured_latency():
    return MeasuredSRLatency(0.001, 1e-8, 2e-8)


def slow_python_latency(n_points_in, sr_ratio):
    """A plain callable, not one of the built-in latency models."""
    if sr_ratio <= 1.0:
        return 0.0
    return 1e-9 * n_points_in + 1e-4 * sr_ratio


MPC_FACTORIES = {
    "continuous": lambda lat: ContinuousMPC(
        SRQualityModel(), QoEModel(), lat
    ),
    "continuous-short-horizon": lambda lat: ContinuousMPC(
        SRQualityModel(), QoEModel(), lat, n_grid=16, horizon=2
    ),
    "continuous-fetch-fraction": lambda lat: ContinuousMPC(
        SRQualityModel(max_ratio=4.0),
        QoEModel(QoEWeights(alpha=1.2, beta=0.7, gamma=3.0)),
        lat,
        fetch_fraction=0.55,
    ),
    "discrete": lambda lat: DiscreteMPC(SRQualityModel(), QoEModel(), lat),
}

LATENCIES = {
    "zero": lambda: ZERO_LATENCY,
    "measured": measured_latency,
    "plain-callable": lambda: slow_python_latency,
}

#: the AbrContext grid both paths are evaluated over
CTX_GRID = [
    (tput, buf, prev)
    for tput in (3.0, 25.0, 80.0, 600.0)
    for buf in (0.0, 2.5, 9.0)
    for prev in (None, 0.15, 0.85)
]


def scalar_values(mpc, ctx):
    return np.array(reference_planner.scalar_values(mpc, ctx))


class TestScalarVectorParity:
    """The oracle grid: every (controller, latency, context) agrees."""

    @pytest.mark.parametrize("mpc_name", sorted(MPC_FACTORIES))
    @pytest.mark.parametrize("lat_name", sorted(LATENCIES))
    def test_plan_values_match_scalar_oracle(self, mpc_name, lat_name):
        mpc = MPC_FACTORIES[mpc_name](LATENCIES[lat_name]())
        for tput, buf, prev in CTX_GRID:
            ctx = make_ctx(tput, buf, prev)
            ref = scalar_values(mpc, ctx)
            vec = mpc.plan_values(ctx)
            assert vec.shape == ref.shape
            np.testing.assert_allclose(vec, ref, rtol=0.0, atol=ATOL)

    @pytest.mark.parametrize("mpc_name", sorted(MPC_FACTORIES))
    def test_decide_matches_scalar_argmax(self, mpc_name):
        mpc = MPC_FACTORIES[mpc_name](measured_latency())
        for tput, buf, prev in CTX_GRID:
            ctx = make_ctx(tput, buf, prev)
            assert mpc.decide(ctx) == reference_planner.scalar_decide(mpc, ctx)

    @pytest.mark.parametrize("mpc_name", sorted(MPC_FACTORIES))
    def test_decide_batch_matches_decide(self, mpc_name):
        """Batching across contexts — mixed horizons and prev-qualities —
        must be invisible."""
        mpc = MPC_FACTORIES[mpc_name](measured_latency())
        ctxs = [make_ctx(t, b, p) for t, b, p in CTX_GRID]
        # End-of-video contexts: fewer chunks left than the MPC horizon.
        ctxs += [
            make_ctx(40.0, 1.0, 0.5, n_chunks=1),
            make_ctx(40.0, 4.0, None, n_chunks=2),
        ]
        batch = mpc.decide_batch(ctxs)
        singles = [mpc.decide(c) for c in ctxs]
        assert batch == singles

    @pytest.mark.parametrize("mpc_name", sorted(MPC_FACTORIES))
    def test_mixed_batch_values_equal_one_row_calls_and_the_oracle(self, mpc_name):
        """One batch mixing effective horizons 1-3, ``prev_quality`` None
        and set, and an infinite throughput: per horizon group the tensor
        planner's batched rows are *bit-equal* to production's one-row
        calls and within 1e-9 of the scalar reference; decisions equal
        one-row decisions and the reference's, element for element."""
        mpc = MPC_FACTORIES[mpc_name](measured_latency())
        ctxs = [
            make_ctx(tput, buf, prev, n_chunks=n)
            for n in (1, 2, 3)
            for tput, buf, prev in [
                (3.0, 0.0, None), (25.0, 2.5, 0.15), (math.inf, 0.5, 0.85),
                (80.0, 9.0, None), (math.inf, 0.0, None),
            ]
        ]
        by_horizon = {}
        for ctx in ctxs:
            by_horizon.setdefault(min(len(ctx.next_chunks), mpc.horizon), []).append(ctx)
        assert len(by_horizon) == min(3, mpc.horizon)
        for group in by_horizon.values():
            batch = reference_planner.tensor_values(mpc, group)
            assert batch.shape == (len(group), len(mpc.candidates))
            for row, ctx in zip(batch, group):
                np.testing.assert_array_equal(row, mpc.plan_values(ctx))
                np.testing.assert_allclose(
                    row, scalar_values(mpc, ctx), rtol=0.0, atol=ATOL
                )
        decisions = mpc.decide_batch(ctxs)
        assert decisions == [mpc.decide(c) for c in ctxs]
        assert decisions == [reference_planner.scalar_decide(mpc, c) for c in ctxs]

    def test_short_horizon_truncation_matches(self):
        """A 1-chunk tail uses a 1-chunk plan in both paths."""
        mpc = MPC_FACTORIES["continuous"](measured_latency())
        ctx = make_ctx(50.0, 3.0, 0.4, n_chunks=1)
        np.testing.assert_allclose(
            mpc.plan_values(ctx), scalar_values(mpc, ctx), rtol=0.0, atol=ATOL
        )

    @given(
        tput=st.floats(0.5, 1000.0),
        buf=st.floats(0.0, 12.0),
        prev=st.one_of(st.none(), st.floats(0.0, 1.0)),
        points=st.integers(1_000, 300_000),
        n_chunks=st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_parity(self, tput, buf, prev, points, n_chunks):
        mpc = ContinuousMPC(
            SRQualityModel(), QoEModel(), measured_latency(), n_grid=24
        )
        ctx = make_ctx(tput, buf, prev, n_chunks=n_chunks, points=points)
        np.testing.assert_allclose(
            mpc.plan_values(ctx), scalar_values(mpc, ctx), rtol=0.0, atol=ATOL
        )


def predecessor_plan_values(mpc, ctxs):
    """The tensor body before the four-call recursion and the cached
    first-chunk rows, as a second ``==`` oracle: ``stall = max(0, r - b)``
    then ``b = max(b - r, 0) + d`` after every horizon step (the last
    included), and the variation term rebuilt on every call as
    ``β · where(δ < 0, m, 1) · |δ|`` with NaN marking "no previous
    chunk".  Rows must share one effective horizon; it reads the tensor
    planner's window tensors."""
    windows = [
        reference_planner.window_tensors(mpc, c.next_chunks[: mpc.horizon])
        for c in ctxs
    ]
    bits, sr, dur = (np.concatenate(t, axis=1) for t in zip(*windows))
    tput = (np.array([c.throughput_bps for c in ctxs]) * SAFETY)[:, None]
    buffer = np.array([c.buffer_level for c in ctxs])[:, None]
    prev = np.array(
        [np.nan if c.prev_quality is None else c.prev_quality for c in ctxs]
    )[:, None]
    ready = np.maximum(bits / tput, sr)
    stalls = np.empty_like(ready)
    for r, stall, d in zip(ready, stalls, dur):
        np.subtract(r, buffer, out=stall)
        np.maximum(0.0, stall, out=stall)
        buffer = np.maximum(buffer - r, 0.0) + d
    w = mpc.qoe_model.weights
    qualities = reference_planner.candidate_qualities(mpc)
    quality = w.alpha * qualities
    stall = w.gamma * stalls
    delta = qualities - prev
    mult = np.where(delta < 0, w.drop_multiplier, 1.0)
    variation = np.where(np.isnan(prev), 0.0, w.beta * mult * np.abs(delta))
    total = quality - variation - stall[0]
    for i in range(1, len(stall)):
        total = total + (quality - stall[i])
    return total


#: the largest buffer an ``AbrContext`` admits (an infinite one is refused)
MAX_BUFFER = sys.float_info.max


def oracle_ctx(mpc, tput_bps, buffer, prev, n_chunks, points, tie):
    """A context over ``n_chunks`` one-second chunks.  ``buffer="tie"``
    sets the buffer to the first chunk's readiness interval at candidate
    ``tie``, so that row's first step has ``ready == buffer`` exactly —
    or, where a subnormal throughput makes that interval infinite, to
    :data:`MAX_BUFFER`, the nearest buffer a context admits."""
    chunks = VideoSpec(
        name="t", n_frames=n_chunks * 30, fps=30, points_per_frame=points
    ).chunks(1.0)
    if buffer == "tie":
        bits, sr, _ = reference_planner.window_tensors(mpc, chunks[: mpc.horizon])
        c = tie % len(mpc.candidates)
        with np.errstate(over="ignore"):  # a subnormal throughput ties at inf
            buffer = float(max(bits[0, 0, c] / (tput_bps * SAFETY), sr[0, 0, c]))
        buffer = min(buffer, MAX_BUFFER)
    return AbrContext(tput_bps, buffer, prev, chunks)


def assert_matches_predecessor(mpc, ctxs):
    """Every horizon group of ``ctxs`` is ``==`` the predecessor: the
    tensor planner as a batch, production row by row; and
    ``decide_batch`` picks its argmax.  Infinite rows overflow and
    subtract ``inf - inf`` on purpose."""
    groups = {}
    for ctx in ctxs:
        groups.setdefault(min(len(ctx.next_chunks), mpc.horizon), []).append(ctx)
    with np.errstate(over="ignore", invalid="ignore"):
        for group in groups.values():
            expected = predecessor_plan_values(mpc, group)
            np.testing.assert_array_equal(
                reference_planner.tensor_values(mpc, group), expected
            )
            for ctx, row in zip(group, expected):
                np.testing.assert_array_equal(mpc.plan_values(ctx), row)
        picks = [
            float(mpc.candidates[int(np.argmax(predecessor_plan_values(mpc, [c])[0]))])
            for c in ctxs
        ]
        assert [d.density for d in mpc.decide_batch(ctxs)] == picks


#: (throughput bit/s, buffer s, previous quality, chunks left, points, tie
#: candidate): ties, an empty buffer, one-chunk horizons, an infinite
#: throughput (a zero-time download), a subnormal one (an infinite
#: readiness interval) and the largest finite buffer
EDGE_ROWS = [
    (25e6, "tie", None, 4, 100_000, 0),
    (25e6, "tie", 0.5, 1, 100_000, 63),
    (3e6, "tie", 0.85, 6, 40_000, 7),
    (80e6, 0.0, 0.15, 3, 100_000, 0),
    (80e6, 0.0, None, 1, 100_000, 0),
    (math.inf, 0.0, 0.4, 5, 100_000, 0),
    (math.inf, "tie", None, 2, 100_000, 3),
    (1e-310, 2.0, 0.6, 3, 100_000, 0),
    (1e-310, "tie", None, 1, 100_000, 5),
    (40e6, MAX_BUFFER, 0.2, 4, 100_000, 0),
]


class TestPredecessorRecursion:
    """``==``, not 1e-9: the float loop's recursion and the cached
    first-chunk rows are the predecessor's floats, and so are the tensor
    planner's rows batched."""

    @pytest.mark.parametrize("mpc_name", sorted(MPC_FACTORIES))
    @pytest.mark.parametrize("lat_name", sorted(LATENCIES))
    def test_edge_rows_equal_the_predecessor(self, mpc_name, lat_name):
        mpc = MPC_FACTORIES[mpc_name](LATENCIES[lat_name]())
        ctxs = [oracle_ctx(mpc, *row) for row in EDGE_ROWS]
        assert_matches_predecessor(mpc, ctxs)

    @given(
        mpc_name=st.sampled_from(sorted(MPC_FACTORIES)),
        lat_name=st.sampled_from(sorted(LATENCIES)),
        rows=st.lists(
            st.tuples(
                st.one_of(st.floats(1e4, 1e10), st.sampled_from([math.inf, 1e-310])),
                st.one_of(
                    st.sampled_from([0.0, "tie", MAX_BUFFER]), st.floats(0.0, 12.0)
                ),
                st.one_of(st.none(), st.floats(0.0, 1.0)),
                st.integers(1, 7),
                st.integers(1_000, 300_000),
                st.integers(0, 63),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_equal_the_predecessor(self, mpc_name, lat_name, rows):
        mpc = MPC_FACTORIES[mpc_name](LATENCIES[lat_name]())
        assert_matches_predecessor(mpc, [oracle_ctx(mpc, *row) for row in rows])


#: the grids production plans on, pinned ``==`` to the tensor planner:
#: the fleet's 16 x 3, two larger continuous grids (the paper's is
#: 64 x 5) and the discrete YuZu levels
TENSOR_GRIDS = {
    "continuous-16x3": lambda lat: ContinuousMPC(
        SRQualityModel(), QoEModel(), lat, n_grid=16, horizon=3
    ),
    "continuous-32x4": lambda lat: ContinuousMPC(
        SRQualityModel(), QoEModel(), lat, n_grid=32, horizon=4
    ),
    "continuous-64x5": lambda lat: ContinuousMPC(
        SRQualityModel(), QoEModel(), lat, n_grid=64, horizon=5
    ),
    "discrete": lambda lat: DiscreteMPC(SRQualityModel(), QoEModel(), lat),
}


def assert_equals_the_tensor_planner(mpc, ctxs):
    """Each row's values are bit-equal to the tensor planner's, and
    ``decide_batch`` over all rows picks the tensor planner's argmax."""
    with np.errstate(over="ignore", invalid="ignore"):
        for ctx in ctxs:
            want = reference_planner.tensor_values(mpc, [ctx])[0]
            got = mpc.plan_values(ctx)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        want = [reference_planner.tensor_decide(mpc, c) for c in ctxs]
    assert mpc.decide_batch(ctxs) == want
    assert [mpc.decide(c) for c in ctxs] == want


class TestTensorOracle:
    """The one-pass float loop performs the tensor planner's float
    operations in its order: values bit-equal, decisions equal, on every
    horizon tail, with and without a previous chunk, from an empty
    buffer, at a subnormal and an infinite throughput."""

    @pytest.mark.parametrize("grid", sorted(TENSOR_GRIDS))
    @pytest.mark.parametrize("lat_name", sorted(LATENCIES))
    def test_edge_rows_equal_the_tensor_planner(self, grid, lat_name):
        mpc = TENSOR_GRIDS[grid](LATENCIES[lat_name]())
        ctxs = [oracle_ctx(mpc, *row) for row in EDGE_ROWS]
        ctxs += [
            oracle_ctx(mpc, tput, 0.0, None, tail, 100_000, 0)
            for tput in (5e-324, math.inf, 25e6)
            for tail in range(1, mpc.horizon + 2)
        ]
        assert_equals_the_tensor_planner(mpc, ctxs)

    @pytest.mark.parametrize("tput", [1e-301, 2e-301, 4e-301, 8e-301])
    def test_a_nan_value_is_picked_as_argmax_picks_it(self, tput):
        """``γ = 0`` against an infinite stall is ``0 · inf = NaN``: the
        candidates whose bits overflow at a subnormal throughput plan NaN,
        the rest finite values before them, and the first NaN wins."""
        mpc = ContinuousMPC(
            SRQualityModel(), QoEModel(QoEWeights(gamma=0.0)), ZERO_LATENCY,
            n_grid=16, horizon=3,
        )
        ctx = AbrContext(tput, 1.0, 0.5, make_ctx(1.0, 1.0, 0.5).next_chunks)
        with np.errstate(over="ignore", invalid="ignore"):
            nans = np.isnan(reference_planner.tensor_values(mpc, [ctx])[0])
        assert nans.any()
        assert_equals_the_tensor_planner(mpc, [ctx])
        assert mpc.decide(ctx).density == mpc.candidates[int(np.argmax(nans))]

    @given(
        grid=st.sampled_from(sorted(TENSOR_GRIDS)),
        lat_name=st.sampled_from(sorted(LATENCIES)),
        rows=st.lists(
            st.tuples(
                st.one_of(st.floats(1e4, 1e10), st.sampled_from([math.inf, 5e-324])),
                st.one_of(st.sampled_from([0.0, "tie"]), st.floats(0.0, 12.0)),
                st.one_of(st.none(), st.floats(0.0, 1.0)),
                st.integers(1, 6),
                st.integers(1_000, 300_000),
                st.integers(0, 63),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_equal_the_tensor_planner(self, grid, lat_name, rows):
        mpc = TENSOR_GRIDS[grid](LATENCIES[lat_name]())
        assert_equals_the_tensor_planner(mpc, [oracle_ctx(mpc, *row) for row in rows])


@dataclass(frozen=True)
class WobblyChunk(ChunkSpec):
    """A chunk whose encoded size is not monotone in density: its
    ``bytes_at_density`` scaled by ``1 + wobble·sin(97·d)``, so a denser
    candidate can fetch fewer bits than a sparser one."""

    wobble: float = 0.0

    def bytes_at_density(self, density: float) -> int:
        size = super().bytes_at_density(density)
        return int(size * (1.0 + self.wobble * math.sin(97.0 * density)))


def falling_latency(per_ratio):
    """SR seconds ``per_ratio · sr_ratio`` per frame: they fall with
    density, as the SR ratio does."""
    return lambda n_points_in, sr_ratio: per_ratio * sr_ratio


#: densities the pruned pick's grids draw from (with repeats: tied plans)
PICK_LEVELS = geometric_grid(1.0 / 8.0, 1.0, 12)


def first_max_or_first_nan(values) -> int:
    """``argmax``'s rule, stated: the first NaN, else the first maximum."""
    nans = [c for c, v in enumerate(values) if v != v]
    return nans[0] if nans else values.index(max(values))


def assert_picks_first_max_or_first_nan(mpc, ctxs) -> list[int]:
    """``decide_batch`` and ``decide`` pick, row by row, the first NaN or
    else the first maximum of the tensor planner's values; returns the
    picked indices."""
    with np.errstate(over="ignore", invalid="ignore"):
        picks = [
            first_max_or_first_nan(reference_planner.tensor_values(mpc, [ctx])[0].tolist())
            for ctx in ctxs
        ]
        want = [mpc._decisions[c] for c in picks]
        assert mpc.decide_batch(ctxs) == want
        assert [mpc.decide(ctx) for ctx in ctxs] == want
    return picks


class TestPrunedPick:
    """``decide_batch`` plans a row's candidates in grid order and stops
    once a bound on the rest is ``<=`` the best so far; its pick must be
    the first maximum — or first NaN — of the tensor planner's values
    over every candidate.  Drawn grids (repeated densities plan exactly
    tied values), Eq. 10 weights (``γ = 0``; ``β > α``, whose values fall
    along the grid), windows whose fetched bits rise and fall along the
    grid (the bound must use each chunk's suffix minima), SR seconds
    that fall with density, subnormal throughputs (all-``−inf`` rows
    with ``γ > 0``, NaN rows with ``γ = 0``), a previous quality that
    overflows the first row to ``−inf``, an infinite throughput and an
    empty buffer."""

    @given(
        grid=st.lists(st.sampled_from(PICK_LEVELS), min_size=1, max_size=16),
        weights=st.tuples(
            st.sampled_from([0.5, 1.0, 1.2]),   # α
            st.sampled_from([0.0, 0.5, 2.0]),   # β
            st.sampled_from([0.0, 2.0, 3.0]),   # γ
        ),
        horizon=st.integers(1, 4),
        latency=st.one_of(
            st.sampled_from([ZERO_LATENCY, measured_latency()]),
            st.sampled_from([1e-4, 1e-3, 1e-2]).map(falling_latency),
        ),
        rows=st.lists(
            st.tuples(
                st.one_of(  # bit/s, log-uniform: most rows stall somewhere
                    st.floats(5.0, 9.5).map(lambda e: 10.0**e),
                    # the denser candidates' bits / tput overflow to +inf
                    st.floats(-304.0, -300.0).map(lambda e: 10.0**e),
                    st.sampled_from([math.inf, 5e-324]),
                ),
                st.one_of(st.just(0.0), st.floats(0.0, 12.0)),
                st.one_of(  # ±1e308 overflow the variation term: a −inf first row
                    st.none(), st.sampled_from(PICK_LEVELS), st.floats(0.0, 1.0),
                    st.sampled_from([1e308, -1e308]),
                ),
                st.sampled_from([0.0, 0.5, 0.9]),            # wobble
                st.integers(1, 5),                           # chunks left
                st.integers(1_000, 300_000),                 # points per frame
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_pick_is_the_first_max_of_the_tensor_planner(
        self, grid, weights, horizon, latency, rows
    ):
        alpha, beta, gamma = weights
        mpc = _MPCBase(
            np.array(grid), SRQualityModel(),
            QoEModel(QoEWeights(alpha=alpha, beta=beta, gamma=gamma)), latency,
            horizon=horizon,
        )
        ctxs = [
            AbrContext(tput, buffer, prev, tuple(
                WobblyChunk(i, 30, points, 1.0, wobble=wobble) for i in range(n)
            ))
            for tput, buffer, prev, wobble, n, points in rows
        ]
        assert_picks_first_max_or_first_nan(mpc, ctxs)

    @pytest.mark.parametrize("tput", [2e6, 8e6])
    @pytest.mark.parametrize("buffer", [0.0, 2.5])
    def test_a_denser_candidate_that_fetches_fewer_bits_is_not_pruned(
        self, tput, buffer
    ):
        """Stalls dominate on these links, but the fetched bits rise and
        fall along the grid: a denser candidate that fetches fewer bits
        wins, and the bound on it must read the suffix minimum of the
        bits, not the bits of the first candidate it covers."""
        mpc = TENSOR_GRIDS["continuous-16x3"](measured_latency())
        chunks = tuple(WobblyChunk(i, 30, 100_000, 1.0, wobble=0.9) for i in range(3))
        ctx = AbrContext(tput, buffer, None, chunks)
        assert_picks_first_max_or_first_nan(mpc, [ctx])
        assert mpc.candidates[0] < mpc.decide(ctx).density

    @pytest.mark.parametrize("prev", [1e308, -1e308])
    @pytest.mark.parametrize("tput", [2e-301, 4e-301, 8e-301])
    def test_gamma_zero_prunes_nothing(self, prev, tput):
        """``γ = 0``: the candidates whose bits overflow at a tiny
        throughput plan ``0 · inf = NaN``, which no bound sees.  A huge
        previous quality rounds every first-chunk value to one float, so
        the values before the first NaN tie, and a pick that pruned on
        the tie would miss the NaN.  The pick plans up to the first NaN
        and stops there."""
        mpc = ContinuousMPC(
            SRQualityModel(), QoEModel(QoEWeights(gamma=0.0)), ZERO_LATENCY,
            n_grid=16, horizon=3,
        )
        ctx = AbrContext(tput, 1.0, prev, make_ctx(1.0, 1.0, 0.5).next_chunks)
        first_nan = assert_picks_first_max_or_first_nan(mpc, [ctx])[0]
        assert first_nan > 1 and mpc.decide_candidates == 2 * (first_nan + 1)

    @given(
        grid=st.lists(st.sampled_from(PICK_LEVELS), min_size=4, max_size=16),
        beta=st.sampled_from([0.5, 2.0]),
        horizon=st.integers(1, 3),
        # a 100,000-point chunk's bits / tput overflow from density 1/8 at
        # 10**-300.95 and from density 1 at 10**-300.05
        tput=st.floats(-301.0, -300.0).map(lambda e: 10.0**e),
        prev=st.one_of(
            st.none(), st.sampled_from(PICK_LEVELS), st.sampled_from([1e308, -1e308])
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_gamma_zero_rows_pick_their_first_nan(self, grid, beta, horizon, tput, prev):
        """The same rows drawn: throughputs at which only the denser
        candidates' bits overflow, and previous qualities that tie the
        values before the first NaN."""
        mpc = _MPCBase(
            np.array(grid), SRQualityModel(),
            QoEModel(QoEWeights(beta=beta, gamma=0.0)), ZERO_LATENCY, horizon=horizon,
        )
        chunks = tuple(ChunkSpec(i, 30, 100_000, 1.0) for i in range(horizon))
        assert_picks_first_max_or_first_nan(mpc, [AbrContext(tput, 1.0, prev, chunks)])

    @pytest.mark.parametrize(
        "weights,horizon,tput,buffer,prev,chunks",
        [
            # a 1e308-s first chunk overflows the buffer to +inf, and the
            # second chunk's denser candidates take +inf seconds: inf − inf
            ((0.5, 2.0, 2.0), 2, 1e-303, 1e308, 0.2,
             [(1, 1e308), (200, 1.0)]),
            # α = 1e308: two stall-free chunks sum to +inf, and the densest
            # candidates' third-chunk stall costs γ·x = +inf: inf − inf
            ((1e308, 0.5, 1e308), 3, 1e6, 1.0, None,
             [(1000, 1.0), (1000, 1.0), (10_000, 1.0)]),
        ],
        ids=["overflowed-buffer", "infinite-best"],
    )
    def test_inf_minus_inf_rows_are_not_pruned(
        self, weights, horizon, tput, buffer, prev, chunks
    ):
        """With ``γ > 0`` a value is NaN only through ``inf − inf``; the
        two ways to it, each with a candidate whose bound is ``<=`` the
        best before the first NaN.  The pick must not prune on a bound
        whose buffer overflowed, nor once the best is ``+inf``."""
        alpha, beta, gamma = weights
        mpc = ContinuousMPC(
            SRQualityModel(), QoEModel(QoEWeights(alpha=alpha, beta=beta, gamma=gamma)),
            ZERO_LATENCY, n_grid=16, horizon=horizon,
        )
        ctx = AbrContext(tput, buffer, prev, tuple(
            ChunkSpec(i, 30, points, seconds) for i, (points, seconds) in enumerate(chunks)
        ))
        (pick,) = assert_picks_first_max_or_first_nan(mpc, [ctx])
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(reference_planner.tensor_values(mpc, [ctx])[0][pick])

    def test_an_overloaded_batch_plans_few_candidates(self):
        """Provisioned below the sparsest rung (a 1-s chunk of 100,000
        points at density 1/8 is 18 Mbit; these viewers get 1–12 Mbit/s,
        ``fleet-diurnal``'s 6 Mbit/s among them), stalls dominate and the
        sparsest candidates win: a distinct row plans at most 4 of the
        fleet grid's 16 candidates on average, and each pick is the
        tensor planner's."""
        mpc = ContinuousMPC(
            SRQualityModel(), QoEModel(), measured_latency(), n_grid=16, horizon=3
        )
        chunks = VideoSpec("v", n_frames=1800, fps=30, points_per_frame=100_000).chunks(1.0)
        rng = np.random.default_rng(11)
        prevs = [None, *mpc._qualities]
        ctxs = [
            AbrContext(
                float(rng.uniform(1e6, 12e6)), float(rng.uniform(0.0, 8.0)),
                prevs[int(rng.integers(len(prevs)))], chunks[int(rng.integers(60)):],
            )
            for _ in range(300)
        ]
        decisions = mpc.decide_batch(ctxs)
        assert mpc.decide_unique == 300
        assert mpc.decide_candidates <= 4 * mpc.decide_unique
        assert decisions == [reference_planner.tensor_decide(mpc, c) for c in ctxs]


class TestRowsPlannedOncePerCall:
    """``decide_batch`` plans each distinct row of a call once and hands
    its decision to every equal row: over batches full of repeats —
    value-equal but distinct contexts and chunk specs, a zero buffer and
    previous quality of either sign beside ``None``, equal scalars under
    different windows, in a drawn order — it equals the one-row calls
    and the tensor planner, and plans exactly the distinct keys.
    ``make_ctx`` builds fresh chunk specs on every call."""

    @given(
        grid=st.sampled_from(sorted(TENSOR_GRIDS)),
        lat_name=st.sampled_from(sorted(LATENCIES)),
        tputs=st.lists(  # Mbit/s
            st.one_of(st.floats(1e-2, 1e4), st.sampled_from([math.inf, 5e-324])),
            min_size=1,
            max_size=3,
        ),
        buffers=st.lists(
            st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 12.0)),
            min_size=1,
            max_size=3,
        ),
        prevs=st.lists(
            st.one_of(st.sampled_from([None, 0.0, -0.0]), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=3,
        ),
        windows=st.lists(
            st.tuples(st.integers(1, 6), st.integers(1_000, 300_000)),
            min_size=1,
            max_size=3,
        ),
        # each row picks one value of every column: repeats of whole rows,
        # and of some columns under others
        picks=st.lists(st.tuples(*[st.integers(0, 2)] * 4), min_size=1, max_size=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_with_repeats_equals_one_row_calls_and_the_tensor_planner(
        self, grid, lat_name, tputs, buffers, prevs, windows, picks
    ):
        mpc = TENSOR_GRIDS[grid](LATENCIES[lat_name]())
        columns = (tputs, buffers, prevs, windows)
        ctxs = [
            make_ctx(tput, buffer, prev, *window)
            for tput, buffer, prev, window in (
                [col[i % len(col)] for col, i in zip(columns, row)] for row in picks
            )
        ]
        keys = {
            (tuple(c.next_chunks[: mpc.horizon]), c.throughput_bps, c.buffer_level,
             c.prev_quality)
            for c in ctxs
        }
        with np.errstate(over="ignore", invalid="ignore"):
            want = [reference_planner.tensor_decide(mpc, c) for c in ctxs]
        batch = mpc.decide_batch(ctxs)
        assert mpc.decide_unique == len(keys)
        assert batch == [mpc.decide(c) for c in ctxs] == want


class TestFirstChunkRows:
    """A controller builds each previous quality's first-chunk row once
    and replays it: a cold call and a warm one are both ``==`` the
    predecessor, which rebuilds the variation term on every call."""

    @given(
        mpc_name=st.sampled_from(sorted(MPC_FACTORIES)),
        rows=st.lists(
            st.tuples(
                st.floats(1e4, 1e10),
                st.floats(0.0, 12.0),
                # an int picks from the controller's own quality row
                st.one_of(
                    st.none(),
                    st.integers(0, 63),
                    st.floats(allow_nan=False, allow_infinity=False),
                ),
                st.integers(1, 7),
                st.integers(1_000, 300_000),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_cold_and_warm_rows_equal_the_predecessor(self, mpc_name, rows):
        factory = MPC_FACTORIES[mpc_name]
        mpc = factory(measured_latency())
        own = reference_planner.candidate_qualities(mpc).tolist()
        ctxs = [
            oracle_ctx(
                mpc, tput, buf, own[prev % len(own)] if type(prev) is int else prev,
                n_chunks, points, 0,
            )
            for tput, buf, prev, n_chunks, points in rows
        ]
        # A huge previous quality overflows the variation term to inf.
        with np.errstate(over="ignore", invalid="ignore"):
            for ctx in ctxs:
                expected = predecessor_plan_values(mpc, [ctx])[0]
                cold = factory(measured_latency())
                assert ctx.prev_quality is None or ctx.prev_quality not in cold._first_rows
                np.testing.assert_array_equal(cold.plan_values(ctx), expected)
                np.testing.assert_array_equal(cold.plan_values(ctx), expected)
            expected = [reference_planner.scalar_decide(mpc, c) for c in ctxs]
            assert mpc.decide_batch(ctxs) == expected
            assert mpc.decide_batch(ctxs) == expected

    def test_the_row_cache_is_bounded(self):
        """More distinct previous qualities than the bound: the cache
        starts over instead of growing, and no value moves."""
        mpc = MPC_FACTORIES["continuous-short-horizon"](measured_latency())
        limit = mpc.FIRST_ROWS_LIMIT
        ctxs = [
            make_ctx(25.0, 2.5, p) for p in np.linspace(0.0, 1.0, limit + 40).tolist()
        ]
        sizes = []
        for ctx in ctxs:
            np.testing.assert_array_equal(
                mpc.plan_values(ctx), predecessor_plan_values(mpc, [ctx])[0]
            )
            sizes.append(len(mpc._first_rows))
        assert max(sizes) == limit and sizes[-1] < limit
        # shared by every call that hits it, so immutable
        assert all(type(row) is tuple for row in mpc._first_rows.values())
        fresh = MPC_FACTORIES["continuous-short-horizon"](measured_latency())
        for ctx in ctxs[:3] + [make_ctx(25.0, 2.5, None)]:
            np.testing.assert_array_equal(mpc.plan_values(ctx), fresh.plan_values(ctx))


REGISTRY_POLICIES = (
    "continuous-mpc", "discrete-mpc", "bola", "throughput", "buffer-linear",
)


class TestContextAloneDecides:
    """Every row is evaluated: a decision is a function of its context —
    not of the rest of the batch, its order, or the policy's history."""

    @pytest.mark.parametrize("name", REGISTRY_POLICIES)
    def test_cowatching_batch_equals_one_row_calls(self, name):
        """400 value-identical contexts (co-watching viewers: fresh
        objects, equal floats) plus 3 distinct ones, shuffled."""
        policy = get_policy(name, sr_latency=measured_latency())
        ctxs = [make_ctx(25.0, 2.5, 0.15) for _ in range(400)] + [
            make_ctx(3.0, 0.0, None),
            make_ctx(600.0, 9.0, 0.85, points=40_000),
            make_ctx(40.0, 1.0, 0.5, n_chunks=1),
        ]
        order = np.random.default_rng(7).permutation(len(ctxs))
        ctxs = [ctxs[i] for i in order]
        assert policy.decide_batch(ctxs) == [policy.decide(c) for c in ctxs]

    def test_decide_rows_counts_every_row(self):
        """The plain counter ``bench/wl_fleet.py`` derives
        ``abr.rows_per_call`` and ``fleet.chunks_decided`` from."""
        mpc = MPC_FACTORIES["continuous"](measured_latency())
        mpc.decide_batch([make_ctx(25.0, 2.5, 0.15) for _ in range(8)])
        mpc.decide(make_ctx(25.0, 2.5, 0.15))
        assert mpc.decide_rows == 9

    def test_decide_unique_counts_planned_rows(self):
        """``decide_unique`` counts the rows a call plans — one per
        distinct (chunk window, throughput, buffer, previous quality) —
        beside ``decide_rows``, which counts every row handed in;
        ``bench/wl_fleet.py`` reads their ratio as ``abr.dedup_ratio``.
        The same call twice plans its rows twice."""
        mpc = MPC_FACTORIES["continuous"](measured_latency())
        ctxs = [make_ctx(25.0, 2.5, 0.15) for _ in range(6)] + [
            make_ctx(25.0, 2.5, None),
            make_ctx(25.0, 2.5, 0.15, n_chunks=2),
            make_ctx(3.0, 2.5, 0.15),
        ]
        mpc.decide_batch(ctxs)
        assert (mpc.decide_rows, mpc.decide_unique) == (9, 4)
        mpc.decide_batch(ctxs)
        assert (mpc.decide_rows, mpc.decide_unique) == (18, 8)
        mpc.decide(make_ctx(25.0, 2.5, 0.15))
        assert (mpc.decide_rows, mpc.decide_unique) == (19, 9)

    def test_decide_candidates_counts_planned_candidates(self):
        """``decide_candidates`` adds, once per planned row, how many
        candidates its pick planned: the whole grid when values rise along
        it (a fast link) or when ``γ = 0`` (nothing is pruned), fewer once
        a bound settles the pick, and nothing for a repeated row."""
        mpc = MPC_FACTORIES["continuous-short-horizon"](measured_latency())
        mpc.decide_batch([make_ctx(1e4, 9.0, None)] * 3)
        assert (mpc.decide_unique, mpc.decide_candidates) == (1, 16)
        mpc.decide(make_ctx(3.0, 0.0, None))
        assert mpc.decide_unique == 2 and 16 < mpc.decide_candidates < 2 * 16
        blind = ContinuousMPC(
            SRQualityModel(), QoEModel(QoEWeights(gamma=0.0)), measured_latency(),
            n_grid=16, horizon=2,
        )
        blind.decide(make_ctx(3.0, 0.0, None))
        assert blind.decide_candidates == 16

    def run_fleet(self, ctrl, n=48):
        qm, lat = ctrl.quality_model, ctrl.sr_latency
        sessions = [
            FleetSession(
                spec=spec(6, name=f"v{i % 3}"),
                controller=ctrl,
                sr_latency=lat,
                quality_model=qm,
                join_time=0.25 * i,
            )
            for i in range(n)
        ]
        topology = uniform_cdn(
            2,
            access_mbps=80.0,
            backhaul_mbps=30.0,
            cache_bytes=1 << 32,
            assignment="static",
            n_encode_workers=3,
        )
        return simulate_fleet(
            sessions, topology=topology, sr_cache="per-edge"
        )

    def test_history_independence(self):
        """One controller object driving the same 48-viewer two-edge fleet
        twice gives the same run both times, and a fresh object's run."""
        def fresh():
            return ContinuousMPC(
                SRQualityModel(), QoEModel(), sr_lat(), n_grid=8, horizon=2
            )

        used = fresh()
        first = self.run_fleet(used)
        second = self.run_fleet(used)
        assert_same_run(first, second)
        assert_same_run(first, self.run_fleet(fresh()))
        assert used.decide_rows == 2 * 48 * 6


class TestGridPolicyChunkCache:
    """The rule-based zoo caches per-chunk bit sizes by the chunk's
    *value*: an ``id()`` key outlives its chunk, and CPython builds the
    next chunk at the dead one's address."""

    @pytest.mark.parametrize("name", ["bola", "throughput"])
    def test_reused_address_does_not_replay_a_dead_chunks_sizes(self, name):
        policy = get_policy(name, n_grid=8)
        # One point per frame: BOLA's score is free of the size scale
        # except for the chunk header, so only a header-dominated stale
        # entry can move its pick.
        chunks = [ChunkSpec(0, 30, 1, 1.0)]
        policy.decide(AbrContext(20e6, 1.0, None, chunks))
        # Nothing but the chunk is freed and nothing else allocated in
        # between, so the new object lands where the old one was.
        chunks.clear()
        chunks.append(ChunkSpec(0, 30, 2_000_000, 1.0))
        ctx = AbrContext(20e6, 1.0, None, chunks)
        fresh = get_policy(name, n_grid=8).decide(ctx)
        assert fresh == Decision(density=0.125, sr_ratio=8.0)
        assert policy.decide(ctx) == fresh
        assert policy.decide_batch([ctx, ctx]) == [fresh, fresh]


ZOO_FACTORIES = {
    "bola": lambda: get_policy("bola", n_grid=12),
    "bola-coarse": lambda: get_policy("bola", n_grid=7),
    "throughput": lambda: get_policy("throughput", n_grid=12),
    "buffer-linear": lambda: get_policy("buffer-linear"),
}


class TestZooScalarVectorParity:
    """Policy-zoo entry of the oracle-parity convention: batch
    composition is invisible (``decide_batch`` agrees with its own
    one-row calls on every grid context), and each rule equals an
    independent first-principles re-derivation of its formula."""

    @pytest.mark.parametrize("name", sorted(ZOO_FACTORIES))
    def test_decide_batch_matches_decide(self, name):
        policy = ZOO_FACTORIES[name]()
        ctxs = [make_ctx(t, b, p) for t, b, p in CTX_GRID]
        # Mixed-video batches: more chunk shapes in the same call.
        ctxs += [
            make_ctx(40.0, 1.0, 0.5, n_chunks=1, points=40_000),
            make_ctx(3.0, 9.0, None, n_chunks=2, points=40_000),
        ]
        batch = policy.decide_batch(ctxs)
        singles = [policy.decide(c) for c in ctxs]
        assert len(batch) == len(singles)
        for a, b in zip(batch, singles):
            assert abs(a.density - b.density) <= ATOL
            assert abs(a.sr_ratio - b.sr_ratio) <= ATOL

    def test_bola_matches_first_principles(self):
        """An independent re-derivation of the BOLA objective picks the
        same candidate — the implementation is the formula, not a
        coincidence of its own arrays."""
        policy = get_policy("bola", n_grid=12)
        qm = policy.quality_model
        c = policy.candidates
        q = np.array([qm.quality(d, qm.sr_ratio_for(d)) for d in c.tolist()])
        u = np.log(q) - np.log(q[0])
        v = BOLA_BUFFER_TARGET / (u[-1] + BOLA_GAMMA_P)
        for tput, buf, prev in CTX_GRID:
            ctx = make_ctx(tput, buf, prev)
            chunk = ctx.next_chunks[0]
            bits = np.array([chunk.bytes_at_density(d) for d in c.tolist()]) * 8.0
            scores = (v * (u + BOLA_GAMMA_P) - buf) / bits
            expected = float(c[int(np.argmax(scores))])
            assert policy.decide(ctx).density == pytest.approx(
                expected, abs=ATOL
            )

    def test_throughput_matches_first_principles(self):
        policy = get_policy("throughput", n_grid=12)
        c = policy.candidates
        for tput, buf, prev in CTX_GRID:
            ctx = make_ctx(tput, buf, prev)
            chunk = ctx.next_chunks[0]
            bits = [chunk.bytes_at_density(d) * 8.0 for d in c.tolist()]
            feasible = [
                i for i in range(len(c))
                if bits[i] <= ctx.throughput_bps * 0.9 * chunk.duration
            ]
            expected = float(c[feasible[-1]]) if feasible else float(c[0])
            assert policy.decide(ctx).density == pytest.approx(
                expected, abs=ATOL
            )

    @given(
        tput=st.floats(0.5, 1000.0),
        buf=st.floats(0.0, 12.0),
        points=st.integers(1_000, 300_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_parity(self, tput, buf, points):
        for name in ("bola", "throughput"):
            policy = ZOO_FACTORIES[name]()
            ctx = make_ctx(tput, buf, None, points=points)
            batched = policy.decide_batch([ctx, ctx, ctx])
            single = policy.decide(ctx)
            for d in batched:
                assert abs(d.density - single.density) <= ATOL


class TestBatchHelpers:
    """The tensor oracle's horizon sum agrees with the scalar loop."""

    def test_plan_values_matches_plan_value(self):
        """The tensor planner's stall sum against the scalar loop, one
        quality per plan: the scalar loop sees it as ``[q] * H``."""
        model = QoEModel(QoEWeights(alpha=1.1, beta=0.6, gamma=2.5))
        rng = np.random.default_rng(0)
        qualities = rng.uniform(0.0, 1.0, 7)
        stalls = rng.uniform(0.0, 2.0, (5, 7))
        later = model.first_chunk_values(qualities)
        for prev in (None, 0.4):
            first = model.first_chunk_values(qualities, prev)
            vec = reference_planner.horizon_values(model, first, later, stalls)
            assert vec.shape == (7,)
            for j in range(7):
                ref = reference_planner.plan_value(
                    model, [qualities[j]] * 5, list(stalls[:, j]), prev
                )
                assert vec[j] == pytest.approx(ref, abs=1e-12)

    def test_plan_values_broadcasts_sessions_against_candidates(self):
        """The tensor planner's call: ``(N, C)`` first-chunk rows stacked
        from ``(1, C)`` ones, a ``(1, C)`` later row and ``(H, N, C)``
        stalls."""
        model = QoEModel(QoEWeights(alpha=0.9, beta=0.8, gamma=1.5, drop_multiplier=3.0))
        rng = np.random.default_rng(1)
        qualities = rng.uniform(0.0, 1.0, 4)
        stalls = rng.uniform(0.0, 2.0, (3, 2, 4))
        prevs = (None, 0.6)
        first = np.concatenate(
            [model.first_chunk_values(qualities[None, :], p) for p in prevs]
        )
        later = model.first_chunk_values(qualities[None, :])
        out = reference_planner.horizon_values(model, first, later, stalls)
        assert out.shape == (2, 4)
        for n, p in enumerate(prevs):
            np.testing.assert_array_equal(
                out[n],
                reference_planner.horizon_values(
                    model,
                    model.first_chunk_values(qualities, p),
                    model.first_chunk_values(qualities),
                    stalls[:, n],
                ),
            )
            for c in range(4):
                ref = reference_planner.plan_value(
                    model, [qualities[c]] * 3, list(stalls[:, n, c]), p
                )
                assert out[n, c] == pytest.approx(ref, abs=1e-12)

    def test_first_chunk_row_of_no_previous_chunk_is_the_later_row(self):
        """``prev=None`` plans no variation: the row is ``α·q``, the value
        every later chunk adds before its stall."""
        model = QoEModel(QoEWeights(alpha=1.7))
        q = np.array([0.5, 0.25])
        np.testing.assert_array_equal(model.first_chunk_values(q), 1.7 * q)
        ref = reference_planner.plan_value
        first = model.first_chunk_values(q, 1.0)
        out = reference_planner.horizon_values(
            model, first, model.first_chunk_values(q), np.zeros((1, 2))
        )
        assert out[0] == pytest.approx(ref(model, [0.5], [0.0], 1.0))
        assert out[1] == pytest.approx(ref(model, [0.25], [0.0], 1.0))


class TestPlannedQIsScoredQ:
    """Every production grid plans with the Q the session scores:
    ``SessionMachine`` prices a chunk with ``quality(density, sr_ratio)``,
    and each controller's per-candidate Q and SR ratio are that call's
    floats, compared with ``==``.  (An array ``np.power`` over the grid
    and the scalar ``pow`` can part by one ulp, depending on the build's
    SIMD, so a quality computed any other way may plan a Q no session
    ever scores.)"""

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("continuous-mpc", {"n_grid": 16}),
            ("continuous-mpc", {"n_grid": 64}),
            ("discrete-mpc", {}),
            ("bola", {}),
            ("throughput", {}),
        ],
        ids=["continuous-16", "continuous-64", "discrete", "bola", "throughput"],
    )
    def test_planned_q_equals_scored_q(self, name, kwargs):
        policy = get_policy(name, **kwargs)
        qm = policy.quality_model
        for c, d in enumerate(policy.candidates.tolist()):
            if isinstance(policy, (ContinuousMPC, DiscreteMPC)):
                decision = policy._decisions[c]
            else:
                decision = policy._decision_for(c)
            assert decision.density == d
            assert decision.sr_ratio == qm.sr_ratio_for(d)
            assert policy._qualities[c] == qm.quality(d, qm.sr_ratio_for(d))
