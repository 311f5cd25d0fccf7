"""QoE model tests (Eq. 10 semantics)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import (
    ChunkRecord,
    QoEModel,
    QoEWeights,
    aggregate_qoe,
    bootstrap_ci,
    session_qoe,
)
from tests.metrics.reference_qoe import chunk_qoe, session_sum, variation_term
from tests.streaming.reference_planner import horizon_values


class TestTerms:
    """Each Eq. 10 term, read off ``session`` with the other weights at 0."""

    def test_quality_term_scales_with_alpha(self):
        m = QoEModel(QoEWeights(alpha=2.0))
        assert m.session([ChunkRecord(quality=0.5)]) == 1.0

    def test_variation_first_chunk_free(self):
        m = QoEModel(QoEWeights(alpha=1.0, beta=5.0))
        assert m.session([ChunkRecord(quality=0.5)]) == 0.5

    def test_drops_penalized_more_than_rises(self):
        m = QoEModel(QoEWeights(alpha=0.0, beta=1.0, drop_multiplier=2.0))
        rise = -m.session([ChunkRecord(quality=0.5), ChunkRecord(quality=0.8)])
        drop = -m.session([ChunkRecord(quality=0.8), ChunkRecord(quality=0.5)])
        assert rise > 0 and drop == pytest.approx(2.0 * rise)

    def test_stall_term(self):
        m = QoEModel(QoEWeights(alpha=0.0, gamma=3.0))
        assert m.session([ChunkRecord(quality=0.5, stall=2.0)]) == -6.0

    def test_negative_stall_rejected(self):
        records = [ChunkRecord(quality=0.5), ChunkRecord(quality=0.5, stall=-1.0)]
        with pytest.raises(ValueError, match="stall must be non-negative"):
            QoEModel().session(records)


class TestWeights:
    """Eq. 10's weights are finite and non-negative: a negative γ would
    reward stalls, a NaN would score every session NaN.  Zero switches a
    term off and stays legal."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "drop_multiplier"])
    def test_refuses_a_non_finite_or_negative_weight(self, name, value):
        with pytest.raises(
            ValueError,
            match=rf"QoEWeights\.{name} must be finite and non-negative, got {value!r}$",
        ):
            QoEWeights(**{name: value})

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "drop_multiplier"])
    def test_a_zero_weight_is_legal(self, name):
        assert getattr(QoEWeights(**{name: 0.0}), name) == 0.0


unit = st.floats(0.0, 1.0)
weight = st.floats(0.0, 10.0)


class TestSessionOracle:
    """``session`` folds the records in one pass; the term-by-term sum of
    ``tests/metrics/reference_qoe.py`` is its oracle, with ``==``."""

    @given(
        st.lists(
            st.tuples(unit, st.one_of(st.just(0.0), st.floats(0.0, 30.0))),
            min_size=1, max_size=40,
        ),
        weight, weight, weight, st.floats(1.0, 5.0),
    )
    def test_equals_the_term_by_term_sum(self, rows, alpha, beta, gamma, drop):
        w = QoEWeights(alpha=alpha, beta=beta, gamma=gamma, drop_multiplier=drop)
        records = [ChunkRecord(quality=q, stall=s) for q, s in rows]
        assert QoEModel(w).session(records) == session_sum(w, records)

    @pytest.mark.parametrize(
        "qualities",
        [[0.7], [0.9, 0.4], [0.2, 0.6], [0.5, 0.5, 0.1, 0.8, 0.8]],
        ids=["one-record", "drop", "rise", "mixed"],
    )
    def test_fixed_sessions(self, qualities):
        w = QoEWeights(alpha=1.3, beta=0.7, gamma=2.0, drop_multiplier=3.0)
        records = [
            ChunkRecord(quality=q, stall=0.25 * (i % 2)) for i, q in enumerate(qualities)
        ]
        assert QoEModel(w).session(records) == session_sum(w, records)


class TestSession:
    def test_steady_session_sums_quality(self):
        m = QoEModel(QoEWeights(alpha=1.0, beta=0.5, gamma=2.0))
        records = [ChunkRecord(quality=0.8) for _ in range(10)]
        assert m.session(records) == pytest.approx(8.0)

    def test_stall_reduces_qoe(self):
        m = QoEModel()
        smooth = [ChunkRecord(quality=0.8) for _ in range(5)]
        stalled = [ChunkRecord(quality=0.8, stall=0.5 if i == 2 else 0.0) for i in range(5)]
        assert m.session(stalled) < m.session(smooth)

    def test_oscillation_worse_than_steady_mean(self):
        m = QoEModel()
        steady = [ChunkRecord(quality=0.6) for _ in range(10)]
        osc = [ChunkRecord(quality=0.8 if i % 2 else 0.4) for i in range(10)]
        assert m.session(osc) < m.session(steady)

    def test_plan_value_matches_session(self):
        """A plan holds one quality over its horizon: the planner oracle's
        stall sum over first-chunk rows is the session's Eq. 10."""
        m = QoEModel()
        stalls = [0.0, 0.1, 0.0]
        records = [ChunkRecord(quality=0.6, stall=s) for s in stalls]
        later = m.first_chunk_values(0.6)
        assert horizon_values(m, later, later, stalls) == pytest.approx(m.session(records))
        first = m.first_chunk_values(0.6, 0.9)
        assert horizon_values(m, first, later, stalls) == pytest.approx(
            m.session(records) - variation_term(m.weights, 0.6, 0.9)
        )

    def test_first_chunk_row_is_a_stall_free_chunk_qoe(self):
        """Same expressions as the per-chunk terms, so equal to the float."""
        m = QoEModel(QoEWeights(alpha=1.3, beta=0.7, gamma=2.0, drop_multiplier=3.0))
        q = np.array([0.1, 0.45, 0.6, 1.0])
        for prev in (None, 0.0, 0.45, 0.9, 1.0):
            row = m.first_chunk_values(q, prev)
            assert row.tolist() == [
                chunk_qoe(m.weights, ChunkRecord(quality=float(x)), prev) for x in q
            ]

    def test_plan_value_validation(self):
        m = QoEModel()
        row = m.first_chunk_values([0.5, 0.7, 0.6])
        with pytest.raises(ValueError):  # 3 plans against 4: no broadcast
            horizon_values(m, row, row, [[0.0] * 4, [0.1] * 4])
        with pytest.raises(ValueError, match="horizon axis"):
            horizon_values(m, 0.5, 0.5, 0.0)


class TestSessionQoE:
    def test_aggregates(self):
        records = [
            ChunkRecord(quality=0.5, stall=0.2, bytes_downloaded=100),
            ChunkRecord(quality=0.7, stall=0.0, bytes_downloaded=300),
        ]
        out = session_qoe(records)
        assert out["bytes"] == 400
        assert out["stall_seconds"] == pytest.approx(0.2)
        assert out["mean_quality"] == pytest.approx(0.6)
        assert out["n_chunks"] == 2

    def test_empty_session(self):
        out = session_qoe([])
        assert out["qoe"] == 0.0 and out["mean_quality"] == 0.0


class TestAggregateQoE:
    def test_population_statistics(self):
        qoes = list(range(101))  # 0..100: percentiles land on integers
        out = aggregate_qoe(qoes, [0.0] * 101, [10.0] * 101)
        assert out["mean_qoe"] == pytest.approx(50.0)
        assert out["p5_qoe"] == pytest.approx(5.0)
        assert out["p95_qoe"] == pytest.approx(95.0)
        assert out["stall_ratio"] == 0.0
        assert out["n_sessions"] == 101

    def test_stall_ratio_is_frozen_fraction_of_wall_clock(self):
        # 2 sessions, 10 s content each, 5 s total stall → 5 / 25.
        out = aggregate_qoe([1.0, 2.0], [2.0, 3.0], [10.0, 10.0])
        assert out["stall_ratio"] == pytest.approx(5.0 / 25.0)
        assert out["total_stall_seconds"] == pytest.approx(5.0)

    def test_single_session_degenerate_percentiles(self):
        out = aggregate_qoe([7.0], [0.0], [10.0])
        assert out["p5_qoe"] == out["mean_qoe"] == out["p95_qoe"] == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            aggregate_qoe([], [], [])
        with pytest.raises(ValueError):
            aggregate_qoe([1.0], [0.0, 0.0], [10.0])
        with pytest.raises(ValueError):
            aggregate_qoe([1.0], [-0.1], [10.0])
        with pytest.raises(ValueError):
            aggregate_qoe([1.0], [0.0], [0.0])


class TestBootstrapCI:
    def test_deterministic_given_seed(self):
        values = [float(v) for v in range(40)]
        assert bootstrap_ci(values, seed=7) == bootstrap_ci(values, seed=7)
        assert bootstrap_ci(values, seed=7) != bootstrap_ci(values, seed=8)

    def test_interval_brackets_the_mean(self):
        values = [float(v) for v in range(200)]
        lo, hi = bootstrap_ci(values, n_boot=500)
        mean = sum(values) / len(values)
        assert lo < mean < hi

    def test_wider_confidence_is_wider(self):
        values = [float(v % 17) for v in range(60)]
        lo99, hi99 = bootstrap_ci(values, confidence=0.99)
        lo90, hi90 = bootstrap_ci(values, confidence=0.90)
        assert hi99 - lo99 >= hi90 - lo90

    def test_constant_sample_collapses(self):
        lo, hi = bootstrap_ci([3.0] * 25)
        assert lo == hi == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=1.0)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], n_boot=0)
