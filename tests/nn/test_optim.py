"""Optimizer behaviour tests."""

import numpy as np
import pytest

from repro.nn import Adam


def quadratic_problem():
    """Minimize ||p - target||^2 for a single parameter array."""
    p = np.array([5.0, -3.0, 2.0])
    g = np.zeros_like(p)
    target = np.array([1.0, 1.0, 1.0])

    def compute_grad():
        g[...] = 2 * (p - target)

    return p, g, target, compute_grad


class TestAdam:
    def test_converges(self):
        p, g, target, grad = quadratic_problem()
        opt = Adam([p], [g], lr=0.1)
        for _ in range(500):
            grad()
            opt.step()
        assert np.allclose(p, target, atol=1e-3)

    def test_bias_correction_first_step(self):
        """First Adam step has magnitude ~lr regardless of grad scale."""
        for scale in (1e-3, 1.0, 1e3):
            p = np.array([0.0])
            g = np.array([scale])
            Adam([p], [g], lr=0.01).step()
            assert abs(p[0]) == pytest.approx(0.01, rel=1e-3)

    def test_handles_sparse_like_grads(self):
        p = np.zeros(3)
        g = np.zeros(3)
        opt = Adam([p], [g], lr=0.1)
        g[:] = [1.0, 0.0, 0.0]
        opt.step()
        assert p[0] != 0.0 and p[1] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Adam([np.zeros(1)], [np.zeros(1)], lr=0.0)
        with pytest.raises(ValueError):
            Adam([np.zeros(1)], [np.zeros(1), np.zeros(1)])

    def test_steps_follow_the_bias_corrected_rule(self):
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        p, g = np.array([1.0, -2.0]), np.zeros(2)
        opt = Adam([p], [g], lr=lr, beta1=b1, beta2=b2, eps=eps)
        want, m, v = p.copy(), np.zeros(2), np.zeros(2)
        for t, grad in enumerate(([0.5, -1.0], [0.2, 3.0], [-0.7, 0.1]), start=1):
            g[:] = grad
            opt.step()
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            want -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            assert np.allclose(p, want, rtol=0, atol=1e-15)

    def test_parameters_keep_separate_moments(self):
        """Each array moves against its own gradient only."""
        a, b = np.zeros(1), np.zeros(3)
        ga, gb = np.array([4.0]), np.array([-1e-3, 0.0, 2.0])
        Adam([a, b], [ga, gb], lr=0.1).step()
        assert a[0] == pytest.approx(-0.1, rel=1e-6)
        assert b.tolist() == pytest.approx([0.1, 0.0, -0.1], rel=1e-4)

    def test_zero_gradient_leaves_parameters_in_place(self):
        p, g = np.array([2.0, -1.0]), np.zeros(2)
        opt = Adam([p], [g], lr=0.5)
        for _ in range(3):
            opt.step()
        assert p.tolist() == [2.0, -1.0]

    def test_negative_learning_rate_rejected(self):
        with pytest.raises(ValueError, match="learning rate"):
            Adam([np.zeros(1)], [np.zeros(1)], lr=-0.1)

    @pytest.mark.parametrize("kwargs,field", [
        ({"lr": float("nan")}, "lr"),
        ({"lr": float("inf")}, "lr"),
        ({"beta1": 1.0}, "beta1"),
        ({"beta1": -0.1}, "beta1"),
        ({"beta1": float("nan")}, "beta1"),
        ({"beta2": 1.5}, "beta2"),
        ({"beta2": 1.0}, "beta2"),
        ({"eps": -1.0}, "eps"),
        ({"eps": 0.0}, "eps"),
        ({"eps": float("nan")}, "eps"),
        ({"eps": float("inf")}, "eps"),
    ])
    def test_weight_destroying_hyper_parameters_rejected(self, kwargs, field):
        """Each of these silently turned p = [1, 1] into NaN / -inf or kept a
        meaningless moment; now the constructor names the field."""
        with pytest.raises(ValueError, match=field):
            Adam([np.ones(2)], [np.ones(2)], **kwargs)

    def test_boundary_hyper_parameters_accepted(self):
        p, g = np.ones(2), np.ones(2)
        Adam([p], [g], lr=1e-12, beta1=0.0, beta2=0.0, eps=1e-300).step()
        assert np.isfinite(p).all()
