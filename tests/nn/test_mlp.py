"""MLP composition and gradient flow."""

import numpy as np
import pytest

from repro.nn import MLP, Linear
from tests.nn.test_layers import numeric_grad


class TestForward:
    def test_shapes(self):
        net = MLP((4, 8, 3), seed=0)
        y = net.forward(np.zeros((5, 4)))
        assert y.shape == (5, 3)

    def test_1d_input_squeezed(self):
        net = MLP((4, 8, 3), seed=0)
        y = net.forward(np.zeros(4))
        assert y.shape == (3,)

    def test_wrong_input_dim(self):
        net = MLP((4, 8, 3), seed=0)
        with pytest.raises(ValueError, match="input dim"):
            net.forward(np.zeros((2, 5)))

    def test_tanh_output_bounded(self):
        net = MLP((4, 16, 3), output_activation="tanh", seed=0)
        y = net.forward(np.random.default_rng(0).normal(0, 100, (20, 4)))
        assert (np.abs(y) <= 1.0).all()

    def test_no_output_activation_unbounded(self):
        net = MLP((1, 1), output_activation=None, seed=0)
        net.layers[0].W[:] = 100.0
        net.layers[0].b[:] = 0.0
        assert net.forward(np.array([[10.0]]))[0, 0] == pytest.approx(1000.0)

    def test_callable_alias(self):
        net = MLP((2, 2), seed=0)
        x = np.ones((1, 2))
        assert np.allclose(net(x), net.forward(x))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            MLP((4,))
        with pytest.raises(ValueError):
            MLP((4, 2), activation="selu")
        with pytest.raises(ValueError):
            MLP((4, 2), output_activation="softmax")


class TestBackward:
    def test_full_network_gradient_check(self):
        net = MLP((3, 6, 2), activation="tanh", output_activation=None, seed=1)
        g = np.random.default_rng(5)
        x = g.normal(size=(4, 3))

        def loss():
            return float((net.forward(x) ** 2).sum())

        y = net.forward(x)
        net.zero_grad()
        net.backward(2 * y)
        linears = [layer for layer in net.layers if isinstance(layer, Linear)]
        for lin in linears:
            for p, grad in ((lin.W, lin.dW), (lin.b, lin.db)):
                num = numeric_grad(loss, p)
                assert np.allclose(grad, num, atol=1e-4), "parameter gradient mismatch"

    def test_n_parameters(self):
        net = MLP((3, 8, 2), seed=0)
        assert net.flat_params.size == 3 * 8 + 8 + 8 * 2 + 2

    def test_seed_reproducible(self):
        a = MLP((4, 8, 2), seed=42)
        b = MLP((4, 8, 2), seed=42)
        x = np.ones((2, 4))
        assert np.allclose(a.forward(x), b.forward(x))
