"""Layer forward/backward correctness, including numeric gradient checks."""

import numpy as np
import pytest

from repro.nn import Linear, ReLU, Tanh


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = f()
        flat[i] = old - eps
        lo = f()
        flat[i] = old
        gf[i] = (hi - lo) / (2 * eps)
    return g


class TestLinear:
    def test_forward_shape_and_value(self):
        lin = Linear(3, 2, rng=np.random.default_rng(0))
        lin.W[:] = np.arange(6).reshape(3, 2)
        lin.b[:] = [1.0, -1.0]
        x = np.array([[1.0, 0.0, 2.0]])
        y = lin.forward(x)
        assert y.shape == (1, 2)
        assert np.allclose(y, x @ lin.W + lin.b)

    def test_input_gradient_matches_numeric(self):
        g = np.random.default_rng(1)
        lin = Linear(4, 3, rng=g)
        x = g.normal(size=(5, 4))
        y = lin.forward(x)
        loss_grad = np.ones_like(y)

        def loss():
            return float(lin.forward(x).sum())

        dx = lin.backward(loss_grad)
        dx_num = numeric_grad(loss, x)
        assert np.allclose(dx, dx_num, atol=1e-5)

    def test_weight_gradient_matches_numeric(self):
        g = np.random.default_rng(2)
        lin = Linear(3, 2, rng=g)
        x = g.normal(size=(4, 3))

        def loss():
            return float(lin.forward(x).sum())

        lin.forward(x)
        lin.backward(np.ones((4, 2)))
        dW_num = numeric_grad(loss, lin.W)
        db_num = numeric_grad(loss, lin.b)
        assert np.allclose(lin.dW, dW_num, atol=1e-5)
        assert np.allclose(lin.db, db_num, atol=1e-5)

    def test_grad_accumulates_across_backward_calls(self):
        g = np.random.default_rng(3)
        lin = Linear(2, 2, rng=g)
        x = g.normal(size=(3, 2))
        lin.forward(x)
        lin.backward(np.ones((3, 2)))
        first = lin.dW.copy()
        lin.forward(x)
        lin.backward(np.ones((3, 2)))
        assert np.allclose(lin.dW, 2 * first)

    def test_backward_before_forward_raises(self):
        lin = Linear(2, 2)
        with pytest.raises(RuntimeError):
            lin.backward(np.ones((1, 2)))

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)


@pytest.mark.parametrize(
    "layer_cls,ref_fn",
    [
        (ReLU, lambda x: np.maximum(x, 0)),
        (Tanh, np.tanh),
    ],
)
class TestActivations:
    def test_forward(self, layer_cls, ref_fn):
        x = np.linspace(-2, 2, 11).reshape(1, -1)
        assert np.allclose(layer_cls().forward(x), ref_fn(x))

    def test_gradient_numeric(self, layer_cls, ref_fn):
        g = np.random.default_rng(4)
        # Keep away from the ReLU kink where numeric grads are undefined.
        x = g.normal(size=(3, 5))
        x[np.abs(x) < 1e-3] = 0.1
        layer = layer_cls()

        def loss():
            return float(ref_fn(x).sum())

        layer.forward(x)
        dx = layer.backward(np.ones_like(x))
        dx_num = numeric_grad(loss, x)
        assert np.allclose(dx, dx_num, atol=1e-5)

    def test_backward_before_forward(self, layer_cls, ref_fn):
        with pytest.raises(RuntimeError):
            layer_cls().backward(np.ones((1, 2)))
