"""Loss value + gradient tests."""

import numpy as np
import pytest

from repro.nn import mse_loss
from tests.nn.test_layers import numeric_grad


class TestMSE:
    def test_value(self):
        loss, _ = mse_loss(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        assert loss == pytest.approx(2.5)

    def test_zero_at_match(self):
        x = np.ones((3, 2))
        loss, grad = mse_loss(x, x)
        assert loss == 0.0 and np.allclose(grad, 0.0)

    def test_gradient_numeric(self):
        g = np.random.default_rng(0)
        pred = g.normal(size=(4, 3))
        target = g.normal(size=(4, 3))
        _, grad = mse_loss(pred, target)
        num = numeric_grad(lambda: mse_loss(pred, target)[0], pred)
        assert np.allclose(grad, num, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("shape", [(5,), (2, 3), (2, 3, 4)])
    def test_any_shape_averages_every_element(self, shape):
        g = np.random.default_rng(len(shape))
        pred, target = g.normal(size=shape), g.normal(size=shape)
        loss, grad = mse_loss(pred, target)
        assert grad.shape == shape
        assert loss == pytest.approx(((pred - target) ** 2).sum() / pred.size)

    def test_value_symmetric_gradient_antisymmetric(self):
        g = np.random.default_rng(3)
        a, b = g.normal(size=(4, 3)), g.normal(size=(4, 3))
        (lab, gab), (lba, gba) = mse_loss(a, b), mse_loss(b, a)
        assert lab == lba
        assert np.array_equal(gab, -gba)

    def test_accepts_integer_lists(self):
        loss, grad = mse_loss([1, 2, 3], [1, 2, 5])
        assert loss == pytest.approx(4 / 3)
        assert grad.dtype == np.float64
        assert grad.tolist() == pytest.approx([0.0, 0.0, -4 / 3])

    def test_mean_not_sum(self):
        """Repeating the batch keeps the loss and halves each gradient."""
        g = np.random.default_rng(4)
        pred, target = g.normal(size=(3, 2)), g.normal(size=(3, 2))
        loss1, grad1 = mse_loss(pred, target)
        loss2, grad2 = mse_loss(np.vstack([pred, pred]), np.vstack([target, target]))
        assert loss2 == pytest.approx(loss1)
        assert np.allclose(grad2[:3], 0.5 * grad1)
