"""Training loop tests: convergence, noise injection, config validation."""

import numpy as np
import pytest

from repro.nn import MLP, TrainConfig, Trainer


def toy_regression(n=400, seed=0):
    """y = Ax + b with a little structure — learnable by a small MLP."""
    g = np.random.default_rng(seed)
    X = g.uniform(-1, 1, (n, 3))
    A = np.array([[1.0, -0.5, 0.2], [0.3, 0.8, -0.1]]).T
    Y = X @ A + 0.1 * np.sin(3 * X[:, :2])
    return X, Y


class TestFit:
    def test_loss_decreases(self):
        X, Y = toy_regression()
        net = MLP((3, 16, 2), output_activation=None, seed=0)
        result = Trainer(net, TrainConfig(epochs=30, lr=5e-3, seed=0)).fit(X, Y)
        assert result.final_loss < result.epoch_losses[0] * 0.5

    def test_fits_linear_map_well(self):
        X, Y = toy_regression()
        net = MLP((3, 32, 2), output_activation=None, seed=0)
        result = Trainer(net, TrainConfig(epochs=80, lr=5e-3, seed=0)).fit(X, Y)
        assert result.final_loss < 0.01

    def test_reproducible(self):
        X, Y = toy_regression()
        r1 = Trainer(MLP((3, 8, 2), seed=1), TrainConfig(epochs=5, seed=7)).fit(X, Y)
        r2 = Trainer(MLP((3, 8, 2), seed=1), TrainConfig(epochs=5, seed=7)).fit(X, Y)
        assert r1.epoch_losses == r2.epoch_losses

    def test_noise_injection_changes_training(self):
        X, Y = toy_regression()
        base = Trainer(MLP((3, 8, 2), seed=1), TrainConfig(epochs=5, seed=7)).fit(X, Y)
        noisy = Trainer(
            MLP((3, 8, 2), seed=1), TrainConfig(epochs=5, seed=7, noise_sigma=0.02)
        ).fit(X, Y)
        assert base.epoch_losses != noisy.epoch_losses

    def test_noise_improves_quantized_input_robustness(self):
        """The paper's rationale: σ=0.02 noise → robustness to quantization."""
        X, Y = toy_regression(n=800)
        clean_net = MLP((3, 24, 2), output_activation=None, seed=2)
        noisy_net = MLP((3, 24, 2), output_activation=None, seed=2)
        Trainer(clean_net, TrainConfig(epochs=60, lr=5e-3, seed=0)).fit(X, Y)
        Trainer(
            noisy_net, TrainConfig(epochs=60, lr=5e-3, seed=0, noise_sigma=0.05)
        ).fit(X, Y)
        # Evaluate both on coarsely quantized inputs.
        Xq = np.round(X * 8) / 8
        err_clean = float(np.mean((clean_net.forward(Xq) - Y) ** 2))
        err_noisy = float(np.mean((noisy_net.forward(Xq) - Y) ** 2))
        assert err_noisy < err_clean * 1.25  # at least comparable, usually better

    def test_empty_dataset_rejected(self):
        net = MLP((3, 4, 2), seed=0)
        with pytest.raises(ValueError, match="empty"):
            Trainer(net).fit(np.zeros((0, 3)), np.zeros((0, 2)))

    def test_mismatched_rows_rejected(self):
        net = MLP((3, 4, 2), seed=0)
        with pytest.raises(ValueError, match="same number"):
            Trainer(net).fit(np.zeros((5, 3)), np.zeros((4, 2)))

    def test_final_loss_requires_epochs(self):
        from repro.nn import TrainResult

        with pytest.raises(ValueError):
            TrainResult().final_loss


class TestValidation:
    @pytest.mark.parametrize("kwargs,field", [
        ({"batch_size": 0}, "batch_size"),
        ({"batch_size": -4}, "batch_size"),
        ({"epochs": -3}, "epochs"),
        ({"epochs": 0}, "epochs"),
        ({"lr": float("nan")}, "lr"),
        ({"lr": 0.0}, "lr"),
        ({"noise_sigma": float("nan")}, "noise_sigma"),
        ({"noise_sigma": float("inf")}, "noise_sigma"),
        ({"noise_sigma": -0.02}, "noise_sigma"),
        ({"log_every": -1}, "log_every"),
    ])
    def test_degenerate_config_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**kwargs)

    def test_non_finite_inputs_rejected_naming_the_row(self):
        """A NaN input trained a NaN first layer while the losses stayed finite."""
        X, Y = toy_regression(n=20)
        X[7, 1] = np.nan
        with pytest.raises(ValueError, match="X row 7 is not finite"):
            Trainer(MLP((3, 4, 2), seed=0), TrainConfig(epochs=1)).fit(X, Y)

    def test_non_finite_targets_rejected_naming_the_row(self):
        X, Y = toy_regression(n=20)
        Y[2, 0] = np.inf
        with pytest.raises(ValueError, match="Y row 2 is not finite"):
            Trainer(MLP((3, 4, 2), seed=0), TrainConfig(epochs=1)).fit(X, Y)

    def test_rejected_data_leaves_the_net_untouched(self):
        X, Y = toy_regression(n=20)
        X[0, 0] = -np.inf
        net = MLP((3, 4, 2), seed=0)
        before = [p.copy() for p in net.params()]
        with pytest.raises(ValueError):
            Trainer(net, TrainConfig(epochs=1)).fit(X, Y)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, net.params()))
