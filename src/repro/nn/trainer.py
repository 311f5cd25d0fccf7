"""Mini-batch training loop for the NumPy MLP."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .loss import mse_loss
from .mlp import MLP
from .optim import Adam

__all__ = ["TrainConfig", "TrainResult", "Trainer"]

LossFn = Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]]


@dataclass
class TrainConfig:
    """Hyper-parameters for :class:`Trainer`.

    ``noise_sigma`` implements the paper's Gaussian-noise injection
    (σ = 0.02, §4.2.2): inputs are perturbed during training so the learned
    function is robust to LUT quantization error.
    """

    epochs: int = 50
    batch_size: int = 256
    lr: float = 1e-3
    noise_sigma: float = 0.0
    shuffle: bool = True
    seed: int = 0
    log_every: int = 0  # 0 = silent
    log_fn: Callable[[str], None] = print  # sink for log_every lines

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(
                f"noise_sigma must be finite and non-negative, got {self.noise_sigma}"
            )
        if self.log_every < 0:
            raise ValueError(f"log_every must be non-negative, got {self.log_every}")


@dataclass
class TrainResult:
    """Loss trajectory of one training run."""

    epoch_losses: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        if not self.epoch_losses:
            raise ValueError("no epochs were run")
        return self.epoch_losses[-1]


class Trainer:
    """Trains an :class:`MLP` on an in-memory (X, Y) dataset with Adam."""

    def __init__(self, model: MLP, config: TrainConfig | None = None,
                 loss_fn: LossFn = mse_loss):
        self.model = model
        self.config = config or TrainConfig()
        self.loss_fn = loss_fn
        self.optimizer = Adam([model.flat_params], [model.flat_grads], lr=self.config.lr)

    def fit(self, X: np.ndarray, Y: np.ndarray) -> TrainResult:
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        if len(X) != len(Y):
            raise ValueError("X and Y must have the same number of rows")
        if len(X) == 0:
            raise ValueError("empty training set")
        _require_finite(X, "X")
        _require_finite(Y, "Y")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        result = TrainResult()
        n = len(X)
        for epoch in range(cfg.epochs):
            order = rng.permutation(n) if cfg.shuffle else np.arange(n)
            total, seen = 0.0, 0
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                xb = X[idx]
                if cfg.noise_sigma > 0:
                    xb += rng.normal(0.0, cfg.noise_sigma, xb.shape)
                yb = Y[idx]
                pred = self.model.forward(xb)
                loss, grad = self.loss_fn(pred, yb)
                self.model.zero_grad()
                self.model.backward(grad)
                self.optimizer.step()
                total += loss * len(idx)
                seen += len(idx)
            epoch_loss = total / seen
            result.epoch_losses.append(epoch_loss)
            if cfg.log_every and (epoch + 1) % cfg.log_every == 0:
                cfg.log_fn(f"epoch {epoch + 1:4d}  loss {epoch_loss:.6f}")
        return result


def _require_finite(a: np.ndarray, what: str) -> None:
    """``ValueError`` naming the first row of ``a`` holding a NaN or inf:
    a NaN input trains NaN weights while ReLU hides it from the loss."""
    finite = np.isfinite(a)
    if not finite.all():
        row = int(np.argmin(finite.reshape(len(a), -1).all(axis=1)))
        raise ValueError(f"{what} row {row} is not finite: {a[row].tolist()}")
