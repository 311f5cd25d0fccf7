"""Loss function (value + gradient pair)."""

from __future__ import annotations

import numpy as np

__all__ = ["mse_loss"]


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all elements; returns (loss, dL/dpred)."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff ** 2))
    grad = (2.0 / diff.size) * diff
    return loss, grad
