"""From-scratch NumPy neural-network substrate (no PyTorch available)."""

from .layers import Layer, Linear, ReLU, Tanh
from .loss import mse_loss
from .mlp import MLP
from .optim import Adam
from .trainer import TrainConfig, Trainer, TrainResult

__all__ = [
    "Layer",
    "Linear",
    "ReLU",
    "Tanh",
    "MLP",
    "mse_loss",
    "Adam",
    "Trainer",
    "TrainConfig",
    "TrainResult",
]
