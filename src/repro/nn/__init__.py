"""From-scratch NumPy neural-network substrate (no PyTorch available)."""

from .layers import Layer, LeakyReLU, Linear, ReLU, Tanh
from .loss import mse_loss
from .mlp import MLP
from .optim import Adam
from .trainer import TrainConfig, Trainer, TrainResult

__all__ = [
    "Layer",
    "Linear",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "MLP",
    "mse_loss",
    "Adam",
    "Trainer",
    "TrainConfig",
    "TrainResult",
]
