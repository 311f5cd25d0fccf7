"""Optimizer for the NumPy network substrate."""

from __future__ import annotations

import numpy as np

__all__ = ["Adam"]


class Adam:
    """Adam (Kingma & Ba) with bias correction.

    Updates a flat list of (param, grad) array pairs in place.
    """

    def __init__(
        self,
        params: list[np.ndarray],
        grads: list[np.ndarray],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if len(params) != len(grads):
            raise ValueError("params and grads must pair up")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = params
        self.grads = grads
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = float(beta1), float(beta2), float(eps)
        self._m = [np.zeros_like(p) for p in params]
        self._v = [np.zeros_like(p) for p in params]
        self._t = 0

    def zero_grad(self) -> None:
        for g in self.grads:
            g[...] = 0.0

    def step(self) -> None:
        self._t += 1
        b1t = 1.0 - self.beta1 ** self._t
        b2t = 1.0 - self.beta2 ** self._t
        for p, g, m, v in zip(self.params, self.grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
