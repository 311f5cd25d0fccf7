"""Optimizer for the NumPy network substrate.

:class:`Adam` updates in place through buffers allocated once, in its
predecessor's exact operation order — ``m = β₁·m + (1−β₁)·g``,
``v = β₂·v + ((1−β₂)·g)·g``, then ``p -= (lr·(m/b1t)) / (sqrt(v/b2t) + eps)``
— so every update is bit-identical to the allocating per-array form.
:class:`~repro.nn.trainer.Trainer` hands it an :class:`~repro.nn.mlp.MLP`'s
two flat arrays, so one step is a handful of whole-network ufunc calls.
"""

from __future__ import annotations

import math

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
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"learning rate lr must be finite and positive, got {lr}")
        for name, beta in (("beta1", beta1), ("beta2", beta2)):
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {beta}")
        if not (math.isfinite(eps) and eps > 0):
            raise ValueError(f"eps must be finite and positive, got {eps}")
        self.params = params
        self.grads = grads
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = float(beta1), float(beta2), float(eps)
        self._m = [np.zeros_like(p) for p in params]
        self._v = [np.zeros_like(p) for p in params]
        self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1t = 1.0 - self.beta1 ** self._t
        b2t = 1.0 - self.beta2 ** self._t
        for p, g, m, v, (a, d) in zip(self.params, self.grads, self._m, self._v, self._scratch):
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=a)
            m += a
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=a)
            a *= g
            v += a
            np.divide(m, b1t, out=a)
            a *= self.lr
            np.divide(v, b2t, out=d)
            np.sqrt(d, out=d)
            d += self.eps
            a /= d
            p -= a
