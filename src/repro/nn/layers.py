"""Minimal neural-network layers with manual backprop.

The environment has no PyTorch, so the GradPU-style refinement network is
implemented directly in NumPy.  The scope is deliberately small: dense
layers and smooth activations are all the refinement MLP needs, and every
layer implements the same ``forward``/``backward`` contract so they compose
into :class:`repro.nn.mlp.MLP`.

Shapes follow the (batch, features) convention throughout.

Kernel rules — each forward pays for its arithmetic, not for NumPy's slow
paths around it:

* :class:`ReLU` is ``np.fmax(x, 0.0)`` followed by an in-place ``+= 0.0``,
  bit for bit ``np.where(x > 0, x, 0.0)`` at a fraction of the masked
  select's cost: ``fmax`` maps NaN to 0 as the select does, and ``+ 0.0``
  turns the ``-0.0`` that ``fmax(-0.0, 0.0)`` may return into ``+0.0``.
* :class:`Linear` adds its bias in place to the matmul's output instead of
  allocating a second array for ``x @ W + b``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Layer", "Linear", "ReLU", "Tanh"]


class Layer:
    """Base class: a differentiable map with cached forward state."""

    #: list of (param, grad) array pairs, filled by subclasses
    def params(self) -> list[np.ndarray]:
        return []

    def grads(self) -> list[np.ndarray]:
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Given dL/d(output), accumulate parameter grads, return dL/d(input)."""
        raise NotImplementedError

    def zero_grad(self) -> None:
        for g in self.grads():
            g[...] = 0.0


class Linear(Layer):
    """Affine layer ``y = x W + b`` with He/Xavier-style init."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None = None):
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("layer dimensions must be positive")
        g = rng if rng is not None else np.random.default_rng()
        scale = np.sqrt(2.0 / (in_dim + out_dim))
        self.W = g.normal(0.0, scale, (in_dim, out_dim))
        self.b = np.zeros(out_dim)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    def params(self) -> list[np.ndarray]:
        return [self.W, self.b]

    def grads(self) -> list[np.ndarray]:
        return [self.dW, self.db]

    def adopt(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Move ``W`` / ``b`` and their gradients into views of the flat
        slices ``params`` / ``grads`` (``W`` then ``b``, ``W.size + b.size``
        each), copying the current values across."""
        n = self.W.size
        W, dW = params[:n].reshape(self.W.shape), grads[:n].reshape(self.W.shape)
        b, db = params[n:], grads[n:]
        W[...], b[...], dW[...], db[...] = self.W, self.b, self.dW, self.db
        self.W, self.b, self.dW, self.db = W, b, dW, db

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        y = x @ self.W
        y += self.b
        return y

    def accumulate_grads(self, grad_out: np.ndarray) -> None:
        """Accumulate ``dW`` / ``db`` only — the first layer of a net has
        no consumer for its input gradient."""
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.dW += self._x.T @ grad_out
        self.db += grad_out.sum(axis=0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.accumulate_grads(grad_out)
        return grad_out @ self.W.T


class ReLU(Layer):
    """Rectified linear activation (``fmax`` form; see the module notes)."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        y = np.fmax(x, 0.0)
        y += 0.0
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask


class Tanh(Layer):
    """Hyperbolic-tangent activation.

    Used as the output squashing of the refinement net: offsets live in a
    normalized unit-cube frame, so bounding the prediction to (-1, 1) keeps
    the LUT's value range compatible with float16 storage.
    """

    def __init__(self) -> None:
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._y ** 2)
