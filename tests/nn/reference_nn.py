"""The training kernels production replaced — test oracles.

Four pieces of the NumPy substrate as they stood before the training step
stopped taking NumPy's slow paths, copied verbatim:

* the ``np.where`` ReLU forward (:class:`ReferenceReLU`);
* the allocating ``x @ W + b`` Linear forward (:class:`ReferenceLinear`);
* the per-array Adam step with its temporaries (:class:`ReferenceAdam`);
* the full MLP backward, first layer's input gradient included
  (:meth:`ReferenceMLP.backward`).

:func:`reference_fit` is the mini-batch loop those pieces ran in.  Weight
initialisation draws from the generator in the same order as
:class:`repro.nn.MLP`, so one seed gives both nets the same start.  Only the
unchanged ``mse_loss`` is imported from ``repro``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.loss import mse_loss


def reference_relu(x):
    return np.where(x > 0, x, 0.0)


class ReferenceLinear:
    def __init__(self, in_dim, out_dim, rng):
        scale = np.sqrt(2.0 / (in_dim + out_dim))
        self.W = rng.normal(0.0, scale, (in_dim, out_dim))
        self.b = np.zeros(out_dim)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x = None

    def forward(self, x):
        self._x = x
        return x @ self.W + self.b

    def backward(self, grad_out):
        self.dW += self._x.T @ grad_out
        self.db += grad_out.sum(axis=0)
        return grad_out @ self.W.T


class ReferenceReLU:
    def forward(self, x):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out):
        return grad_out * self._mask


class ReferenceTanh:
    def forward(self, x):
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad_out):
        return grad_out * (1.0 - self._y ** 2)


class ReferenceMLP:
    """``MLP(dims, activation="relu", output_activation="tanh", seed=seed)``."""

    def __init__(self, dims, seed):
        rng = np.random.default_rng(seed)
        self.layers = []
        for i in range(len(dims) - 1):
            self.layers.append(ReferenceLinear(dims[i], dims[i + 1], rng))
            if i < len(dims) - 2:
                self.layers.append(ReferenceReLU())
        self.layers.append(ReferenceTanh())

    def params(self):
        return [a for lay in self.layers if isinstance(lay, ReferenceLinear)
                for a in (lay.W, lay.b)]

    def grads(self):
        return [a for lay in self.layers if isinstance(lay, ReferenceLinear)
                for a in (lay.dW, lay.db)]

    def zero_grad(self):
        for g in self.grads():
            g[...] = 0.0

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out):
        g = np.asarray(grad_out, dtype=np.float64)
        for layer in reversed(self.layers):
            g = layer.backward(g)
        return g


class ReferenceAdam:
    def __init__(self, params, grads, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.grads = params, grads
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self._m = [np.zeros_like(p) for p in params]
        self._v = [np.zeros_like(p) for p in params]
        self._t = 0

    def step(self):
        self._t += 1
        b1t = 1.0 - self.beta1 ** self._t
        b2t = 1.0 - self.beta2 ** self._t
        for p, g, m, v in zip(self.params, self.grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def reference_fit(net, X, Y, *, epochs, batch_size, lr, noise_sigma, seed):
    """``Trainer(net, TrainConfig(...)).fit(X, Y).epoch_losses`` (shuffled)."""
    opt = ReferenceAdam(net.params(), net.grads(), lr=lr)
    rng = np.random.default_rng(seed)
    losses, n = [], len(X)
    for _ in range(epochs):
        order = rng.permutation(n)
        total, seen = 0.0, 0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xb = X[idx]
            if noise_sigma > 0:
                xb = xb + rng.normal(0.0, noise_sigma, xb.shape)
            loss, grad = mse_loss(net.forward(xb), Y[idx])
            net.zero_grad()
            net.backward(grad)
            opt.step()
            total += loss * len(idx)
            seen += len(idx)
        losses.append(total / seen)
    return losses
