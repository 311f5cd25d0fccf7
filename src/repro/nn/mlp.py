"""Multi-layer perceptron composed from :mod:`repro.nn.layers`.

One flat buffer: every ``W`` / ``b`` of an :class:`MLP` is a view into one
flat parameter array (``flat_params``) and every gradient a view into one
flat gradient array (``flat_grads``), in :meth:`MLP.params` order.
``zero_grad`` is one fill, the optimizer updates the two flat arrays, and
``load_state_dict`` writes through the views.
"""

from __future__ import annotations

import numpy as np

from .layers import Layer, Linear, ReLU, Tanh

__all__ = ["MLP"]

_ACTIVATIONS = {"relu": ReLU, "tanh": Tanh}


class MLP:
    """A dense feed-forward network.

    Parameters
    ----------
    dims:
        Layer widths including input and output, e.g. ``(12, 64, 64, 3)``.
    activation:
        Hidden activation name: ``relu`` or ``tanh``.
    output_activation:
        Optional activation after the last linear layer (the refinement
        net uses ``tanh`` to bound offsets).
    seed:
        Seed for weight initialization (reproducible training).
    """

    def __init__(
        self,
        dims: tuple[int, ...],
        activation: str = "relu",
        output_activation: str | None = "tanh",
        seed: int | None = 0,
    ):
        if len(dims) < 2:
            raise ValueError("dims needs at least an input and output width")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if output_activation is not None and output_activation not in _ACTIVATIONS:
            raise ValueError(f"unknown output activation {output_activation!r}")
        rng = np.random.default_rng(seed)
        self.dims = tuple(int(d) for d in dims)
        linears = [Linear(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]
        self.layers: list[Layer] = []
        for i, lin in enumerate(linears):
            self.layers.append(lin)
            if i < len(linears) - 1:
                self.layers.append(_ACTIVATIONS[activation]())
        if output_activation is not None:
            self.layers.append(_ACTIVATIONS[output_activation]())
        self._first = linears[0]
        n = sum(lin.W.size + lin.b.size for lin in linears)
        self.flat_params, self.flat_grads = np.empty(n), np.zeros(n)
        offset = 0
        for lin in linears:
            span = slice(offset, offset + lin.W.size + lin.b.size)
            lin.adopt(self.flat_params[span], self.flat_grads[span])
            offset = span.stop

    # ------------------------------------------------------------------
    @property
    def in_dim(self) -> int:
        return self.dims[0]

    @property
    def out_dim(self) -> int:
        return self.dims[-1]

    def params(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def grads(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.extend(layer.grads())
        return out

    def n_parameters(self) -> int:
        """Total scalar parameter count (used by the memory accounting)."""
        return int(self.flat_params.size)

    def zero_grad(self) -> None:
        self.flat_grads.fill(0.0)

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.in_dim:
            raise ValueError(f"expected input dim {self.in_dim}, got {x.shape[1]}")
        for layer in self.layers:
            x = layer.forward(x)
        return x[0] if squeeze else x

    __call__ = forward

    def backward(self, grad_out: np.ndarray) -> None:
        """Accumulate every parameter gradient from dL/d(output).

        Stops at the first layer's parameter gradients: nothing reads
        dL/d(input), so it is not computed.
        """
        g = np.asarray(grad_out, dtype=np.float64)
        for layer in reversed(self.layers[1:]):
            g = layer.backward(g)
        self._first.accumulate_grads(g)

    # ------------------------------------------------------------------
    # Serialization (LUTs are built offline; nets must round-trip to disk).
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {f"p{i}": p.copy() for i, p in enumerate(self.params())}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = self.params()
        if len(state) != len(params):
            raise ValueError(
                f"state has {len(state)} arrays, model has {len(params)}"
            )
        for i, p in enumerate(params):
            src = state[f"p{i}"]
            if src.shape != p.shape:
                raise ValueError(f"shape mismatch at p{i}: {src.shape} vs {p.shape}")
            p[...] = src

    def save(self, path) -> None:
        np.savez_compressed(path, dims=np.array(self.dims), **self.state_dict())

    @classmethod
    def load(cls, path, activation: str = "relu", output_activation: str | None = "tanh") -> "MLP":
        with np.load(path) as data:
            dims = tuple(int(d) for d in data["dims"])
            model = cls(dims, activation=activation, output_activation=output_activation)
            model.load_state_dict({k: data[k] for k in data.files if k != "dims"})
        return model
