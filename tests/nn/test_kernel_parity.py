"""The training kernels against their predecessors in ``reference_nn``.

Production's ReLU, Linear forward, flat-buffer Adam and first-layer-free
backward must train the refinement-shaped net to the same bits as the
kernels they replaced: the LUT every client reads is distilled from it.
"""

import numpy as np
import pytest

from repro.nn import MLP, Adam, Linear, ReLU, TrainConfig, Trainer
from tests.nn.reference_nn import (
    ReferenceAdam,
    ReferenceLinear,
    ReferenceMLP,
    ReferenceReLU,
    reference_fit,
    reference_relu,
)

SPECIALS = np.array([
    -0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf,
    5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.0, -1.0, 1e308, -1e308,
])


def _refinement_data(n, in_dim, seed):
    g = np.random.default_rng(seed)
    return g.uniform(-1, 1, (n, in_dim)), g.uniform(-0.3, 0.3, (n, 3))


@pytest.mark.parametrize("hidden,epochs,seed", [((64, 64), 3, 0), ((24, 24), 4, 3)])
def test_training_is_bit_identical_to_the_reference(hidden, epochs, seed):
    """12→hidden→3, batch 512 with a ragged last batch, σ = 0.02 noise."""
    dims = (12, *hidden, 3)
    X, Y = _refinement_data(1_300, 12, seed + 100)
    net = MLP(dims, activation="relu", output_activation="tanh", seed=seed)
    cfg = TrainConfig(epochs=epochs, batch_size=512, lr=2e-3, noise_sigma=0.02, seed=seed)
    losses = Trainer(net, cfg).fit(X, Y).epoch_losses

    ref = ReferenceMLP(dims, seed=seed)
    ref_losses = reference_fit(ref, X, Y, epochs=epochs, batch_size=512, lr=2e-3,
                               noise_sigma=0.02, seed=seed)
    assert losses == ref_losses
    for got, want in zip(net.params(), ref.params(), strict=True):
        assert got.tobytes() == want.tobytes()
    x = X[:64]
    assert net.forward(x).tobytes() == ref.forward(x).tobytes()


def test_relu_is_bytes_equal_to_the_where_form_on_special_values():
    """Every special value in every SIMD lane and scalar tail position:
    ``fmax(-0.0, 0.0)`` is ``+0.0`` in the vector loop but ``-0.0`` in the
    tail, so only the ``+= 0.0`` makes both agree with the select."""
    base = np.concatenate([SPECIALS, -SPECIALS])
    relu, ref = ReLU(), ReferenceReLU()
    g = np.random.default_rng(0).normal(size=base.size)
    for n in range(1, base.size + 1):
        for shift in range(base.size):
            x = np.roll(base, shift)[:n].reshape(1, n)
            assert relu.forward(x).tobytes() == reference_relu(x).tobytes()
            assert relu.forward(x).tobytes() == ref.forward(x).tobytes()
            assert relu.backward(g[:n]).tobytes() == ref.backward(g[:n]).tobytes()


def test_linear_forward_is_bytes_equal_to_the_allocating_form():
    g = np.random.default_rng(1)
    lin = Linear(64, 64, np.random.default_rng(2))
    ref = ReferenceLinear(64, 64, np.random.default_rng(2))
    lin.b[:] = ref.b[:] = g.normal(size=64)
    x = g.normal(size=(512, 64))
    assert lin.forward(x).tobytes() == ref.forward(x).tobytes()


def test_backward_matches_the_reference_parameter_gradients_and_returns_none():
    dims = (12, 64, 64, 3)
    net, ref = MLP(dims, seed=5), ReferenceMLP(dims, seed=5)
    g = np.random.default_rng(6)
    x, grad = g.normal(size=(200, 12)), g.normal(size=(200, 3))
    net.forward(x)
    ref.forward(x)
    net.zero_grad()
    ref.zero_grad()
    assert net.backward(grad) is None
    ref.backward(grad)
    for got, want in zip(net.grads(), ref.grads(), strict=True):
        assert got.tobytes() == want.tobytes()


class TestFlatBuffer:
    def test_params_and_grads_are_views_of_the_flat_arrays(self):
        net = MLP((4, 8, 3), seed=0)
        params, grads = net.params(), net.grads()
        assert all(np.shares_memory(p, net.flat_params) for p in params)
        assert all(np.shares_memory(g, net.flat_grads) for g in grads)
        assert np.concatenate([p.ravel() for p in params]).tobytes() == net.flat_params.tobytes()
        assert net.n_parameters() == net.flat_params.size == net.flat_grads.size
        net.flat_params[:] = 7.0
        net.flat_grads[:] = -1.0
        assert all((p == 7.0).all() for p in params)
        assert all((g == -1.0).all() for g in grads)
        net.zero_grad()
        assert all((g == 0.0).all() for g in grads)
        assert (net.flat_params == 7.0).all()

    def test_load_state_dict_writes_through(self):
        a, b = MLP((4, 8, 3), seed=0), MLP((4, 8, 3), seed=99)
        flat, views = b.flat_params, b.params()
        b.load_state_dict(a.state_dict())
        assert b.flat_params is flat
        assert b.flat_params.tobytes() == a.flat_params.tobytes()
        assert all(np.shares_memory(p, flat) for p in views)

    def test_state_dict_round_trips_and_owns_its_arrays(self):
        a = MLP((4, 8, 3), seed=0)
        state = a.state_dict()
        assert not any(np.shares_memory(v, a.flat_params) for v in state.values())
        b = MLP((4, 8, 3), seed=1)
        b.load_state_dict(state)
        assert all(s.tobytes() == p.tobytes() for s, p in zip(state.values(), b.params()))

    def test_adam_on_the_flat_array_equals_adam_per_array(self):
        g = np.random.default_rng(7)
        net = MLP((12, 64, 64, 3), seed=7)
        per_array = [p.copy() for p in net.params()]
        per_grads = [np.zeros_like(p) for p in per_array]
        flat = Adam([net.flat_params], [net.flat_grads], lr=2e-3)
        ref = ReferenceAdam(per_array, per_grads, lr=2e-3)
        for _ in range(5):
            net.flat_grads[:] = g.normal(size=net.flat_grads.size)
            for dst, src in zip(per_grads, net.grads()):
                dst[...] = src
            flat.step()
            ref.step()
        for got, want in zip(net.params(), per_array, strict=True):
            assert got.tobytes() == want.tobytes()
