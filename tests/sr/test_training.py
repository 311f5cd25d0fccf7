"""Refinement-network training pipeline tests."""

import numpy as np
import pytest

from repro.pointcloud import make_video
from repro.sr import (
    PositionEncoder,
    build_refinement_dataset,
    train_refinement_net,
)


@pytest.fixture(scope="module")
def frames():
    v = make_video("longdress", n_points=1200, n_frames=2)
    return [v.frame(i) for i in range(2)]


class TestDataset:
    def test_shapes_consistent(self, frames):
        enc = PositionEncoder(rf_size=4, bins=32)
        ds = build_refinement_dataset(frames, enc, ratios=(2.0,), seed=0)
        assert ds.X.shape[1] == 12
        assert ds.Y.shape == (len(ds), 3)

    def test_multiple_ratios_give_more_pairs(self, frames):
        enc = PositionEncoder(rf_size=4, bins=32)
        one = build_refinement_dataset(frames, enc, ratios=(2.0,), seed=0)
        two = build_refinement_dataset(frames, enc, ratios=(2.0, 4.0), seed=0)
        assert len(two) > len(one)

    def test_targets_bounded(self, frames):
        enc = PositionEncoder(rf_size=4, bins=32)
        ds = build_refinement_dataset(frames, enc, ratios=(2.0,), seed=0)
        assert (np.abs(ds.Y) <= 1.0).all()

    def test_inputs_normalized(self, frames):
        enc = PositionEncoder(rf_size=4, bins=32)
        ds = build_refinement_dataset(frames, enc, ratios=(2.0,), seed=0)
        assert (np.abs(ds.X) <= 1.0 + 1e-12).all()
        # First 3 dims are the (centered) target point: all zeros.
        assert np.allclose(ds.X[:, :3], 0.0)

    def test_empty_frames_rejected(self):
        enc = PositionEncoder(rf_size=4, bins=32)
        with pytest.raises(ValueError):
            build_refinement_dataset([], enc)


class TestTraining:
    def test_loss_decreases(self, frames):
        enc = PositionEncoder(rf_size=4, bins=32)
        ds = build_refinement_dataset(frames, enc, ratios=(2.0,), seed=0)
        net, losses = train_refinement_net(ds, enc, hidden=(24, 24), epochs=10, seed=0)
        assert losses[-1] < losses[0]
        assert net.in_dim == 12 and net.out_dim == 3

    def test_trained_net_beats_zero_refinement(self, frames):
        """The net's predicted offsets reduce the displacement error vs
        predicting no offset at all — the minimum bar for Eq. 9 training."""
        enc = PositionEncoder(rf_size=4, bins=32)
        ds = build_refinement_dataset(frames, enc, ratios=(2.0,), seed=0)
        net, _ = train_refinement_net(ds, enc, hidden=(24, 24), epochs=15, seed=0)
        pred = net.forward(ds.X)
        err_net = np.mean(np.sum((pred - ds.Y) ** 2, axis=1))
        err_zero = np.mean(np.sum(ds.Y ** 2, axis=1))
        assert err_net < err_zero
