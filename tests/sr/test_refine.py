"""Refinement stage tests: NN vs LUT agreement, reuse gathering."""

import numpy as np
import pytest

from repro.nn import MLP
from repro.sr import (
    LUTRefiner,
    NNRefiner,
    PositionEncoder,
    build_lut,
    gather_refinement_neighborhoods,
    interpolate,
)
from repro.spatial import kdtree_knn


@pytest.fixture
def setup(small_frame):
    encoder = PositionEncoder(rf_size=4, bins=64)
    net = MLP((12, 16, 3), output_activation="tanh", seed=0)
    interp = interpolate(small_frame, 2.0, k=4, dilation=2, seed=0)
    return small_frame, encoder, net, interp


class TestGatherNeighborhoods:
    def test_shape(self, setup):
        frame, encoder, net, interp = setup
        nb = gather_refinement_neighborhoods(frame.positions, interp, 4)
        assert nb.shape == (interp.n_new, 3, 3)

    def test_close_to_true_knn(self, setup):
        """Reuse-gathered neighborhoods ≈ true kNN of the new points."""
        frame, encoder, net, interp = setup
        nb = gather_refinement_neighborhoods(frame.positions, interp, 4)
        d_reuse = np.linalg.norm(
            nb - interp.new_positions[:, None, :], axis=2
        )
        _, d_true = kdtree_knn(frame.positions, interp.new_positions, 3)
        # Mean inflation from the approximation stays small.
        assert d_reuse.mean() <= d_true.mean() * 1.2


class TestNNRefiner:
    def test_moves_points_bounded_by_radius(self, setup):
        frame, encoder, net, interp = setup
        ref = NNRefiner(net, encoder)
        nb = gather_refinement_neighborhoods(frame.positions, interp, 4)
        out = ref.refine(interp.new_positions, nb)
        assert out.shape == interp.new_positions.shape
        moved = np.linalg.norm(out - interp.new_positions, axis=1)
        enc = encoder.encode(interp.new_positions, nb)
        # tanh output in [-1,1]^3 scaled by radius: |offset| <= sqrt(3) R.
        assert (moved <= np.sqrt(3) * enc.radius + 1e-9).all()

    def test_dim_validation(self, setup):
        frame, encoder, net, interp = setup
        bad = MLP((9, 8, 3), seed=0)
        with pytest.raises(ValueError, match="input dim"):
            NNRefiner(bad, encoder)
        bad_out = MLP((12, 8, 2), seed=0)
        with pytest.raises(ValueError, match="output"):
            NNRefiner(bad_out, encoder)


class TestLUTRefiner:
    def test_lut_approximates_nn_refinement(self, setup):
        """The distilled LUT's refinements track the network's."""
        frame, encoder, net, interp = setup
        nb = gather_refinement_neighborhoods(frame.positions, interp, 4)
        enc = encoder.encode(interp.new_positions, nb)
        lut = build_lut(net, encoder, enc.normalized)

        nn_out = NNRefiner(net, encoder).refine(interp.new_positions, nb)
        lut_out = LUTRefiner(lut).refine(interp.new_positions, nb)
        # Differences come only from bin-center quantization of inputs.
        err = np.linalg.norm(nn_out - lut_out, axis=1)
        scale = np.linalg.norm(nn_out - interp.new_positions, axis=1).mean() + 1e-9
        assert err.mean() < scale  # quantization error below signal

    def test_finer_bins_closer_to_net(self, setup):
        frame, _, net, interp = setup
        nb = gather_refinement_neighborhoods(frame.positions, interp, 4)
        errs = []
        for bins in (4, 16, 64):
            enc_b = PositionEncoder(rf_size=4, bins=bins)
            net_b = MLP((12, 16, 3), output_activation="tanh", seed=0)
            e = enc_b.encode(interp.new_positions, nb)
            lut = build_lut(net_b, enc_b, e.normalized)
            nn_out = NNRefiner(net_b, enc_b).refine(interp.new_positions, nb)
            lut_out = LUTRefiner(lut).refine(interp.new_positions, nb)
            errs.append(np.linalg.norm(nn_out - lut_out, axis=1).mean())
        assert errs[0] > errs[2]
