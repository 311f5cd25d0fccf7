"""Refinement stage: adjust interpolated points toward the true surface.

Two interchangeable refiners with the same contract:

* :class:`NNRefiner` — runs the trained refinement MLP on every
  neighborhood (what GradPU/YuZu-style systems do at inference time).
* :class:`LUTRefiner` — VoLUT's replacement: normalize the neighborhood
  and look the offset up in a precomputed table (§4.2), which quantizes
  the normalized coordinates under its own keying.

Offsets are predicted in the normalized neighborhood frame and scaled back
by the per-neighborhood radius ``R`` before application.
"""

from __future__ import annotations

import numpy as np

from ..nn.mlp import MLP
from ..spatial.reuse import merge_and_prune
from .encoding import PositionEncoder
from .interpolation import InterpolationResult
from .lut import EnsembleLUT, HashedLUT

__all__ = ["gather_refinement_neighborhoods", "NNRefiner", "LUTRefiner"]


def gather_refinement_neighborhoods(
    source_positions: np.ndarray,
    interp: InterpolationResult,
    rf_size: int,
) -> np.ndarray:
    """Neighbor coordinates for every interpolated point, via reuse.

    Each interpolated point needs its ``rf_size - 1`` nearest source points.
    Instead of a fresh kNN search, VoLUT merges the parents' already-known
    neighbor lists (Eq. 2) — the lists were computed once during
    interpolation and ride along in ``interp.neighbor_idx``.

    Returns ``(m, rf_size - 1, 3)`` coordinates.
    """
    k = rf_size - 1
    idx, _ = merge_and_prune(
        interp.new_positions,
        source_positions,
        interp.parent_a,
        interp.parent_b,
        interp.neighbor_idx,
        k,
    )
    return source_positions[idx]


class NNRefiner:
    """Refine by running the network on every neighborhood (the slow path)."""

    def __init__(self, net: MLP, encoder: PositionEncoder):
        expected = encoder.rf_size * 3
        if net.in_dim != expected:
            raise ValueError(
                f"network input dim {net.in_dim} != rf_size*3 = {expected}"
            )
        if net.out_dim != 3:
            raise ValueError(f"refinement net must output 3 dims, got {net.out_dim}")
        self.net = net
        self.encoder = encoder

    def refine(self, targets: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
        """Return refined positions for ``targets`` given their neighborhoods."""
        enc = self.encoder.encode(targets, neighbors)
        x = enc.normalized.reshape(len(targets), -1)
        offsets = self.net.forward(x)
        return targets + offsets * enc.radius[:, None]


class LUTRefiner:
    """Refine via table lookup (VoLUT's §4.2 path)."""

    def __init__(self, lut: HashedLUT | EnsembleLUT):
        self.lut = lut
        self.encoder = lut.encoder

    def refine(self, targets: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
        """Return refined positions for ``targets`` given their neighborhoods."""
        enc = self.encoder.encode(targets, neighbors)
        # the table quantizes under its own keying (and each member of a
        # fused table under its own phase), so it takes the coordinates
        offsets = self.lut.lookup_normalized(enc.normalized)
        return targets + offsets * enc.radius[:, None]
