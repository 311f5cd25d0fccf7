"""Trained artifacts shared across experiments.

The paper trains GradPU on the *Long Dress* video only, converts it to a
single LUT (RF=4, b=128), and applies that LUT to all four test videos
(§7.1).  This module performs that offline phase once per workload scale
and memoizes the result so the quality figures, runtime figures, and
examples all reuse the same artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nn.mlp import MLP
from ..pointcloud.datasets import make_video
from ..sr.encoding import PositionEncoder
from ..sr.lut import HashedLUT, build_coarse_lut
from ..sr.training import build_refinement_dataset, train_refinement_net
from .common import Scale

__all__ = ["TrainedArtifacts", "get_artifacts"]


@dataclass
class TrainedArtifacts:
    """Refinement net + LUT trained on the Long Dress video."""

    encoder: PositionEncoder
    net: MLP
    lut: HashedLUT
    train_losses: list[float]


_CACHE: dict[tuple, TrainedArtifacts] = {}


def get_artifacts(
    scale: Scale,
    rf_size: int = 4,
    bins: int = 128,
    seed: int = 0,
) -> TrainedArtifacts:
    """Train (or fetch cached) refinement artifacts for a workload scale.

    ``bins`` defaults to the paper's 128.  The table is per-point keyed —
    one scalar code per receptive-field point (Table 1's ``b^n`` key
    space), which real content actually covers, so lookups *hit* on unseen
    videos; keying on every quantized coordinate (Eq. 4) has near-zero
    cross-content hit rate at b=128.
    """
    key = (scale.name, scale.points_per_frame, rf_size, bins, seed)
    if key in _CACHE:
        return _CACHE[key]
    encoder = PositionEncoder(rf_size=rf_size, bins=bins)
    video = make_video(
        "longdress",
        n_points=scale.points_per_frame,
        n_frames=max(scale.quality_frames, 2),
    )
    frames = [video.frame(i) for i in range(max(scale.quality_frames, 2))]
    dataset = build_refinement_dataset(
        frames, encoder, ratios=(2.0, 4.0), seed=seed
    )
    net, losses = train_refinement_net(
        dataset, encoder, epochs=scale.train_epochs, seed=seed
    )
    normalized = dataset.X.reshape(len(dataset), rf_size, 3)
    lut = build_coarse_lut(net, encoder, normalized)
    art = TrainedArtifacts(encoder=encoder, net=net, lut=lut, train_losses=losses)
    _CACHE[key] = art
    return art
