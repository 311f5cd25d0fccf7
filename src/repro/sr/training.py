"""Offline training of the refinement network (paper §4.2.2, §7.1).

Training data is self-supervised from high-resolution frames, exactly as
the paper trains GradPU on the *Long Dress* video:

1. downsample a ground-truth frame to a low density;
2. interpolate back up with the dilated interpolator;
3. for each interpolated point, the regression target is the displacement
   to its nearest ground-truth point (Eq. 9), expressed in the normalized
   neighborhood frame so it matches the LUT's value range;
4. train the MLP with Gaussian-noise injection (σ = 0.02) for robustness
   to quantization (§4.2.2).

The inputs ``X``, reshaped to ``(m, rf, 3)``, are also the occupied
configurations a table is populated from (:func:`repro.sr.lut.build_lut`,
:func:`repro.sr.lut.build_coarse_lut`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.mlp import MLP
from ..nn.trainer import TrainConfig, Trainer
from ..pointcloud.cloud import PointCloud
from ..pointcloud.sampling import random_downsample_count
from ..spatial.knn import kdtree_knn
from .encoding import PositionEncoder
from .interpolation import interpolate
from .refine import gather_refinement_neighborhoods

__all__ = ["RefinementDataset", "build_refinement_dataset", "train_refinement_net"]


@dataclass
class RefinementDataset:
    """Training tensors for the refinement network.

    ``X`` is ``(m, rf·3)`` flattened normalized neighborhoods and ``Y`` is
    ``(m, 3)`` normalized target offsets.
    """

    X: np.ndarray
    Y: np.ndarray

    def __len__(self) -> int:
        return len(self.X)


def build_refinement_dataset(
    frames: list[PointCloud],
    encoder: PositionEncoder,
    ratios: tuple[float, ...] = (2.0, 4.0),
    downsample_to: int | None = None,
    k: int = 4,
    dilation: int = 2,
    seed: int = 0,
) -> RefinementDataset:
    """Build (neighborhood → offset) pairs from ground-truth frames.

    Parameters
    ----------
    frames:
        High-resolution ground-truth frames (the training video).
    ratios:
        Upsampling ratios to synthesize low/high pairs for — the paper
        downsamples 'to different densities' so one net generalizes across
        ratios.
    downsample_to:
        Low-resolution point budget before interpolation; defaults to
        ``len(frame) / max(ratios)``.
    """
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for frame in frames:
        for ratio in ratios:
            n_low = (
                int(len(frame) / ratio)
                if downsample_to is None
                else int(downsample_to)
            )
            low = random_downsample_count(frame, n_low, seed=rng)
            interp = interpolate(low, ratio, k=k, dilation=dilation, seed=rng)
            new_pts = interp.new_positions
            if len(new_pts) == 0:
                continue
            neighbors = gather_refinement_neighborhoods(
                low.positions, interp, encoder.rf_size
            )
            enc = encoder.encode(new_pts, neighbors)
            # Target: displacement to the nearest ground-truth point (Eq. 9),
            # normalized by the neighborhood radius to match the net output.
            gt_idx, _ = kdtree_knn(frame.positions, new_pts, 1)
            gt_nn = frame.positions[gt_idx[:, 0]]
            safe_r = np.where(enc.radius > 0, enc.radius, 1.0)
            target = (gt_nn - new_pts) / safe_r[:, None]
            np.clip(target, -1.0, 1.0, out=target)
            xs.append(enc.normalized.reshape(len(new_pts), -1))
            ys.append(target)
    if not xs:
        raise ValueError("no training pairs were produced")
    return RefinementDataset(X=np.vstack(xs), Y=np.vstack(ys))


def train_refinement_net(
    dataset: RefinementDataset,
    encoder: PositionEncoder,
    hidden: tuple[int, ...] = (64, 64),
    epochs: int = 40,
    lr: float = 2e-3,
    noise_sigma: float = 0.02,
    seed: int = 0,
) -> tuple[MLP, list[float]]:
    """Train the refinement MLP; returns (net, per-epoch losses).

    ``noise_sigma`` defaults to the paper's 0.02 Gaussian injection.
    """
    dims = (encoder.rf_size * 3, *hidden, 3)
    net = MLP(dims, activation="relu", output_activation="tanh", seed=seed)
    cfg = TrainConfig(
        epochs=epochs, lr=lr, noise_sigma=noise_sigma, seed=seed, batch_size=512
    )
    trainer = Trainer(net, cfg)
    result = trainer.fit(dataset.X, dataset.Y)
    return net, result.epoch_losses
