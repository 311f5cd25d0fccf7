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

#: interpolation neighbours and dilation the training pairs are built with
TRAIN_K = 4
TRAIN_DILATION = 2
#: Adam step size and the Gaussian noise injected into the inputs (§4.2.2)
LEARNING_RATE = 2e-3
NOISE_SIGMA = 0.02


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
        ratios.  A frame is downsampled to ``len(frame) / ratio`` points,
        then interpolated with ``TRAIN_K`` neighbours at ``TRAIN_DILATION``.
    """
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for frame in frames:
        for ratio in ratios:
            low = random_downsample_count(frame, int(len(frame) / ratio), seed=rng)
            interp = interpolate(
                low, ratio, k=TRAIN_K, dilation=TRAIN_DILATION, seed=rng
            )
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
    seed: int = 0,
) -> tuple[MLP, list[float]]:
    """Train the refinement MLP at ``LEARNING_RATE`` with the paper's
    ``NOISE_SIGMA`` Gaussian injection; returns (net, per-epoch losses)."""
    dims = (encoder.rf_size * 3, *hidden, 3)
    net = MLP(dims, activation="relu", output_activation="tanh", seed=seed)
    cfg = TrainConfig(
        epochs=epochs, lr=LEARNING_RATE, noise_sigma=NOISE_SIGMA, seed=seed,
        batch_size=512,
    )
    trainer = Trainer(net, cfg)
    result = trainer.fit(dataset.X, dataset.Y)
    return net, result.epoch_losses
