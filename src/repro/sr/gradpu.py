"""GradPU baseline (He et al. 2023), as the paper uses it (§2.1, §7.1).

GradPU is the reference two-stage upsampler VoLUT distills: midpoint
interpolation followed by *iterative* refinement that walks each point
toward the surface by repeatedly querying a learned network.  The iteration
is what makes it accurate and also what makes it prohibitively slow on
client devices — the paper reports VoLUT is 46,400× faster at SR because
the LUT replaces per-step network inference.

This implementation reuses the same refinement network/encoder as VoLUT
(the paper derives its LUT *from* GradPU) and performs ``n_steps`` damped
refinement iterations, re-gathering neighborhoods each step — faithfully
reproducing the cost structure: ``n_steps × (kNN gather + NN inference)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..nn.mlp import MLP
from ..pointcloud.cloud import PointCloud
from ..spatial.knn import CLIENT_BACKEND, get_backend
from .colorize import colorize_by_nearest
from .encoding import PositionEncoder
from .interpolation import interpolate
from .pipeline import SRResult, StageTimes

__all__ = ["GradPUUpsampler"]

#: damping factor applied to each predicted offset
GRADPU_STEP_SIZE = 0.5
#: interpolation neighbours per source point
GRADPU_K = 4


@dataclass
class GradPUUpsampler:
    """Interpolation + iterative network refinement.

    Parameters
    ----------
    net, encoder:
        The trained refinement network and its position encoder.
    n_steps:
        Refinement iterations (GradPU uses tens of gradient steps; the
        damped fixed-point iteration here has the same per-step cost),
        each moving a point by ``GRADPU_STEP_SIZE`` x the predicted offset.

    Searches go through the index the VoLUT client searches with
    (``CLIENT_BACKEND``), so latency comparisons isolate the
    *architectural* difference (per-step re-searching + network inference
    vs. one search + lookup) rather than differences between search
    substrates.
    """

    net: MLP
    encoder: PositionEncoder
    n_steps: int = 10
    dilation: int = 1
    seed: int = 0

    def upsample(self, cloud: PointCloud, ratio: float) -> SRResult:
        """Upsample ``cloud`` by ``ratio`` with iterative NN refinement."""
        rng = np.random.default_rng(self.seed)
        times = StageTimes()
        interp = interpolate(
            cloud, ratio, k=GRADPU_K, dilation=self.dilation,
            backend=CLIENT_BACKEND, seed=rng,
        )
        times.knn = interp.knn_seconds
        times.interpolation = interp.assembly_seconds

        t1 = time.perf_counter()
        colored = colorize_by_nearest(cloud, interp, backend=CLIENT_BACKEND)
        t2 = time.perf_counter()
        times.colorization = t2 - t1

        current = interp.new_positions.copy()
        if len(current):
            rf = self.encoder.rf_size
            index = get_backend(CLIENT_BACKEND, cloud.positions)
            for _ in range(self.n_steps):
                # Fresh neighborhood gather every step: positions move, so
                # the neighbor sets must be re-queried (GradPU's cost model).
                idx, _ = index.query(current, rf - 1)
                neighbors = cloud.positions[idx]
                enc = self.encoder.encode(current, neighbors)
                x = enc.normalized.reshape(len(current), -1)
                offsets = self.net.forward(x)
                current = current + GRADPU_STEP_SIZE * offsets * enc.radius[:, None]
        pos = colored.positions.copy()
        pos[interp.n_source :] = current
        result = PointCloud(pos, colored.colors)
        times.refinement = time.perf_counter() - t2
        return SRResult(cloud=result, times=times)
