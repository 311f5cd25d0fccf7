"""YuZu-style direct neural SR baseline (Zhang et al.).

YuZu deploys a deep 3-D SR model that maps a low-resolution cloud directly
to a fixed-ratio high-resolution one (PU-Net lineage): per source point the
network emits ``ratio`` children in one inference pass.  Characteristics
the comparison depends on, all reproduced here:

* **fixed integer ratios** — one model per ratio (the paper lists YuZu's
  discrete options 1×2, 2×2, 1×3, …), unlike VoLUT's single continuous
  pipeline;
* **heavier inference** — a much wider trunk than the refinement MLP, run
  over every source point, so per-frame latency is dominated by the network
  (this is what the 8.4× SR speed-up is measured against);
* **model downloads** — streamed models count toward data usage (§7.4's
  'including SR models for yuzu SR').
"""

from __future__ import annotations

import time

import numpy as np

from ..nn.mlp import MLP
from ..pointcloud.cloud import PointCloud
from ..spatial.knn import CLIENT_BACKEND, get_backend, self_neighbors
from .encoding import PositionEncoder, check_count
from .pipeline import SRResult, StageTimes

__all__ = ["YuzuSRModel", "YUZU_RATIOS"]

#: YuZu's discrete SR options (paper §7.4 lists its factorized choices;
#: the achievable end-to-end ratios are these integers).
YUZU_RATIOS = (2, 3, 4, 6, 8)

#: hidden-layer widths of the direct SR network
YUZU_HIDDEN = (256, 256, 256)


class YuzuSRModel:
    """A fixed-ratio direct SR network.

    Input: the flattened normalized neighborhood of a source point
    (``rf·3`` dims).  Output: ``ratio`` offsets in the normalized frame;
    children are placed at ``point + offset · R``.
    """

    def __init__(
        self,
        ratio: int,
        encoder: PositionEncoder | None = None,
        seed: int = 0,
    ):
        self.ratio = check_count("ratio", ratio, 2)
        self.encoder = encoder or PositionEncoder(rf_size=4, bins=128)
        # Same search substrate as the VoLUT client (see GradPUUpsampler).
        self.backend = CLIENT_BACKEND
        dims = (self.encoder.rf_size * 3, *YUZU_HIDDEN, 3 * self.ratio)
        self.net = MLP(dims, activation="relu", output_activation="tanh", seed=seed)

    # ------------------------------------------------------------------
    def _neighborhoods(self, cloud: PointCloud) -> tuple[np.ndarray, np.ndarray]:
        index = get_backend(self.backend, cloud.positions)
        nb = self_neighbors(index, self.encoder.rf_size - 1)
        return cloud.positions, cloud.positions[nb]

    def upsample(self, cloud: PointCloud) -> SRResult:
        """Direct SR at this model's fixed ratio."""
        times = StageTimes()
        t0 = time.perf_counter()
        targets, neighbors = self._neighborhoods(cloud)
        t1 = time.perf_counter()
        times.knn = t1 - t0

        enc = self.encoder.encode(targets, neighbors)
        x = enc.normalized.reshape(len(cloud), -1)
        out = self.net.forward(x).reshape(len(cloud), self.ratio, 3)
        children = (
            cloud.positions[:, None, :] + out * enc.radius[:, None, None]
        ).reshape(-1, 3)
        t2 = time.perf_counter()
        times.refinement = t2 - t1  # network inference is the 'SR' stage

        colors = None
        if cloud.has_colors:
            colors = np.repeat(cloud.colors, self.ratio, axis=0)
        times.colorization = time.perf_counter() - t2
        return SRResult(cloud=PointCloud(children, colors), times=times)
