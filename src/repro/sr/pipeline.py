"""End-to-end VoLUT super-resolution pipeline (paper §3, Fig. 3).

``VolutUpsampler`` chains the three client stages:

1. dilated kNN interpolation (§4.1) — one self-query on the client's
   index, cKDTree (:data:`repro.spatial.knn.CLIENT_BACKEND`),
2. parent-reuse colorization (§4.1),
3. LUT refinement (§4.2),

and records per-stage wall-clock so the runtime-breakdown experiment
(Fig. 16) reads directly off the pipeline.  ``NaiveUpsampler`` is the
vanilla cost model: brute-force kNN everywhere, fresh searches per stage,
no dilation by default.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..pointcloud.cloud import PointCloud
from ..spatial.knn import CLIENT_BACKEND
from ..spatial.reuse import merge_and_prune
from .colorize import colorize_by_nearest, nearer_parent
from .encoding import check_count
from .interpolation import interpolate
from .lut import EnsembleLUT, HashedLUT

__all__ = ["StageTimes", "SRResult", "VolutUpsampler", "NaiveUpsampler"]


@dataclass
class StageTimes:
    """Seconds spent in each pipeline stage for one frame."""

    knn: float = 0.0
    interpolation: float = 0.0
    colorization: float = 0.0
    refinement: float = 0.0

    @property
    def total(self) -> float:
        return self.knn + self.interpolation + self.colorization + self.refinement

    def as_dict(self) -> dict[str, float]:
        return {
            "knn": self.knn,
            "interpolation": self.interpolation,
            "colorization": self.colorization,
            "refinement": self.refinement,
            "total": self.total,
        }


@dataclass
class SRResult:
    """Upsampled frame plus stage timing."""

    cloud: PointCloud
    times: StageTimes = field(default_factory=StageTimes)


class VolutUpsampler:
    """VoLUT's two-stage SR: dilated interpolation + LUT refinement.

    A single upsampler instance serves *any* continuous ratio — the
    property the continuous ABR depends on (§5).

    Parameters
    ----------
    lut:
        Refinement table (from :func:`repro.sr.lut.build_coarse_lut`);
        ``None`` skips refinement (interpolation-only, the ``K4d2``
        ablation).
    k, dilation:
        Interpolation receptive field parameters (Eq. 1).
    backend:
        kNN backend for the interpolation search; the client's index,
        cKDTree, by default.  ``"octree"`` returns the same frame byte for
        byte (the tie contract of :mod:`repro.spatial.knn`).
    """

    def __init__(
        self,
        lut: HashedLUT | EnsembleLUT | None = None,
        k: int = 4,
        dilation: int = 2,
        backend: str = CLIENT_BACKEND,
        seed: int = 0,
    ):
        self.lut = lut
        self.k = check_count("k", k, 1)
        self.dilation = check_count("dilation", dilation, 1)
        self.backend = backend
        self._rng = np.random.default_rng(seed)

    def upsample(self, cloud: PointCloud, ratio: float) -> SRResult:
        """Upsample ``cloud`` by ``ratio`` (continuous, ≥ 1).

        Byte for byte what ``interpolate`` → ``colorize_by_parent`` →
        ``merge_and_prune`` → ``encode`` → ``lookup_normalized`` produce
        called one by one, with three reuses:

        * the prune's last distance column is ``encode``'s Eq. 3 radius;
        * the output cloud is built once, in the interpolated positions
          (which this call owns) and the colors of the nearer parents;
        * the refine tail runs once per distinct ``(parent_a, parent_b)``
          pair.  Above ×2 a source is drawn more than once and, at ``k·d``
          partners, repeats a pair (≈ 30 % of the rows at ×8); every stage
          of the tail is a function of the pair alone — its midpoint,
          candidate columns, tie order, radius and key — so each distinct
          pair is pruned, encoded and looked up once and its step is
          scattered back to every row that drew it.
        """
        times = StageTimes()
        interp = interpolate(
            cloud,
            ratio,
            k=self.k,
            dilation=self.dilation,
            backend=self.backend,
            seed=self._rng,
        )
        t1 = time.perf_counter()
        times.knn = interp.knn_seconds
        times.interpolation = interp.assembly_seconds

        colors = cloud.colors
        if colors is not None:
            nearer = nearer_parent(cloud.positions, interp)
            colors = np.vstack([colors, np.take(colors, nearer, axis=0)])
        t2 = time.perf_counter()
        times.colorization = t2 - t1

        positions = interp.upsampled.positions
        if self.lut is not None and interp.n_new > 0:
            encoder = self.lut.encoder
            n = interp.n_source
            new, a, b = interp.new_positions, interp.parent_a, interp.parent_b
            inverse = None
            if interp.n_new > n:  # a source drawn twice may repeat a pair
                _, rows, inverse = np.unique(
                    a * n + b, return_index=True, return_inverse=True
                )
                new, a, b = np.take(new, rows, axis=0), a.take(rows), b.take(rows)
            idx, dist = merge_and_prune(
                new, cloud.positions, a, b, interp.neighbor_idx, encoder.rf_size - 1,
            )
            neighbors = np.take(cloud.positions, idx, axis=0)
            enc = encoder.encode(new, neighbors, radius=dist[:, -1])
            step = self.lut.lookup_normalized(enc.normalized)
            step *= enc.radius[:, None]
            positions[n:] += (
                step if inverse is None else np.take(step, inverse, axis=0)
            )
        out = PointCloud(positions, colors)
        times.refinement = time.perf_counter() - t2
        return SRResult(cloud=out, times=times)


class NaiveUpsampler:
    """Vanilla baseline: brute-force kNN, fresh searches, no refinement.

    With ``dilation=1`` this is the ``K4d1`` naive interpolation baseline;
    the interpolate+network pipeline is
    :class:`~repro.sr.gradpu.GradPUUpsampler`.
    """

    def __init__(self, k: int = 4, dilation: int = 1, seed: int = 0):
        self.k = check_count("k", k, 1)
        self.dilation = check_count("dilation", dilation, 1)
        self._rng = np.random.default_rng(seed)

    def upsample(self, cloud: PointCloud, ratio: float) -> SRResult:
        times = StageTimes()
        interp = interpolate(
            cloud,
            ratio,
            k=self.k,
            dilation=self.dilation,
            backend="brute",
            seed=self._rng,
        )
        t1 = time.perf_counter()
        times.knn = interp.knn_seconds
        times.interpolation = interp.assembly_seconds

        # Fresh nearest search for colors — no relationship reuse.
        colored = colorize_by_nearest(cloud, interp, backend="brute")
        times.colorization = time.perf_counter() - t1
        return SRResult(cloud=colored, times=times)
