"""Midpoint interpolation with optional dilation (paper §4.1, Eq. 1).

Given a low-resolution cloud and an upsampling ratio ``r`` (any real value
≥ 1 — continuous ratios are what enable VoLUT's continuous ABR), the
interpolator generates ``round((r - 1) · n)`` new points.  Each new point is
the midpoint of a *source* point and a *partner* drawn from the source's
dilated neighborhood::

    N_dk(p_i) = Top_{d·k}( ||p_j - p_i|| )          (Eq. 1)

With ``d = 1`` this degenerates to naive kNN interpolation, which reinforces
existing density patterns (dense regions have nearer neighbors, so new
points pile into already-dense areas).  Dilation ``d > 1`` widens the
receptive field to ``k·d`` candidates, spreading new points across the
surface (paper Figs. 4/5).

The one self-query goes through :func:`repro.spatial.knn.self_neighbors`,
so neighbours are ordered by *(distance, index)* whatever the index:

* ``backend="kdtree"`` — scipy's cKDTree, the client's index (the default);
* ``backend="octree"`` — VoLUT's two-layer octree pruning (§4.1), byte for
  byte the kd-tree's output;
* ``backend="brute"`` — the *vanilla* cost model: full brute-force kNN.

The returned :class:`InterpolationResult` carries the parent indices and
the source neighbor lists so downstream stages (colorization, refinement)
can **reuse** the spatial relationships instead of re-searching — the
paper's second interpolation optimization (Eq. 2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..pointcloud.cloud import PointCloud
from ..spatial.knn import CLIENT_BACKEND, get_backend, self_neighbors

__all__ = ["InterpolationResult", "interpolate"]


@dataclass
class InterpolationResult:
    """Output of the interpolation stage plus reusable spatial state.

    Attributes
    ----------
    upsampled:
        Source cloud + new midpoints (geometry only until colorization).
    n_source:
        Points ``upsampled.positions[:n_source]`` are the original cloud;
        the rest are interpolated.
    parent_a, parent_b:
        ``(m,)`` indices into the source cloud: each new point is the
        midpoint of ``source[parent_a]`` and ``source[parent_b]``.
    neighbor_idx:
        ``(n_source, k·d)`` dilated neighbor lists of the source points
        (self excluded), reusable by colorization and refinement.
    knn_seconds, assembly_seconds:
        Wall-clock of the neighbor search vs. midpoint assembly — the
        runtime-breakdown experiment (paper Fig. 16) separates the two.
    """

    upsampled: PointCloud
    n_source: int
    parent_a: np.ndarray
    parent_b: np.ndarray
    neighbor_idx: np.ndarray
    knn_seconds: float = 0.0
    assembly_seconds: float = 0.0

    @property
    def new_positions(self) -> np.ndarray:
        """Positions of interpolated points only."""
        return self.upsampled.positions[self.n_source :]

    @property
    def n_new(self) -> int:
        return len(self.upsampled) - self.n_source


def _plan_new_points(
    n: int, ratio: float, rng: np.random.Generator
) -> np.ndarray:
    """Choose source indices for the new points.

    Cycles deterministically through all source points before repeating, so
    density added is as even as the partner choice allows; the remainder
    (for fractional ratios) is a uniform random subset.
    """
    if not 1.0 <= ratio < np.inf:
        raise ValueError(f"upsampling ratio must be finite and >= 1, got {ratio}")
    m = int(round((ratio - 1.0) * n))
    full, rem = divmod(m, n)
    src = np.tile(np.arange(n), full)
    if rem:
        src = np.concatenate([src, rng.choice(n, size=rem, replace=False)])
    return src


def interpolate(
    cloud: PointCloud,
    ratio: float,
    k: int = 4,
    dilation: int = 2,
    backend: str = CLIENT_BACKEND,
    seed: int | np.random.Generator | None = 0,
) -> InterpolationResult:
    """Dilated midpoint interpolation to ``ratio`` times the input density.

    Parameters
    ----------
    cloud:
        Low-resolution input (colors, if any, are carried on source points;
        new points are colorized separately).
    ratio:
        Target density multiplier (continuous, ≥ 1).
    k:
        Neighbor count of the underlying kNN request.
    dilation:
        Dilation factor ``d``; the receptive field is ``k·d`` (Eq. 1).
    backend:
        ``"kdtree"`` (the client's index), ``"octree"`` (two-layer octree,
        §4.1) or ``"brute"`` (the vanilla cost model).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if dilation < 1:
        raise ValueError("dilation must be >= 1")
    n = len(cloud)
    rf = k * dilation
    if n < rf + 1:
        raise ValueError(
            f"cloud has {n} points; needs > k*dilation = {rf} for interpolation"
        )
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    pos = cloud.positions
    t0 = time.perf_counter()
    # One search serves partner selection *and* (via reuse) colorization and
    # refinement.
    neighbor_idx = self_neighbors(get_backend(backend, pos), rf)
    t_knn = time.perf_counter() - t0

    t1 = time.perf_counter()
    src = _plan_new_points(n, ratio, rng)
    m = len(src)
    if m == 0:
        return InterpolationResult(
            upsampled=cloud.copy(),
            n_source=n,
            parent_a=np.zeros(0, dtype=np.int64),
            parent_b=np.zeros(0, dtype=np.int64),
            neighbor_idx=neighbor_idx,
            knn_seconds=t_knn,
            assembly_seconds=time.perf_counter() - t1,
        )
    # Partner: a uniform draw from the dilated neighborhood of the source.
    partner_slot = rng.integers(0, rf, size=m)
    partners = neighbor_idx.take(src * rf + partner_slot)
    # row gathers by ``take``: 2-3x faster than a fancy index over 3-wide rows
    midpoints = 0.5 * (np.take(pos, src, axis=0) + np.take(pos, partners, axis=0))

    up_pos = np.vstack([pos, midpoints])
    # Colors for new points are assigned by the colorization stage; keep the
    # cloud geometry-only if the source has colors to avoid half-populated
    # attributes.
    up = PointCloud(up_pos, None)
    return InterpolationResult(
        upsampled=up,
        n_source=n,
        parent_a=src.astype(np.int64),
        parent_b=partners.astype(np.int64),
        neighbor_idx=neighbor_idx,
        knn_seconds=t_knn,
        assembly_seconds=time.perf_counter() - t1,
    )
