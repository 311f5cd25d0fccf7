"""Downsampling strategies.

VoLUT's server performs **random downsampling** (paper §5.2): a uniform
random subset of the points is kept, which is cheap enough for
video-on-demand encoding and —
combined with the robust upsampling pipeline — gives sufficient quality.
Farthest-point sampling (FPS) is implemented as the quality-first baseline
the paper rejects for latency reasons (§4.1), and voxel-grid downsampling is
provided as the standard geometric alternative.
"""

from __future__ import annotations

import numpy as np

from .cloud import PointCloud

__all__ = ["random_downsample_count", "voxel_downsample", "farthest_point_sample"]


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_downsample_count(
    cloud: PointCloud, n_target: int, seed: int | np.random.Generator | None = None
) -> PointCloud:
    """Uniformly sample exactly ``n_target`` points without replacement.

    This is the paper's ``P_select(p_i) = r`` selection rule with the count
    fixed at ``r * n`` instead of binomially distributed around it, so the
    streaming encoder's chunk sizes are deterministic.
    """
    n = len(cloud)
    if n_target < 0:
        raise ValueError("n_target must be non-negative")
    if n_target >= n:
        return cloud.copy()
    rng = _rng(seed)
    # The draw has no repeats, so marking it on a mask sorts it in O(n).
    keep = np.zeros(n, dtype=bool)
    keep[rng.choice(n, size=n_target, replace=False)] = True
    return cloud.select(np.flatnonzero(keep))


def voxel_downsample(cloud: PointCloud, voxel_size: float) -> PointCloud:
    """Keep one representative point (the centroid) per occupied voxel.

    Colors, when present, are averaged per voxel.
    """
    if not 0 < voxel_size < np.inf:
        raise ValueError(f"voxel_size must be positive and finite, got {voxel_size}")
    if len(cloud) == 0:
        return cloud.copy()
    lo, _ = cloud.bounds()
    keys = np.floor((cloud.positions - lo) / voxel_size).astype(np.int64)
    # Lexicographic voxel id: encode the 3 indices into one int64 key.
    spans = keys.max(axis=0) + 1
    flat = (keys[:, 0] * spans[1] + keys[:, 1]) * spans[2] + keys[:, 2]
    order = np.argsort(flat, kind="stable")
    flat_sorted = flat[order]
    # Segment boundaries of equal voxel ids.
    starts = np.flatnonzero(np.r_[True, flat_sorted[1:] != flat_sorted[:-1]])
    counts = np.diff(np.r_[starts, len(flat_sorted)])
    pos_sorted = cloud.positions[order]
    sums = np.add.reduceat(pos_sorted, starts, axis=0)
    centroids = sums / counts[:, None]
    colors = None
    if cloud.has_colors:
        col_sorted = cloud.colors[order].astype(np.float64)
        csums = np.add.reduceat(col_sorted, starts, axis=0)
        colors = np.clip(np.round(csums / counts[:, None]), 0, 255).astype(np.uint8)
    return PointCloud(centroids, colors)


def farthest_point_sample(
    cloud: PointCloud,
    n_target: int,
    seed: int | np.random.Generator | None = None,
) -> PointCloud:
    """Farthest-point sampling (FPS).

    Iteratively picks the point farthest from the already-selected set.
    O(n_target * n) — the paper measures ≥5 minutes for 200K→100K on a
    desktop, which is exactly why VoLUT uses random sampling instead; we
    keep FPS as the quality-oriented baseline and for the downsampling
    ablation.
    """
    n = len(cloud)
    if n_target < 0:
        raise ValueError("n_target must be non-negative")
    if n_target >= n:
        return cloud.copy()
    if n_target == 0:
        return cloud.select(np.zeros(0, dtype=np.int64))
    rng = _rng(seed)
    pos = cloud.positions
    chosen = np.empty(n_target, dtype=np.int64)
    chosen[0] = rng.integers(n)
    # Distance of every point to the nearest chosen point so far.
    dist = np.linalg.norm(pos - pos[chosen[0]], axis=1)
    for i in range(1, n_target):
        nxt = int(np.argmax(dist))
        chosen[i] = nxt
        np.minimum(dist, np.linalg.norm(pos - pos[nxt], axis=1), out=dist)
    chosen.sort()
    return cloud.select(chosen)
