"""Z-buffer point-splat rasterizer.

Renders a point cloud to an RGB image with per-pixel depth testing —
the minimal software stand-in for the paper's OpenGL viewer, sufficient for
the image-PSNR protocol (§7.2).  Splats are square (``splat`` pixels on a
side) and resolved nearest-first, fully vectorized with
``np.minimum.at``-style scatter reduction.
"""

from __future__ import annotations

import numpy as np

from ..pointcloud.cloud import PointCloud
from .camera import Camera

__all__ = ["render"]

_BACKGROUND = np.array([0, 0, 0], dtype=np.uint8)


def _splat_offsets(splat: int) -> np.ndarray:
    if splat < 1:
        raise ValueError("splat must be >= 1")
    half = (splat - 1) // 2
    r = np.arange(-half, splat - half)
    return np.stack(np.meshgrid(r, r, indexing="ij"), axis=-1).reshape(-1, 2)


def _rasterize(
    cloud: PointCloud, camera: Camera, splat: int
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (winner point index per pixel or -1, depth buffer)."""
    h, w = camera.height, camera.width
    zbuf = np.full(h * w, np.inf)
    winner = np.full(h * w, -1, dtype=np.int64)
    xy, depth, valid = camera.project(cloud.positions)
    if not valid.any():
        return winner.reshape(h, w), zbuf.reshape(h, w)
    idx = np.flatnonzero(valid)
    px = xy[idx].astype(np.int64)
    d = depth[idx]
    for dx, dy in _splat_offsets(splat):
        x = px[:, 0] + dx
        y = px[:, 1] + dy
        ok = (x >= 0) & (x < w) & (y >= 0) & (y < h)
        flat = y[ok] * w + x[ok]
        dd = d[ok]
        ii = idx[ok]
        # Depth-test scatter: keep the nearest point per pixel.  A single
        # minimum.at pass establishes the winning depth; a second pass
        # writes the winning point id where depths match.
        np.minimum.at(zbuf, flat, dd)
        hit = dd <= zbuf[flat]
        winner[flat[hit]] = ii[hit]
    return winner.reshape(h, w), zbuf.reshape(h, w)


def render(
    cloud: PointCloud,
    camera: Camera,
    splat: int = 2,
    background: np.ndarray | None = None,
) -> np.ndarray:
    """Render ``cloud`` to an ``(H, W, 3)`` uint8 image.

    Colorless clouds render with depth-shaded grey so geometry-only
    comparisons still produce meaningful images.
    """
    bg = _BACKGROUND if background is None else np.asarray(background, dtype=np.uint8)
    winner, zbuf = _rasterize(cloud, camera, splat)
    h, w = winner.shape
    img = np.empty((h, w, 3), dtype=np.uint8)
    img[:] = bg
    hit = winner >= 0
    if not hit.any():
        return img
    if cloud.has_colors:
        img[hit] = cloud.colors[winner[hit]]
    else:
        z = zbuf[hit]
        zmin, zmax = z.min(), z.max()
        span = zmax - zmin if zmax > zmin else 1.0
        # Map depth to [64, 255] so the farthest point stays visible
        # against the (default black) background.
        shade = (255.0 - 191.0 * (z - zmin) / span).astype(np.uint8)
        img[hit] = shade[:, None]
    return img
