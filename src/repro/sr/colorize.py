"""Colorization of interpolated points (paper §4.1).

New points take the color of the nearest *original* point.  VoLUT reuses
the spatial relationships already computed during geometric interpolation —
each midpoint's nearest original point is, except in degenerate cases, one
of its two parents — avoiding a second kNN pass.  A fresh-search variant is
kept as the vanilla cost model.
"""

from __future__ import annotations

import numpy as np

from ..pointcloud.cloud import PointCloud
from ..spatial.knn import get_backend
from .interpolation import InterpolationResult

__all__ = ["colorize_by_parent", "colorize_by_nearest", "nearer_parent"]


def nearer_parent(source_positions: np.ndarray, interp: InterpolationResult) -> np.ndarray:
    """``(m,)`` index of each new point's nearer parent; ``parent_a`` on a tie.

    Distances are ``sqrt((dx² + dy²) + dz²)`` summed per axis from
    contiguous coordinate columns — the value ``np.linalg.norm`` returns
    for a row, without its ``(m, 3)`` temporaries.  The square root stays:
    off the codec's lattice a midpoint's two squared distances usually
    differ in the last bit, a few per thousand of them round to the same
    distance, and that tie goes to ``parent_a``.
    """
    pa, pb = interp.parent_a, interp.parent_b
    new = interp.new_positions
    da = db = None
    for axis in range(3):
        coords = np.ascontiguousarray(source_positions[:, axis])
        target = np.ascontiguousarray(new[:, axis])
        xa = coords[pa] - target
        xa *= xa
        xb = coords[pb] - target
        xb *= xb
        da = xa if da is None else np.add(da, xa, out=da)
        db = xb if db is None else np.add(db, xb, out=db)
    return np.where(np.sqrt(da, out=da) <= np.sqrt(db, out=db), pa, pb)


def colorize_by_parent(source: PointCloud, interp: InterpolationResult) -> PointCloud:
    """VoLUT path: color each new point from its nearer parent.

    Reuses ``parent_a``/``parent_b`` from interpolation — O(m) with no
    search.  Returns the upsampled cloud with full color attributes, or a
    geometry-only cloud when the source has no colors.
    """
    if not source.has_colors:
        return interp.upsampled.copy()
    nearest = nearer_parent(source.positions, interp)
    colors = np.vstack([source.colors, source.colors[nearest]])
    return PointCloud(interp.upsampled.positions.copy(), colors)


def colorize_by_nearest(
    source: PointCloud,
    interp: InterpolationResult,
    backend: str = "brute",
) -> PointCloud:
    """Vanilla path: a fresh nearest-neighbor search per new point."""
    if not source.has_colors:
        return interp.upsampled.copy()
    index = get_backend(backend, source.positions)
    idx, _ = index.query(interp.new_positions, 1)
    colors = np.vstack([source.colors, source.colors[idx[:, 0]]])
    return PointCloud(interp.upsampled.positions.copy(), colors)
