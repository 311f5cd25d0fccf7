"""Geometric point-cloud metrics (paper §7.1).

* :func:`chamfer_distance` — symmetric point-to-point (P2P) Chamfer
  distance, the paper's geometric-accuracy metric (Figs. 8/10);
* :func:`p2p_distances` — the one-directional nearest distances, also used
  by the D1-style geometry PSNR;
* :func:`geometry_psnr` — MPEG D1-style PSNR over point-to-point MSE with a
  bounding-box-diagonal peak, the standard scalar quality figure for
  geometry.
"""

from __future__ import annotations

import numpy as np

from ..pointcloud.cloud import PointCloud
from ..spatial.knn import kdtree_knn

__all__ = ["p2p_distances", "chamfer_distance", "geometry_psnr"]


def _positions(c: PointCloud | np.ndarray) -> np.ndarray:
    if isinstance(c, PointCloud):
        return c.positions
    arr = np.asarray(c, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected (n, 3) positions, got {arr.shape}")
    return arr


def p2p_distances(source: PointCloud | np.ndarray, target: PointCloud | np.ndarray) -> np.ndarray:
    """Distance from each source point to its nearest target point."""
    src, tgt = _positions(source), _positions(target)
    if len(tgt) == 0:
        raise ValueError("target cloud is empty")
    if len(src) == 0:
        return np.zeros(0)
    _, dist = kdtree_knn(tgt, src, 1)
    return dist[:, 0]


def chamfer_distance(
    a: PointCloud | np.ndarray, b: PointCloud | np.ndarray, squared: bool = False
) -> float:
    """Symmetric Chamfer distance: mean NN distance in both directions.

    ``squared=True`` averages squared distances (the common CD-L2 variant);
    the default averages Euclidean distances (CD-L1), which is what P2P
    Chamfer plots in the paper's units resemble.
    """
    d_ab = p2p_distances(a, b)
    d_ba = p2p_distances(b, a)
    if squared:
        return float(np.mean(d_ab ** 2) + np.mean(d_ba ** 2))
    return float(d_ab.mean() + d_ba.mean())


def geometry_psnr(
    test: PointCloud | np.ndarray,
    reference: PointCloud | np.ndarray,
    peak: float | None = None,
) -> float:
    """D1-style geometry PSNR in dB.

    ``peak`` defaults to the reference bounding-box diagonal (MPEG PCC
    convention).  Returns +inf for an exact match.
    """
    ref_pos = _positions(reference)
    if peak is None:
        lo, hi = ref_pos.min(axis=0), ref_pos.max(axis=0)
        peak = float(np.linalg.norm(hi - lo))
    if peak <= 0:
        raise ValueError("peak must be positive")
    d = p2p_distances(test, reference)
    mse = float(np.mean(d ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak ** 2 / mse))
