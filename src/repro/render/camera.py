"""Pinhole camera model for viewport rendering.

Provides the world→image projection the rasterizer uses.  Cameras are
parameterized by position, look-at target, and vertical field of view — the
natural parameterization for 6DoF traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Camera"]


@dataclass(frozen=True)
class Camera:
    """A pinhole camera.

    Attributes
    ----------
    position:
        World-space eye position.
    target:
        World-space look-at point.
    up:
        Approximate up vector (re-orthogonalized internally).
    fov_deg:
        Vertical field of view in degrees.
    width, height:
        Output image resolution in pixels.
    near:
        Near-plane distance; points closer are discarded.
    """

    position: tuple[float, float, float]
    target: tuple[float, float, float]
    up: tuple[float, float, float] = (0.0, 1.0, 0.0)
    fov_deg: float = 60.0
    width: int = 256
    height: int = 256
    near: float = 0.05

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image resolution must be positive")
        if not 0.0 < self.fov_deg < 180.0:
            raise ValueError("fov_deg must be in (0, 180)")
        if self.near <= 0:
            raise ValueError("near must be positive")

    # ------------------------------------------------------------------
    def basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Right-handed camera basis (right, up, forward)."""
        eye = np.asarray(self.position, dtype=np.float64)
        tgt = np.asarray(self.target, dtype=np.float64)
        fwd = tgt - eye
        norm = np.linalg.norm(fwd)
        if norm == 0:
            raise ValueError("camera position and target coincide")
        fwd /= norm
        up_hint = np.asarray(self.up, dtype=np.float64)
        right = np.cross(fwd, up_hint)
        rnorm = np.linalg.norm(right)
        if rnorm < 1e-12:
            # Up hint parallel to forward; pick any perpendicular axis.
            right = np.cross(fwd, np.array([1.0, 0.0, 0.0]))
            rnorm = np.linalg.norm(right)
            if rnorm < 1e-12:
                right = np.cross(fwd, np.array([0.0, 0.0, 1.0]))
                rnorm = np.linalg.norm(right)
        right /= rnorm
        up = np.cross(right, fwd)
        return right, up, fwd

    # ------------------------------------------------------------------
    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project world points to pixel coordinates.

        Returns ``(xy, depth, valid)`` where ``xy`` is ``(n, 2)`` float
        pixel coordinates, ``depth`` is the camera-space forward distance,
        and ``valid`` marks points in front of the near plane and inside
        the image rectangle.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (n, 3), got {pts.shape}")
        right, up, fwd = self.basis()
        eye = np.asarray(self.position, dtype=np.float64)
        rel = pts - eye
        x_cam = rel @ right
        y_cam = rel @ up
        z_cam = rel @ fwd
        in_front = z_cam > self.near
        f = 0.5 * self.height / np.tan(np.deg2rad(self.fov_deg) / 2.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            px = self.width / 2.0 + f * x_cam / z_cam
            py = self.height / 2.0 - f * y_cam / z_cam
        inside = (
            (px >= 0) & (px < self.width) & (py >= 0) & (py < self.height)
        )
        valid = in_front & inside
        xy = np.stack([px, py], axis=1)
        return xy, z_cam, valid

    def visible_mask(self, points: np.ndarray) -> np.ndarray:
        """Frustum-visibility mask."""
        _, _, valid = self.project(points)
        return valid
