"""Morton (Z-order) codes for voxelized point clouds.

Octree geometry coding serializes occupancy level by level; sorting voxels
by Morton code makes parent/child grouping a pure integer operation
(``code >> 3`` is the parent, ``code & 7`` the child slot), which keeps the
whole codec vectorized.
"""

from __future__ import annotations

import numpy as np

__all__ = ["morton_encode", "morton_decode", "MAX_DEPTH"]

#: 21 bits per axis fills a uint64 (3 * 21 = 63 bits).
MAX_DEPTH = 21


def _part1by2(x: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of each value: bit i -> bit 3i."""
    x = x.astype(np.uint64) & np.uint64(0x1FFFFF)
    x = (x | (x << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x << np.uint64(2))) & np.uint64(0x1249249249249249)
    return x


def _compact1by2(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_part1by2`: bit 3i -> bit i."""
    x = x.astype(np.uint64) & np.uint64(0x1249249249249249)
    x = (x | (x >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x >> np.uint64(8))) & np.uint64(0x1F0000FF0000FF)
    x = (x | (x >> np.uint64(16))) & np.uint64(0x1F00000000FFFF)
    x = (x | (x >> np.uint64(32))) & np.uint64(0x1FFFFF)
    return x


def morton_encode(ijk: np.ndarray) -> np.ndarray:
    """Interleave ``(n, 3)`` non-negative integer voxel coordinates.

    Bit layout: x occupies bits 0, 3, 6, …; y bits 1, 4, 7, …; z bits
    2, 5, 8, … — so ``code & 7`` is the child octant at the deepest level.
    """
    ijk = np.asarray(ijk)
    if ijk.ndim != 2 or ijk.shape[1] != 3:
        raise ValueError(f"expected (n, 3) voxel coordinates, got {ijk.shape}")
    if ijk.min(initial=0) < 0:
        raise ValueError("voxel coordinates must be non-negative")
    if ijk.max(initial=0) >= (1 << MAX_DEPTH):
        raise ValueError(f"voxel coordinates exceed {MAX_DEPTH}-bit range")
    return (
        _part1by2(ijk[:, 0])
        | (_part1by2(ijk[:, 1]) << np.uint64(1))
        | (_part1by2(ijk[:, 2]) << np.uint64(2))
    )


def morton_decode(codes: np.ndarray) -> np.ndarray:
    """Inverse of :func:`morton_encode`: codes → ``(n, 3)`` int64 coords.

    The result is the transpose of a ``(3, n)`` array, so each axis
    (``.T[axis]``) is contiguous.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    ijk = np.empty((3, len(codes)), dtype=np.int64)
    for axis in range(3):
        ijk[axis] = _compact1by2(codes >> np.uint64(axis))
    return ijk.T
