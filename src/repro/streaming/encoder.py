"""Server-side encoding: random downsampling to a requested density, then
the octree codec.

This is the one wire format: the concrete (geometry-materializing)
counterpart of the analytic :class:`repro.streaming.chunks.ChunkSpec`
path, whose ``COMPRESSED_BYTES_PER_POINT`` it grounds.  Per the paper
(§5.2), the server downsamples with independent random selection and ships
GROOT-class compressed frames.  ``examples/end_to_end_client.py`` is the
full-fidelity loop that carries these payloads through the codec and the
SR pipeline; the fleet's ``SessionMachine`` plays sessions on the analytic
sizes alone.
"""

from __future__ import annotations

from ..pointcloud.cloud import PointCloud
from ..pointcloud.sampling import random_downsample_count

__all__ = ["encode_frame_compressed", "decode_frame_compressed"]


def encode_frame_compressed(
    frame: PointCloud, density: float, depth: int = 10, seed: int | None = 0
) -> bytes:
    """Downsample ``frame`` to ``density`` and serialize it with the octree
    codec (what the paper's server ships)."""
    from ..compression.octree_codec import octree_encode

    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    n_keep = max(1, int(round(len(frame) * density)))
    low = random_downsample_count(frame, n_keep, seed=seed)
    return octree_encode(low, depth=depth).payload


def decode_frame_compressed(payload: bytes) -> PointCloud:
    """Inverse of :func:`encode_frame_compressed`."""
    from ..compression.octree_codec import octree_decode

    return octree_decode(payload)
