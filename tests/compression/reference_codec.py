"""The byte-loop octree codec ``src/repro/compression/octree_codec.py`` had
through PR 20, kept as the oracle for its array-speed successor.

Same wire format, written the obvious way: the zero-RLE walks the stream
one byte at a time in both directions, occupancy bytes are accumulated
with ``np.bitwise_or.at``, and the decoder expands a level through a 2-D
``(nodes, 8)`` bit table.  ``test_octree_codec.py::TestReferenceParity`` holds
production equal to this — payload bytes, decoded arrays, and the outcome
(bytes or exception message) on corrupt RLE streams.  Shares only the
Morton helpers and :class:`PointCloud` with ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.compression.morton import morton_decode, morton_encode
from repro.pointcloud.cloud import PointCloud

MAGIC = b"OCPC"


def zero_rle_encode(data: np.ndarray) -> bytes:
    """``0x00`` is escaped as ``0x00 <run-1>`` (run ≤ 256)."""
    data = np.asarray(data, dtype=np.uint8)
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        b = data[i]
        if b != 0:
            out.append(b)
            i += 1
            continue
        run = 1
        while i + run < n and run < 256 and data[i + run] == 0:
            run += 1
        out.append(0)
        out.append(run - 1)
        i += run
    return bytes(out)


def zero_rle_decode(data: bytes, expected: int) -> np.ndarray:
    out = np.empty(expected, dtype=np.uint8)
    pos = 0
    i = 0
    n = len(data)
    while i < n and pos < expected:
        b = data[i]
        if b != 0:
            out[pos] = b
            pos += 1
            i += 1
        else:
            if i + 1 >= n:
                raise ValueError("truncated zero run")
            run = data[i + 1] + 1
            if pos + run > expected:
                raise ValueError("zero run overflows output")
            out[pos : pos + run] = 0
            pos += run
            i += 2
    if pos != expected:
        raise ValueError(f"RLE stream decoded {pos} of {expected} bytes")
    return out


def occupancy_bytes(codes: np.ndarray, depth: int) -> list[np.ndarray]:
    """Per-level occupancy bytes, root level first, from sorted unique
    leaf Morton codes."""
    levels: list[np.ndarray] = []
    current = codes
    for _ in range(depth):
        parents = current >> np.uint64(3)
        child = (current & np.uint64(7)).astype(np.int64)
        boundary = np.flatnonzero(np.r_[True, parents[1:] != parents[:-1]])
        group_of = np.cumsum(np.r_[True, parents[1:] != parents[:-1]]) - 1
        occ = np.zeros(len(boundary), dtype=np.uint8)
        np.bitwise_or.at(occ, group_of, (1 << child).astype(np.uint8))
        levels.append(occ)
        current = parents[boundary]
    levels.reverse()
    return levels


def expand_level(codes: np.ndarray, occ: np.ndarray) -> np.ndarray:
    """Child codes of ``codes`` under occupancy bytes ``occ``, in order."""
    bits = (occ[:, None] >> np.arange(8, dtype=np.uint8)) & 1
    parent_idx, child = np.nonzero(bits)
    return (codes[parent_idx] << np.uint64(3)) | child.astype(np.uint64)


def reference_encode(cloud: PointCloud, depth: int = 10) -> bytes:
    """The payload ``octree_encode(cloud, depth)`` must produce."""
    n = len(cloud)
    if n == 0:
        header = MAGIC + bytes([depth, 0]) + np.zeros(6, "<f4").tobytes()
        return header + np.array([0], "<u4").tobytes()
    lo, hi = cloud.bounds()
    span = np.maximum(hi - lo, 1e-12)
    cells = 1 << depth
    ijk = np.minimum((cloud.positions - lo) / span * cells, cells - 1).astype(np.int64)
    codes = morton_encode(ijk)
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    uniq_mask = np.r_[True, sorted_codes[1:] != sorted_codes[:-1]]
    leaf_codes = sorted_codes[uniq_mask]
    n_voxels = len(leaf_codes)

    parts = [
        MAGIC,
        bytes([depth, 1 if cloud.has_colors else 0]),
        np.concatenate([lo, hi]).astype("<f4").tobytes(),
        np.array([n_voxels], "<u4").tobytes(),
    ]
    for level in occupancy_bytes(leaf_codes, depth):
        parts.append(level.tobytes())

    if cloud.has_colors:
        starts = np.flatnonzero(uniq_mask)
        counts = np.diff(np.r_[starts, n])
        col_sorted = cloud.colors[order].astype(np.float64)
        sums = np.add.reduceat(col_sorted, starts, axis=0)
        voxel_rgb = np.clip(np.round(sums / counts[:, None]), 0, 255).astype(np.uint8)
        flat = voxel_rgb.reshape(-1).astype(np.int16)
        deltas = np.diff(np.r_[np.int16(0), flat]).astype(np.int16)
        rle = zero_rle_encode((deltas & 0xFF).astype(np.uint8))
        parts.append(np.array([len(rle)], "<u4").tobytes())
        parts.append(rle)
    return b"".join(parts)


def reference_decode(payload: bytes) -> PointCloud:
    """The cloud ``octree_decode(payload)`` must produce (well-formed
    payloads only; the header checks are production's)."""
    depth = payload[4]
    has_colors = bool(payload[5])
    off = 6
    bbox = np.frombuffer(payload[off : off + 24], "<f4").astype(np.float64)
    lo, hi = bbox[:3], bbox[3:]
    off += 24
    n_voxels = int(np.frombuffer(payload[off : off + 4], "<u4")[0])
    off += 4
    if n_voxels == 0:
        return PointCloud.empty(with_colors=has_colors)

    codes = np.zeros(1, dtype=np.uint64)
    for _ in range(depth):
        n_nodes = len(codes)
        occ = np.frombuffer(payload[off : off + n_nodes], np.uint8)
        off += n_nodes
        codes = expand_level(codes, occ)

    cells = 1 << depth
    span = np.maximum(hi - lo, 1e-12)
    pos = lo + (morton_decode(codes) + 0.5) / cells * span

    colors = None
    if has_colors:
        rle_len = int(np.frombuffer(payload[off : off + 4], "<u4")[0])
        off += 4
        delta_bytes = zero_rle_decode(payload[off : off + rle_len], n_voxels * 3)
        deltas = delta_bytes.astype(np.int8).astype(np.int16)
        flat = np.cumsum(deltas).astype(np.int16) & 0xFF
        colors = flat.reshape(n_voxels, 3).astype(np.uint8)
    return PointCloud(pos, colors)
