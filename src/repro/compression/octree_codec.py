"""GROOT-class octree point-cloud codec.

The streaming systems in the paper (GROOT, ViVo, YuZu, VoLUT's server) all
ship octree-compressed geometry rather than raw float32 points; our
streaming byte model assumes ~6 bytes/point for the compressed transport
format.  This module implements the codec that grounds that constant:

* **geometry** — voxelize to a 2^depth grid and serialize the occupancy
  octree breadth-first, one *occupancy byte* (8 child-presence bits) per
  internal node.  On surface-sampled content this costs ~1–1.5 bytes per
  occupied leaf, matching published octree-codec rates;
* **attributes** — per-voxel mean RGB, delta-coded along the Morton curve
  (neighbors on the curve are spatial neighbors, and our textures — like
  real captures — are locally smooth, so deltas are small and the stream is
  friendly to any entropy stage; we additionally apply a cheap zero-run
  length pass).

The codec is lossy exactly the way real pipelines are: positions snap to
voxel centers (bounded by the grid resolution) and co-located points merge.

Wire format
-----------
A 34-byte header — magic ``OCPC``, depth (u8, 1…21), has_colors (u8), bbox
(6 × f32 LE: ``lo`` then ``hi``, finite, ``lo <= hi`` on each axis), voxel
count (u32 LE) — then ``depth`` occupancy levels, then, when has_colors is
set, ``rle_len`` (u32 LE) and that many RLE bytes.

*Levels.*  Level 0 is the root's single occupancy byte; level ``l`` holds
one byte per node level ``l - 1`` produced, in Morton order, so its size
is the popcount of the level before and no length is stored.  Bit ``j`` of
the ``i``-th byte says child ``j`` of the ``i``-th node exists, with code
``(parent << 3) | j``; the decoder unpacks a level little-endian and reads
set bit ``8 * i + j`` as exactly that pair.  The last level's children are
the leaf voxels, already sorted.

*Zero-RLE* (over the mod-256 color deltas, R G B per voxel in leaf order).
Two tokens: a **literal** is one nonzero byte standing for itself; an
**escape pair** ``0x00 r`` stands for ``r + 1`` zeros (1…256; the encoder
splits longer stretches into full pairs and a remainder).  A length byte
always directly follows an escape, which is a zero — so the first zero of a
maximal zero stretch *in the encoded stream*, whose predecessor is nonzero
or absent, can never be a length byte: it is an escape.  The zeros of a
stretch therefore alternate escape, length, escape, …: **a zero is an
escape iff its index inside its stretch is even**, the byte after an escape
(zero or not) is its length, and every other byte is a literal.  That rule
classifies every byte without walking the stream, which is what lets both
directions run at array speed; the byte-at-a-time loops they replaced are
the oracle in ``tests/compression/reference_codec.py``.

Kernels
-------
Set bits are found on bool masks: ``np.flatnonzero`` is several times
faster on a bool array than on the uint8 / int64 array it was computed
from, so every call here gets one (an unpacked occupancy level is viewed as
bool; integer arrays are compared with ``!= 0`` first).  The Morton sort
need not be stable: leaf codes come out sorted and unique whatever the
input order, and the per-voxel colour sum adds uint8 values in float64, so
it is an exact integer in any order.  The payload therefore does not depend
on the order of the input points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..pointcloud.cloud import PointCloud
from .morton import MAX_DEPTH, morton_decode, morton_encode

__all__ = ["EncodedCloud", "octree_encode", "octree_decode", "compression_summary"]

_MAGIC = b"OCPC"
#: magic (4) + depth (1) + has_colors (1) + bbox (6 × f32) + voxel count (u32)
_HEADER_BYTES = 34


@dataclass
class EncodedCloud:
    """An octree-encoded point cloud plus its serialization."""

    payload: bytes
    n_voxels: int
    depth: int

    @property
    def nbytes(self) -> int:
        return len(self.payload)

    def bytes_per_point(self) -> float:
        return self.nbytes / max(self.n_voxels, 1)


def _zero_rle_encode(data: np.ndarray) -> bytes:
    """Zero-run-length code a byte stream (grammar in the module docstring).

    Works on the maximal zero stretches: a stretch of ``L`` zeros becomes
    ``ceil(L / 256)`` escape pairs, and every literal moves by the net
    growth of the stretches before it.
    """
    data = np.asarray(data, dtype=np.uint8)
    n = len(data)
    zero = np.zeros(n + 2, dtype=bool)
    np.equal(data, 0, out=zero[1:-1])
    edges = np.flatnonzero(zero[1:] != zero[:-1])
    starts, ends = edges[::2], edges[1::2]
    lengths = ends - starts
    pairs = (lengths + 255) >> 8
    growth = 2 * pairs - lengths
    shift = np.cumsum(growth)  # output index − input index, past each stretch
    out = np.zeros(n + int(growth.sum()), dtype=np.uint8)

    # Literals: the run before stretch s moved by shift[s - 1], the tail by shift[-1].
    literal = np.flatnonzero(data != 0)
    run_shift = np.concatenate(([0], shift))
    run_len = np.concatenate((starts, [n])) - np.concatenate(([0], ends))
    out[literal + np.repeat(run_shift, run_len)] = data[literal]

    # Escape bytes are the zeros ``out`` starts with; run lengths follow
    # them: 255 for every full pair, the remainder for a stretch's last.
    extra = pairs - 1
    full = np.repeat(starts + shift - growth + 1, extra)
    nth = np.arange(len(full)) - np.repeat(np.cumsum(extra) - extra, extra)
    out[full + 2 * nth] = 255
    out[ends + shift - 1] = (lengths - 1) & 0xFF
    return out.tobytes()


def _zero_rle_decode(data: bytes, expected: int) -> np.ndarray:
    """Inverse of :func:`_zero_rle_encode`; stops once ``expected`` bytes
    are out (trailing input is not read, as a streaming decoder would)."""
    buf = np.frombuffer(data, dtype=np.uint8)
    n = len(buf)
    # A zero is an escape iff its index inside its maximal zero stretch is even.
    zeros = np.flatnonzero(buf == 0)
    opens = np.ones(len(zeros), dtype=bool)
    np.not_equal(zeros[1:], zeros[:-1] + 1, out=opens[1:])
    stretch_start = np.maximum.accumulate(np.where(opens, zeros, 0))
    escapes = zeros[(zeros - stretch_start) & 1 == 0]
    truncated = bool((escapes[-1:] == n - 1).any())  # a last escape with no length byte
    paired = escapes[: len(escapes) - truncated]

    # Output bytes each input byte emits: literal 1, escape its run, length
    # byte 0 — and 0 for a dangling escape, which raises if it is reached.
    emits = np.ones(n, dtype=np.int64)
    emits[paired] = buf[paired + 1].astype(np.int64) + 1
    emits[paired + 1] = 0
    emits[escapes[len(paired) :]] = 0
    ends = np.cumsum(emits)
    begins = ends - emits
    used = int(np.searchsorted(begins, expected, side="left"))  # bytes read before output fills
    produced = int(ends[used - 1]) if used else 0
    if produced > expected:
        raise ValueError("zero run overflows output")
    if produced < expected:
        if truncated:
            raise ValueError("truncated zero run")
        raise ValueError(f"RLE stream decoded {produced} of {expected} bytes")
    out = np.zeros(expected, dtype=np.uint8)
    writes = np.flatnonzero(emits[:used] != 0)  # an escape writes its own 0x00, harmlessly
    out[begins[writes]] = buf[writes]
    return out


def _occupancy_bytes(codes: np.ndarray, depth: int) -> list[np.ndarray]:
    """Per-level occupancy bytes, root level first.

    ``codes`` are sorted unique leaf Morton codes.  At each level, children
    sharing a parent contribute presence bits to one byte; parents are
    visited in sorted order, which is exactly the order the decoder
    regenerates them in.
    """
    levels: list[np.ndarray] = []
    current = codes
    for _ in range(depth):
        parents = current >> np.uint64(3)
        opens = np.ones(len(current), dtype=bool)  # first child of its parent (codes are sorted)
        np.not_equal(parents[1:], parents[:-1], out=opens[1:])
        boundary = np.flatnonzero(opens)
        bit = np.uint8(1) << (current & np.uint64(7)).astype(np.uint8)
        levels.append(np.bitwise_or.reduceat(bit, boundary))
        current = parents[boundary]
    levels.reverse()  # root first
    return levels


def octree_encode(cloud: PointCloud, depth: int = 10) -> EncodedCloud:
    """Encode ``cloud`` at ``2^depth`` voxels per axis.

    Layout: magic, depth (u8), has_colors (u8), bbox (6 × f32), voxel
    count (u32), per-level occupancy streams, then RLE'd Morton-order color
    deltas when colors are present.
    """
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [1, {MAX_DEPTH}]")
    n = len(cloud)
    if n == 0:
        header = _MAGIC + bytes([depth, 0]) + np.zeros(6, "<f4").tobytes()
        return EncodedCloud(
            payload=header + np.array([0], "<u4").tobytes(), n_voxels=0, depth=depth
        )
    lo, hi = cloud.bounds()
    span = np.maximum(hi - lo, 1e-12)
    cells = 1 << depth
    ijk = np.minimum(
        (cloud.positions - lo) / span * cells, cells - 1
    ).astype(np.int64)
    codes = morton_encode(ijk)
    # Unstable is fine: the payload does not depend on the order of the input points.
    order = np.argsort(codes)
    sorted_codes = codes[order]
    uniq_mask = np.r_[True, sorted_codes[1:] != sorted_codes[:-1]]
    leaf_codes = sorted_codes[uniq_mask]
    n_voxels = len(leaf_codes)

    parts = [
        _MAGIC,
        bytes([depth, 1 if cloud.has_colors else 0]),
        np.concatenate([lo, hi]).astype("<f4").tobytes(),
        np.array([n_voxels], "<u4").tobytes(),
    ]
    for level in _occupancy_bytes(leaf_codes, depth):
        parts.append(level.tobytes())

    if cloud.has_colors:
        # Mean color per voxel, in leaf (Morton) order.
        starts = np.flatnonzero(uniq_mask)
        counts = np.diff(starts, append=n)
        sums = np.add.reduceat(cloud.colors[order].astype(np.float64), starts, axis=0)
        voxel_rgb = np.clip(np.round(sums / counts[:, None]), 0, 255).astype(np.uint8)
        flat = voxel_rgb.reshape(-1)
        deltas = flat.copy()
        deltas[1:] -= flat[:-1]  # uint8 wraps: the mod-256 deltas of the wire format
        rle = _zero_rle_encode(deltas)
        parts.append(np.array([len(rle)], "<u4").tobytes())
        parts.append(rle)

    return EncodedCloud(payload=b"".join(parts), n_voxels=n_voxels, depth=depth)


def octree_decode(encoded: EncodedCloud | bytes) -> PointCloud:
    """Decode to voxel-center positions (+ per-voxel colors).

    ``encoded`` may be any bytes-like object; a malformed payload raises
    ``ValueError`` naming the field that is wrong.
    """
    payload = encoded.payload if isinstance(encoded, EncodedCloud) else encoded
    if payload[:4] != _MAGIC:
        raise ValueError("not an octree-codec payload")
    buf = np.frombuffer(payload, dtype=np.uint8)
    if len(buf) < _HEADER_BYTES:
        raise ValueError(
            f"octree payload truncated: {len(buf)} bytes, the header is {_HEADER_BYTES}"
        )
    depth = int(buf[4])
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"octree payload depth {depth} outside [1, {MAX_DEPTH}]")
    has_colors = bool(buf[5])
    bbox = np.frombuffer(payload, "<f4", count=6, offset=6).astype(np.float64)
    lo, hi = bbox[:3], bbox[3:]
    for axis, a, b in zip("xyz", lo, hi):
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ValueError(f"octree payload bbox is not finite on axis {axis}: [{a}, {b}]")
        if a > b:
            raise ValueError(f"octree payload bbox is inverted on axis {axis}: {a} > {b}")
    n_voxels = int(np.frombuffer(payload, "<u4", count=1, offset=30)[0])
    off = _HEADER_BYTES
    if n_voxels == 0:
        return PointCloud.empty(with_colors=has_colors)

    # Walk levels root-down, expanding occupancy bytes into child codes:
    # set bit 8 * i + j is child j of the level's i-th node.
    codes = np.zeros(1, dtype=np.uint64)  # the root
    for _ in range(depth):
        occ = buf[off : off + len(codes)]
        if len(occ) < len(codes):
            raise ValueError("occupancy stream truncated")
        off += len(codes)
        flat = np.flatnonzero(np.unpackbits(occ, bitorder="little").view(bool))
        codes = (codes[flat >> 3] << np.uint64(3)) | (flat & 7).astype(np.uint64)
    if len(codes) != n_voxels:
        raise ValueError(
            f"decoded {len(codes)} leaves, header promised {n_voxels}"
        )

    cells = 1 << depth
    ijk = morton_decode(codes)
    span = np.maximum(hi - lo, 1e-12)
    pos = lo + (ijk + 0.5) / cells * span

    colors = None
    if has_colors:
        if off + 4 > len(buf):
            raise ValueError("color flag set but the payload ends before the color section")
        rle_len = int(np.frombuffer(payload, "<u4", count=1, offset=off)[0])
        off += 4
        if off + rle_len > len(buf):
            raise ValueError(
                f"color section claims {rle_len} bytes, {len(buf) - off} remain"
            )
        delta_bytes = _zero_rle_decode(buf[off : off + rle_len], n_voxels * 3)
        # Deltas were taken mod 256, so a wrapping running sum restores them.
        colors = np.cumsum(delta_bytes, dtype=np.uint8).reshape(n_voxels, 3)
    return PointCloud(pos, colors)


def compression_summary(cloud: PointCloud, depth: int = 10) -> dict:
    """Rate/distortion of the codec on ``cloud`` (used by tests/benches)."""
    from ..metrics.chamfer import chamfer_distance

    enc = octree_encode(cloud, depth)
    dec = octree_decode(enc)
    raw = cloud.nbytes()
    return {
        "depth": depth,
        "n_points": len(cloud),
        "n_voxels": enc.n_voxels,
        "raw_bytes": raw,
        "compressed_bytes": enc.nbytes,
        "bytes_per_point": enc.bytes_per_point(),
        "compression_ratio": raw / max(enc.nbytes, 1),
        "chamfer": chamfer_distance(dec, cloud),
    }
