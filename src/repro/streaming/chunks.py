"""Chunked volumetric video representation (paper §3).

The server "segments videos into fixed-length chunks and encodes them at
requested point densities".  For streaming simulation, what matters per
chunk is its frame count, per-frame point budget, and the byte size at a
requested density — captured analytically by :class:`ChunkSpec` so sessions
over hours of content don't materialize geometry.  The encoder in
:mod:`repro.streaming.encoder` produces actual encoded point clouds for the
full-fidelity path.

``points_at_density`` / ``bytes_at_density`` state the size model once
(round-half-even, then truncation toward zero): the session charges a
chunk with them, and the planners build their per-candidate caches from
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "ChunkSpec",
    "VideoSpec",
    "COMPRESSED_BYTES_PER_POINT",
]

#: Transport format after GROOT-class geometry/attribute compression
#: (~2.5× over raw) — what every system in the paper actually ships.
#: Grounded by measurement: :func:`repro.compression.compression_summary`
#: reports 6.2 B/pt at depth 10 on 20K-point synthetic frames.
COMPRESSED_BYTES_PER_POINT = 6.0

#: Fixed per-chunk container/metadata overhead (manifest entry, header).
CHUNK_HEADER_BYTES = 256


@dataclass(frozen=True)
class ChunkSpec:
    """One fixed-length chunk of a volumetric video."""

    index: int
    n_frames: int
    points_per_frame: int
    duration: float  # seconds
    bytes_per_point: float = COMPRESSED_BYTES_PER_POINT

    def __post_init__(self) -> None:
        if self.n_frames <= 0 or self.points_per_frame <= 0:
            raise ValueError("chunk must contain frames and points")
        # chained so NaN fails them (every comparison with NaN is false)
        if not 0 < self.duration < math.inf:
            raise ValueError(
                f"ChunkSpec.duration must be finite and positive, got "
                f"{self.duration!r}"
            )
        if not 0 < self.bytes_per_point < math.inf:
            raise ValueError(
                f"ChunkSpec.bytes_per_point must be finite and positive, got "
                f"{self.bytes_per_point!r}"
            )

    def bytes_at_density(self, density: float) -> int:
        """Encoded size when downsampled to ``density`` ∈ (0, 1]."""
        if not 0.0 < density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {density}")
        pts = int(round(self.points_per_frame * density))
        return int(self.n_frames * pts * self.bytes_per_point) + CHUNK_HEADER_BYTES

    def points_at_density(self, density: float) -> int:
        """Per-frame point count at ``density``."""
        if not 0.0 < density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {density}")
        return int(round(self.points_per_frame * density))


@dataclass(frozen=True)
class VideoSpec:
    """Analytic description of a video for streaming simulation."""

    name: str
    n_frames: int
    fps: int
    points_per_frame: int
    bytes_per_point: float = COMPRESSED_BYTES_PER_POINT

    def __post_init__(self) -> None:
        if self.n_frames <= 0 or self.fps <= 0 or self.points_per_frame <= 0:
            raise ValueError("video dimensions must be positive")
        if not 0 < self.bytes_per_point < math.inf:
            raise ValueError(
                f"VideoSpec.bytes_per_point must be finite and positive, got "
                f"{self.bytes_per_point!r}"
            )

    @property
    def duration(self) -> float:
        return self.n_frames / self.fps

    @cached_property
    def _chunk_tables(self) -> dict[float, tuple[ChunkSpec, ...]]:
        """``chunk_seconds`` -> its table, for this instance only."""
        return {}

    def chunks(self, chunk_seconds: float = 1.0) -> tuple[ChunkSpec, ...]:
        """Split into fixed-length chunks (last chunk may be shorter).

        The table is built once per spec instance and ``chunk_seconds``
        and the same tuple is returned to every later call — every session
        of a fleet watching this spec shares it, so it is not to be
        modified (it is a tuple of frozen specs).
        """
        table = self._chunk_tables.get(chunk_seconds)
        if table is not None:
            return table
        if not 0 < chunk_seconds < math.inf:
            raise ValueError(
                f"chunk_seconds must be finite and positive, got {chunk_seconds!r}"
            )
        frames_per_chunk = max(1, int(round(chunk_seconds * self.fps)))
        specs = []
        start = 0
        idx = 0
        while start < self.n_frames:
            nf = min(frames_per_chunk, self.n_frames - start)
            specs.append(
                ChunkSpec(
                    index=idx,
                    n_frames=nf,
                    points_per_frame=self.points_per_frame,
                    duration=nf / self.fps,
                    bytes_per_point=self.bytes_per_point,
                )
            )
            start += nf
            idx += 1
        table = self._chunk_tables[chunk_seconds] = tuple(specs)
        return table
