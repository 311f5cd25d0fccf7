"""Volumetric-video datasets.

Exposes the four evaluation videos from the paper (§7.1) as lazily generated
:class:`VolumetricVideo` sequences:

* ``longdress`` and ``loot`` — 300 frames / 10 s, ~100K points per frame
  (looped ten times in streaming experiments, as the paper does);
* ``haggle`` — two interacting figures, 7,800 frames / 4.3 min;
* ``lab`` — a mostly static scene, 3,622 frames / 2 min.

Frame counts and per-frame point budgets match the paper; content is
procedural (see :mod:`repro.pointcloud.synthesis` and README's "Layout").
Frames are cached with a small LRU so streaming simulations that revisit
frames do not regenerate geometry.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from .cloud import PointCloud
from .synthesis import humanoid_frame, room_frame

__all__ = ["VolumetricVideo", "make_video", "VIDEO_NAMES", "PAPER_VIDEOS"]

VIDEO_NAMES = ("longdress", "loot", "haggle", "lab")

#: Paper-reported shape of each evaluation video.
PAPER_VIDEOS: dict[str, dict] = {
    "longdress": {"frames": 300, "fps": 30, "points": 100_000, "loops": 10},
    "loot": {"frames": 300, "fps": 30, "points": 100_000, "loops": 10},
    "haggle": {"frames": 7_800, "fps": 30, "points": 100_000, "loops": 1},
    "lab": {"frames": 3_622, "fps": 30, "points": 100_000, "loops": 1},
}


@dataclass
class VolumetricVideo:
    """A frame-indexed volumetric video.

    Frames are produced on demand by ``frame_fn(index)`` and memoized in an
    LRU cache of ``cache_size`` entries.  ``n_frames`` counts unique frames;
    iteration honours ``loops`` (the paper loops the 10-second videos ten
    times during streaming evaluation).
    """

    name: str
    n_frames: int
    fps: int
    frame_fn: Callable[[int], PointCloud]
    loops: int = 1
    cache_size: int = 16
    _cache: OrderedDict = field(default_factory=OrderedDict, repr=False)

    def __post_init__(self) -> None:
        if self.n_frames <= 0:
            raise ValueError("n_frames must be positive")
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.loops <= 0:
            raise ValueError("loops must be positive")

    # ------------------------------------------------------------------
    @property
    def n_playback_frames(self) -> int:
        """Total frames played, counting loops."""
        return self.n_frames * self.loops

    def frame(self, index: int) -> PointCloud:
        """Return playback frame ``index`` (loop-aware, cached)."""
        if not 0 <= index < self.n_playback_frames:
            raise IndexError(
                f"frame {index} out of range [0, {self.n_playback_frames})"
            )
        base = index % self.n_frames
        if base in self._cache:
            self._cache.move_to_end(base)
            return self._cache[base]
        cloud = self.frame_fn(base)
        self._cache[base] = cloud
        if len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
        return cloud

    def __len__(self) -> int:
        return self.n_playback_frames

    def __iter__(self) -> Iterator[PointCloud]:
        for i in range(self.n_playback_frames):
            yield self.frame(i)


def make_video(
    name: str,
    n_points: int | None = None,
    n_frames: int | None = None,
    seed: int = 0,
) -> VolumetricVideo:
    """Construct one of the paper's four evaluation videos.

    ``n_points`` and ``n_frames`` default to the paper's values but can be
    shrunk for fast tests (e.g. 2K points, 30 frames).
    """
    if name not in PAPER_VIDEOS:
        raise ValueError(f"unknown video {name!r}; choose from {VIDEO_NAMES}")
    spec = PAPER_VIDEOS[name]
    pts = spec["points"] if n_points is None else int(n_points)
    frames = spec["frames"] if n_frames is None else int(n_frames)
    fps = spec["fps"]

    if name == "longdress":
        def frame_fn(i: int) -> PointCloud:
            return humanoid_frame(pts, i / fps, seed=seed, sway=0.18, palette_seed=7)
    elif name == "loot":
        def frame_fn(i: int) -> PointCloud:
            return humanoid_frame(pts, i / fps, seed=seed + 100, sway=0.10,
                                  palette_seed=13)
    elif name == "haggle":
        def frame_fn(i: int) -> PointCloud:
            # Two interacting figures; each gets half the point budget.
            return humanoid_frame(pts // 2, i / fps, seed=seed + 200, sway=0.22,
                                  palette_seed=17, second_person_offset=0.9)
    else:  # lab
        def frame_fn(i: int) -> PointCloud:
            return room_frame(pts, i / fps, seed=seed + 300, palette_seed=21)

    return VolumetricVideo(
        name=name,
        n_frames=frames,
        fps=fps,
        frame_fn=frame_fn,
        loops=spec["loops"],
    )
