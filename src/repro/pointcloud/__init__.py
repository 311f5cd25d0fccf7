"""Point-cloud containers, sampling, and procedural datasets."""

from .cloud import PointCloud
from .datasets import PAPER_VIDEOS, VIDEO_NAMES, VolumetricVideo, make_video
from .sampling import farthest_point_sample, random_downsample_count, voxel_downsample
from .synthesis import humanoid_frame, room_frame

__all__ = [
    "PointCloud",
    "VolumetricVideo",
    "make_video",
    "VIDEO_NAMES",
    "PAPER_VIDEOS",
    "random_downsample_count",
    "voxel_downsample",
    "farthest_point_sample",
    "humanoid_frame",
    "room_frame",
]
