"""VoLUT's core contribution: LUT-based point-cloud super-resolution."""

from .colorize import colorize_by_nearest, colorize_by_parent
from .encoding import EncodedNeighborhood, PositionEncoder
from .gradpu import GradPUUpsampler
from .interpolation import InterpolationResult, interpolate
from .lut import (
    EnsembleLUT,
    HashedLUT,
    build_coarse_lut,
    build_lut,
    lut_entries,
    lut_entries_full,
    lut_memory_bytes,
)
from .pipeline import NaiveUpsampler, SRResult, StageTimes, VolutUpsampler
from .refine import LUTRefiner, NNRefiner, gather_refinement_neighborhoods
from .training import (
    RefinementDataset,
    build_refinement_dataset,
    train_refinement_net,
)
from .yuzu import YUZU_RATIOS, YuzuSRModel

__all__ = [
    "interpolate",
    "InterpolationResult",
    "colorize_by_parent",
    "colorize_by_nearest",
    "PositionEncoder",
    "EncodedNeighborhood",
    "HashedLUT",
    "EnsembleLUT",
    "build_lut",
    "build_coarse_lut",
    "lut_entries",
    "lut_entries_full",
    "lut_memory_bytes",
    "NNRefiner",
    "LUTRefiner",
    "gather_refinement_neighborhoods",
    "RefinementDataset",
    "build_refinement_dataset",
    "train_refinement_net",
    "VolutUpsampler",
    "NaiveUpsampler",
    "SRResult",
    "StageTimes",
    "GradPUUpsampler",
    "YuzuSRModel",
    "YUZU_RATIOS",
]
