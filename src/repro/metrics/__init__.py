"""Quality and experience metrics."""

from .chamfer import chamfer_distance, geometry_psnr, p2p_distances
from .psnr import image_mse, image_psnr, mean_image_psnr
from .qoe import (
    ChunkRecord,
    QoEModel,
    QoEWeights,
    aggregate_qoe,
    bootstrap_ci,
    session_qoe,
)
from .uniformity import coverage_radius, local_density_cv, nn_distance_cv

__all__ = [
    "chamfer_distance",
    "geometry_psnr",
    "p2p_distances",
    "image_psnr",
    "image_mse",
    "mean_image_psnr",
    "nn_distance_cv",
    "local_density_cv",
    "coverage_radius",
    "QoEModel",
    "QoEWeights",
    "ChunkRecord",
    "session_qoe",
    "aggregate_qoe",
    "bootstrap_ci",
]
