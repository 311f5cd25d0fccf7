"""Figure 11 — interpolation FPS: VoLUT vs vanilla, Orange Pi + 3080Ti.

Two complementary views are produced:

* **measured** — wall-clock of our actual Python implementations (octree +
  reuse vs brute force) at a tractable point count, demonstrating the
  speed-up is real and structural; the same ``interpolate`` call through
  scipy's compiled ``cKDTree`` sits beside it (``kdtree_ms``), because what
  the octree is *for* is the paper's §4.1 claim — cell pruning beats the
  vanilla search — not beating a compiled tree from NumPy;
* **device-modeled** — the op-count model at the paper's 100K-point frames
  on both device profiles, reporting the same axes as Fig. 11 (FPS per
  upsampling ratio).  The workload matches §7.3: a 100K-point frame is
  fetched at density 1/ratio and upsampled back to 100K.

The paper's reference points: vanilla 8.0 FPS vs ours 31.2 FPS at 8× on
the Orange Pi (3.7–3.9× speedup); 357.1 FPS at 2× on the 3080Ti
(7.5–8.1× speedup).
"""

from __future__ import annotations

import time

import numpy as np

from ..devices import DESKTOP_GPU, ORANGE_PI, CostModel, DeviceProfile
from ..pointcloud.datasets import make_video
from ..sr.interpolation import interpolate
from .common import SMOKE, ResultTable, Scale

__all__ = ["run_fig11_measured", "run_fig11_device"]


def run_fig11_measured(
    scale: Scale = SMOKE,
    ratios: tuple[float, ...] = (2.0, 4.0, 8.0),
    repeats: int = 2,
    seed: int = 0,
) -> ResultTable:
    """Measured interpolation wall-clock: octree backend vs brute force,
    with the compiled kd-tree backend as the yardstick."""
    video = make_video("longdress", n_points=scale.points_per_frame, n_frames=1)
    low = video.frame(0)
    table = ResultTable(
        title="Fig 11 (measured): interpolation time, ours vs vanilla",
        columns=["ratio", "n_input", "ours_ms", "vanilla_ms", "speedup", "kdtree_ms"],
        notes=(
            "pure-Python wall-clock, fixed input size (the octree's pruning "
            "advantage grows with input size; see the device model for "
            "paper-scale FPS).  speedup = vanilla / ours, the paper's claim; "
            "kdtree_ms is the same frame and call through scipy's compiled "
            "cKDTree, the gap a NumPy kernel leaves (about 2x on the kNN alone)."
        ),
    )
    for ratio in ratios:
        n_in = len(low)
        best = dict.fromkeys(("octree", "brute", "kdtree"), np.inf)
        for _ in range(repeats):
            for backend in best:
                t0 = time.perf_counter()
                interpolate(low, ratio, k=4, dilation=2, backend=backend, seed=seed)
                best[backend] = min(best[backend], time.perf_counter() - t0)
        table.add(
            ratio=ratio,
            n_input=n_in,
            ours_ms=round(best["octree"] * 1e3, 2),
            vanilla_ms=round(best["brute"] * 1e3, 2),
            speedup=round(best["brute"] / best["octree"], 2),
            kdtree_ms=round(best["kdtree"] * 1e3, 2),
        )
    return table


def _interp_fps(system: str, n_in: int, ratio: float, profile: DeviceProfile) -> float:
    """FPS of the interpolation stages (kNN + midpoints), as Fig. 11 plots."""
    stages = (
        CostModel.volut_frame(n_in, ratio, profile)
        if system == "volut"
        else CostModel.vanilla_frame(n_in, ratio, profile)
    )
    # Fig 11 isolates interpolation: search + midpoint assembly.  The
    # vanilla pipeline's extra colorization search is excluded here (it is
    # charged in the end-to-end breakdown, Fig. 16).
    if system == "vanilla":
        knn = CostModel.knn_ops(n_in, n_in, 1.0)
        stages["knn"] = profile.seconds(knn)
    seconds = stages["knn"] + stages["interpolation"]
    return 1.0 / seconds


def run_fig11_device(
    ratios: tuple[float, ...] = (2.0, 4.0, 6.0, 8.0),
    full_points: int = 100_000,
) -> ResultTable:
    """Device-modeled interpolation FPS at paper scale (both devices)."""
    table = ResultTable(
        title="Fig 11 (device model): interpolation FPS at 100K-point frames",
        columns=["device", "ratio", "n_input", "ours_fps", "vanilla_fps", "speedup"],
        notes="workload: fetch 100K/ratio points, upsample back to 100K.",
    )
    for profile in (ORANGE_PI, DESKTOP_GPU):
        for ratio in ratios:
            n_in = int(full_points / ratio)
            ours = _interp_fps("volut", n_in, ratio, profile)
            vanilla = _interp_fps("vanilla", n_in, ratio, profile)
            table.add(
                device=profile.name,
                ratio=ratio,
                n_input=n_in,
                ours_fps=round(ours, 1),
                vanilla_fps=round(vanilla, 1),
                speedup=round(ours / vanilla, 2),
            )
    return table
