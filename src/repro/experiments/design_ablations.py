"""Ablations of VoLUT's design choices beyond the paper's headline figures.

DESIGN.md lists the choices worth isolating; each gets its own sweep:

* :func:`run_dilation_sweep` — dilation factor d ∈ {1, 2, 3} (extends the
  K4d1/K4d2 comparison of Figs. 7–10 with a third point);
* :func:`run_bins_sweep` — LUT bin count vs refinement fidelity vs memory
  (the Table 1 trade-off, measured instead of analytic);
* :func:`run_downsampling_ablation` — random vs FPS vs voxel downsampling
  (the §4.1/§5.2 discussion: random is nearly as good and far cheaper);
* :func:`run_octree_depth_sweep` — index depth vs measured query time
  (why *two* layers, paper §4.1).
"""

from __future__ import annotations

import time

import numpy as np

from ..metrics.chamfer import chamfer_distance
from ..pointcloud.datasets import make_video
from ..pointcloud.sampling import (
    farthest_point_sample,
    random_downsample_count,
    voxel_downsample,
)
from ..spatial.octree import TwoLayerOctree
from ..sr.encoding import PositionEncoder
from ..sr.lut import build_lut, lut_memory_bytes
from ..sr.pipeline import VolutUpsampler
from ..sr.refine import LUTRefiner, NNRefiner, gather_refinement_neighborhoods
from ..sr.interpolation import interpolate
from ..sr.training import build_refinement_dataset, train_refinement_net
from .artifacts import get_artifacts
from .common import SMOKE, ResultTable, Scale

__all__ = [
    "run_dilation_sweep",
    "run_bins_sweep",
    "run_downsampling_ablation",
    "run_octree_depth_sweep",
]


def run_dilation_sweep(
    scale: Scale = SMOKE,
    dilations: tuple[int, ...] = (1, 2, 3),
    ratio: float = 2.0,
    seed: int = 0,
) -> ResultTable:
    """Chamfer distance and uniformity vs dilation factor."""
    from ..metrics.uniformity import local_density_cv

    art = get_artifacts(scale, seed=seed)
    gt = make_video("loot", n_points=scale.points_per_frame, n_frames=1).frame(0)
    low = random_downsample_count(gt, int(len(gt) / ratio), seed=seed)
    table = ResultTable(
        title="Ablation: dilation factor (k=4 fixed)",
        columns=["dilation", "chamfer", "density_cv"],
        notes="d=1 is naive kNN interpolation; the paper uses d=2.",
    )
    for d in dilations:
        up = VolutUpsampler(lut=art.lut, k=4, dilation=d, seed=seed)
        cloud = up.upsample(low, ratio).cloud
        table.add(
            dilation=d,
            chamfer=round(chamfer_distance(cloud, gt), 6),
            density_cv=round(local_density_cv(cloud), 4),
        )
    return table


def run_bins_sweep(
    scale: Scale = SMOKE,
    bin_counts: tuple[int, ...] = (8, 16, 32, 64, 128),
    seed: int = 0,
) -> ResultTable:
    """LUT fidelity (vs its network) and resident memory per bin count."""
    video = make_video("longdress", n_points=scale.points_per_frame, n_frames=2)
    frames = [video.frame(i) for i in range(2)]
    gt = make_video("loot", n_points=scale.points_per_frame, n_frames=1).frame(0)
    low = random_downsample_count(gt, len(gt) // 2, seed=seed)
    interp = interpolate(low, 2.0, k=4, dilation=2, seed=seed)

    table = ResultTable(
        title="Ablation: LUT quantization bins (RF=4)",
        columns=["bins", "lut_vs_net_err", "resident_kib", "dense_table_mb"],
        notes="err = mean |LUT refinement - network refinement| per point.",
    )
    for bins in bin_counts:
        encoder = PositionEncoder(rf_size=4, bins=bins)
        ds = build_refinement_dataset(frames, encoder, ratios=(2.0,), seed=seed)
        net, _ = train_refinement_net(
            ds, encoder, hidden=(24, 24), epochs=max(4, scale.train_epochs // 2),
            seed=seed,
        )
        neighbors = gather_refinement_neighborhoods(low.positions, interp, 4)
        enc = encoder.encode(interp.new_positions, neighbors)
        lut = build_lut(net, encoder, enc.normalized)
        nn_out = NNRefiner(net, encoder).refine(interp.new_positions, neighbors)
        lut_out = LUTRefiner(lut).refine(interp.new_positions, neighbors)
        err = float(np.linalg.norm(nn_out - lut_out, axis=1).mean())
        table.add(
            bins=bins,
            lut_vs_net_err=round(err, 6),
            resident_kib=round(lut.memory_bytes() / 1024, 1),
            dense_table_mb=round(lut_memory_bytes(4, bins) / 1e6, 2),
        )
    return table


def run_downsampling_ablation(
    scale: Scale = SMOKE,
    ratio: float = 2.0,
    seed: int = 0,
) -> ResultTable:
    """Random vs FPS vs voxel server-side downsampling (§4.1/§5.2).

    The paper picks random sampling because FPS is orders of magnitude
    slower for marginal post-SR quality gain; this sweep measures both
    sides of that decision.
    """
    art = get_artifacts(scale, seed=seed)
    gt = make_video("loot", n_points=scale.points_per_frame, n_frames=1).frame(0)
    n_low = int(len(gt) / ratio)

    def by_random():
        return random_downsample_count(gt, n_low, seed=seed)

    def by_fps():
        return farthest_point_sample(gt, n_low, seed=seed)

    def by_voxel():
        # Search for the voxel size that hits the target count.
        lo_s, hi_s = 1e-4, gt.extent()
        for _ in range(24):
            mid = 0.5 * (lo_s + hi_s)
            n = len(voxel_downsample(gt, mid))
            if n > n_low:
                lo_s = mid
            else:
                hi_s = mid
        return voxel_downsample(gt, 0.5 * (lo_s + hi_s))

    table = ResultTable(
        title="Ablation: server-side downsampling strategy",
        columns=["strategy", "encode_ms", "n_low", "post_sr_chamfer"],
        notes="post-SR Chamfer after the same VoLUT upsampling pipeline.",
    )
    for name, fn in (("random", by_random), ("fps", by_fps), ("voxel", by_voxel)):
        t0 = time.perf_counter()
        low = fn()
        encode_ms = (time.perf_counter() - t0) * 1e3
        up = VolutUpsampler(lut=art.lut, seed=seed)
        actual_ratio = len(gt) / len(low)
        cloud = up.upsample(low, actual_ratio).cloud
        table.add(
            strategy=name,
            encode_ms=round(encode_ms, 2),
            n_low=len(low),
            post_sr_chamfer=round(chamfer_distance(cloud, gt), 6),
        )
    return table


def run_octree_depth_sweep(
    scale: Scale = SMOKE,
    levels: tuple[int | None, ...] = (1, 2, 3, None),
    k: int = 8,
    seed: int = 0,
) -> ResultTable:
    """Measured kNN query time vs octree depth (why two layers).

    ``None`` in ``levels`` is the index's automatic depth (row ``auto``).
    ``first_pass_share`` is the fraction of rows the ring-1 pass accepts
    (``query_stats["passes"]``): what is left pays a second, wider search.
    """
    gt = make_video("longdress", n_points=scale.points_per_frame, n_frames=1).frame(0)
    pts = gt.positions
    table = ResultTable(
        title="Ablation: octree depth (measured self-query kNN)",
        columns=[
            "levels", "cells", "build_ms", "query_ms", "pairs_per_query", "first_pass_share",
        ],
        notes="too shallow = little pruning (many distance pairs per query); "
        "too deep = ring-expansion overhead (first_pass_share falls).",
    )
    for lv in levels:
        t0 = time.perf_counter()
        index = TwoLayerOctree(pts, levels=lv)
        build_ms = (time.perf_counter() - t0) * 1e3
        t0 = time.perf_counter()
        index.query(pts, k)
        query_ms = (time.perf_counter() - t0) * 1e3
        table.add(
            levels="auto" if lv is None else lv,
            cells=index.stats()["cells"],
            build_ms=round(build_ms, 2),
            query_ms=round(query_ms, 2),
            pairs_per_query=round(index.query_stats["candidate_pairs"] / len(pts), 1),
            first_pass_share=round(index.query_stats["passes"][0][2] / len(pts), 3),
        )
    return table
