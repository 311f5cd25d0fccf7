#!/usr/bin/env python
"""Explore the LUT design space: bins vs memory vs refinement quality.

Reproduces the paper's Table-1 trade-off empirically: finer quantization
(more bins) tracks the refinement network more faithfully but costs more
memory; the receptive-field size grows the key space exponentially.  Also
demonstrates multi-LUT fusion (EnsembleLUT) as the paper's §6 extension.

Run:  python examples/lut_tradeoffs.py
"""

import dataclasses

import numpy as np

from repro.experiments.common import SMOKE
from repro.experiments.design_ablations import run_bins_sweep
from repro.pointcloud import make_video, random_downsample_count
from repro.sr import (
    EnsembleLUT,
    LUTRefiner,
    NNRefiner,
    PositionEncoder,
    build_refinement_dataset,
    gather_refinement_neighborhoods,
    interpolate,
    train_refinement_net,
)


def main() -> None:
    # One training pass per bin count (the net is retrained per encoder so
    # its input contract matches), each distilled into an Eq. 4-keyed table.
    # The sweep trains for train_epochs // 2 = 10 epochs, like the fusion
    # half below.
    sweep = run_bins_sweep(
        dataclasses.replace(SMOKE, points_per_frame=4000, train_epochs=20)
    )
    print(f"{'bins':>5s} {'dense-table':>12s} {'hashed-KiB':>11s} "
          f"{'LUT-vs-NN err':>14s}")
    print("-" * 48)
    for row in sweep.rows:
        print(f"{row['bins']:5d} {row['dense_table_mb']:10.1f}MB "
              f"{row['resident_kib']:11.1f} {row['lut_vs_net_err']:14.6f}")

    # Multi-LUT fusion: phase-shifted quantization grids average out the
    # discretization error (the 3-D analogue of SR-LUT's rotation ensemble).
    print("\nmulti-LUT fusion (phase-shifted grids):")
    video = make_video("longdress", n_points=4000, n_frames=2)
    frames = [video.frame(i) for i in range(2)]
    gt = make_video("loot", n_points=4000, n_frames=1).frame(0)
    low = random_downsample_count(gt, 2000, seed=0)
    interp = interpolate(low, 2.0, k=4, dilation=2, seed=0)
    encoder = PositionEncoder(rf_size=4, bins=32)
    ds = build_refinement_dataset(frames, encoder, ratios=(2.0,), seed=0)
    net, _ = train_refinement_net(ds, encoder, hidden=(24, 24), epochs=10)
    neighbors = gather_refinement_neighborhoods(low.positions, interp, 4)
    enc = encoder.encode(interp.new_positions, neighbors)

    nn_out = NNRefiner(net, encoder).refine(interp.new_positions, neighbors)
    for n_members in (1, 2, 3):
        ensemble = EnsembleLUT.build(net, encoder, enc.normalized, n_members)
        fused = LUTRefiner(ensemble).refine(interp.new_positions, neighbors)
        err = float(np.linalg.norm(nn_out - fused, axis=1).mean())
        print(f"  {n_members} member(s): error vs NN {err:.6f}, "
              f"memory {ensemble.memory_bytes() / 1024:.1f} KiB")


if __name__ == "__main__":
    main()
