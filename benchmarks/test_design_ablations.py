"""Design-choice ablations (``experiments/design_ablations.py``) at smoke scale."""

import numpy as np
import pytest

from repro.experiments import (
    SMOKE,
    run_bins_sweep,
    run_dilation_sweep,
    run_downsampling_ablation,
    run_multivideo_eval,
    run_octree_depth_sweep,
)


def test_ablate_dilation():
    table = run_dilation_sweep(SMOKE)
    print("\n" + table.render())
    cvs = table.column("density_cv")
    assert cvs[1] < cvs[0]  # d=2 more uniform than d=1


def test_ablate_bins():
    table = run_bins_sweep(SMOKE, bin_counts=(8, 32, 128))
    print("\n" + table.render())
    errs = table.column("lut_vs_net_err")
    assert errs[-1] < errs[0]


def test_ablate_downsampling():
    table = run_downsampling_ablation(SMOKE)
    print("\n" + table.render())
    rnd = table.lookup(strategy="random")["encode_ms"]
    fps = table.lookup(strategy="fps")["encode_ms"]
    assert fps > 10 * rnd  # why the paper ships random sampling


def test_ablate_octree_depth():
    """A second octree level prunes: each query compares fewer candidate
    pairs than with one level (a deterministic count; the wall-clock form
    is the slow ``test_two_octree_levels_query_faster_than_one``)."""
    table = run_octree_depth_sweep(SMOKE)
    print("\n" + table.render())
    one = table.lookup(levels=1)["pairs_per_query"]
    two = table.lookup(levels=2)["pairs_per_query"]
    assert two < one


REPEATS = 7


@pytest.mark.slow
def test_two_octree_levels_query_faster_than_one():
    """The pruning pays in wall time: over ``REPEATS`` sweeps, the median
    two-level query beats the median one-level query."""
    ms = {1: [], 2: []}
    for _ in range(REPEATS):
        table = run_octree_depth_sweep(SMOKE, levels=(1, 2))
        for levels, runs in ms.items():
            runs.append(table.lookup(levels=levels)["query_ms"])
    print("\nquery ms, median (min-max): " + ", ".join(
        f"{lv} level(s) {np.median(r):.2f} ({min(r):.2f}-{max(r):.2f})"
        for lv, r in ms.items()
    ))
    assert np.median(ms[2]) < np.median(ms[1])


def test_multivideo():
    table = run_multivideo_eval(SMOKE, videos=("longdress", "lab"))
    print("\n" + table.render())
    for row in table.rows:
        if row["system"] != "volut":
            assert row["norm_qoe"] < 100.0
