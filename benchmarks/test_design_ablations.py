"""Design-choice ablations (the DESIGN.md checklist) at smoke scale."""

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
    table = run_octree_depth_sweep(SMOKE)
    print("\n" + table.render())
    one = table.lookup(levels=1)["query_ms"]
    two = table.lookup(levels=2)["query_ms"]
    assert two < one


def test_multivideo():
    table = run_multivideo_eval(SMOKE, videos=("longdress", "lab"))
    print("\n" + table.render())
    for row in table.rows:
        if row["system"] != "volut":
            assert row["norm_qoe"] < 100.0
