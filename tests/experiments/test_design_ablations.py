"""Design-choice ablation tests (``experiments/design_ablations.py``)."""

import pytest

from repro.experiments import (
    run_bins_sweep,
    run_dilation_sweep,
    run_downsampling_ablation,
    run_octree_depth_sweep,
)
from tests.experiments.test_experiments import TINY


class TestDilationSweep:
    @pytest.fixture(scope="class")
    def table(self):
        from repro.experiments.common import SMOKE

        return run_dilation_sweep(SMOKE)

    def test_dilation_improves_uniformity(self, table):
        cvs = table.column("density_cv")
        assert cvs[1] < cvs[0]  # d=2 more uniform than d=1

    def test_geometry_stays_sane(self, table):
        cds = table.column("chamfer")
        assert max(cds) < min(cds) * 1.5  # no dilation blows up geometry


class TestBinsSweep:
    def test_finer_bins_smaller_error(self):
        t = run_bins_sweep(TINY, bin_counts=(8, 64))
        errs = t.column("lut_vs_net_err")
        assert errs[-1] < errs[0]

    def test_dense_memory_grows(self):
        t = run_bins_sweep(TINY, bin_counts=(8, 64))
        mem = t.column("dense_table_mb")
        assert mem[-1] > mem[0]


class TestDownsamplingAblation:
    @pytest.fixture(scope="class")
    def table(self):
        return run_downsampling_ablation(TINY)

    def test_fps_much_slower_to_encode(self, table):
        """The paper's reason to choose random sampling."""
        rnd = table.lookup(strategy="random")["encode_ms"]
        fps = table.lookup(strategy="fps")["encode_ms"]
        assert fps > 10 * rnd

    def test_random_quality_competitive(self, table):
        """...and random sampling's post-SR quality is in the same league."""
        rnd = table.lookup(strategy="random")["post_sr_chamfer"]
        fps = table.lookup(strategy="fps")["post_sr_chamfer"]
        assert rnd < fps * 1.6


class TestOctreeDepthSweep:
    def test_two_layers_beats_one(self):
        from repro.experiments.common import SMOKE

        t = run_octree_depth_sweep(SMOKE, levels=(1, 2))
        one = t.lookup(levels=1)["query_ms"]
        two = t.lookup(levels=2)["query_ms"]
        assert two < one  # the paper's choice of depth pays off

    def test_cells_grow_with_depth(self):
        t = run_octree_depth_sweep(TINY, levels=(1, 2, 3))
        assert t.column("cells") == [8, 64, 512]

    def test_auto_row_explains_itself(self):
        """The default sweep ends with the automatic depth, and the pairs
        column shows why it wins: fewer distances per query at every step."""
        t = run_octree_depth_sweep(TINY)
        assert t.column("levels") == [1, 2, 3, "auto"]
        pairs = t.column("pairs_per_query")
        assert pairs == sorted(pairs, reverse=True)
        assert t.lookup(levels=1)["pairs_per_query"] == TINY.points_per_frame

    def test_first_pass_share_falls_with_depth(self):
        """One ring of a 2×2×2 grid is the whole cloud; deeper cells leave
        more rows to a second, wider pass."""
        t = run_octree_depth_sweep(TINY, levels=(1, 3, 5))
        share = t.column("first_pass_share")
        assert share[0] == 1.0
        assert share == sorted(share, reverse=True) and 0.0 <= share[-1] < 1.0
