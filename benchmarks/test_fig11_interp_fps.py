"""Fig 11 — interpolation time, measured: ours vs vanilla.  The device
model's FPS and speed-up bands are rows of the reproduction ledger
(``tests/experiments/test_reproduction.py``); the octree's win on work
(distances per query) is ``tests/experiments/test_experiments.py::
TestFig11``.  This is the wall-clock form, best of five."""

import pytest

from repro.experiments import SMOKE, run_fig11_measured


@pytest.mark.slow
def test_fig11_measured():
    table = run_fig11_measured(SMOKE, repeats=5)
    print("\n" + table.render())
    assert all(r["speedup"] > 1.3 for r in table.rows)
    assert table.lookup(ratio=2.0)["speedup"] > 1.5
    # the compiled yardstick is reported, not asserted against
    assert table.columns[-1] == "kdtree_ms" and table.lookup(ratio=2.0)["kdtree_ms"] > 0
