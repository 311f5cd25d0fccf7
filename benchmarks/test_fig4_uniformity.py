"""Fig 4 — interpolation uniformity (GT vs dilated vs naive)."""

from repro.experiments import SMOKE, run_fig4


def test_fig4_uniformity():
    table = run_fig4(SMOKE)
    print("\n" + table.render())
    dil = table.lookup(cloud="dilated-k4d2")
    nai = table.lookup(cloud="naive-k4d1")
    assert dil["density_cv"] < nai["density_cv"]
