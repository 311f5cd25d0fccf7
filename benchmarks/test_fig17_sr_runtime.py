"""Fig 17 — SR runtime on desktop GPU: VoLUT vs YuZu vs GradPU."""

from repro.experiments import SMOKE, run_fig17_device, run_fig17_measured


def test_fig17_device():
    table = run_fig17_device()
    print("\n" + table.render())
    y = table.lookup(system="yuzu")["slowdown_vs_volut"]
    g = table.lookup(system="gradpu")["slowdown_vs_volut"]
    assert 6 < y < 14          # paper: 8.4x
    assert 1e4 < g < 1e5       # paper: 46,400x


def test_fig17_measured():
    table = run_fig17_measured(SMOKE)
    print("\n" + table.render())
    v = table.lookup(system="volut")["ms"]
    y = table.lookup(system="yuzu")["ms"]
    g = table.lookup(system="gradpu")["ms"]
    assert v < y < g
