"""Fig 15 — client memory usage across SR systems."""

from repro.experiments import run_memory_usage


def test_fig15_memory():
    table = run_memory_usage()
    print("\n" + table.render())
    volut = table.lookup(system="volut (1 LUT)")
    # Paper: ~86% memory reduction vs GradPU.
    assert volut["vs_gradpu_pct"] < 20.0
