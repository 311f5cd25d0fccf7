"""Fig 11 — interpolation time, measured: ours vs vanilla.  The device
model's FPS and speed-up bands are rows of the reproduction ledger
(``tests/experiments/test_reproduction.py``)."""

from repro.experiments import SMOKE, run_fig11_measured


def test_fig11_measured():
    table = run_fig11_measured(SMOKE, repeats=1)
    print("\n" + table.render())
    assert all(r["speedup"] > 1.3 for r in table.rows)
