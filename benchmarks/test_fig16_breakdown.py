"""Fig 16 — SR runtime breakdown per stage, measured.  The device model's
kNN-dominates claim is a row of the reproduction ledger
(``tests/experiments/test_reproduction.py``)."""

from repro.experiments import SMOKE, run_breakdown_measured


def test_fig16_measured():
    table = run_breakdown_measured(SMOKE)
    print("\n" + table.render())
    shares = {r["stage"]: r["share_pct"] for r in table.rows}
    assert shares["knn"] == max(shares.values())
