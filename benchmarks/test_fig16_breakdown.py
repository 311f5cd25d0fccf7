"""Fig 16 — SR runtime breakdown per stage (device model + measured)."""

from repro.experiments import SMOKE, run_breakdown_device, run_breakdown_measured


def test_fig16_device():
    table = run_breakdown_device()
    print("\n" + table.render())
    for device in ("desktop-gpu", "orange-pi"):
        shares = {r["stage"]: r["share_pct"] for r in table.rows if r["device"] == device}
        # Paper: kNN dominates; LUT refinement is the smallest real stage.
        assert shares["knn"] == max(shares.values())


def test_fig16_measured():
    table = run_breakdown_measured(SMOKE)
    print("\n" + table.render())
    shares = {r["stage"]: r["share_pct"] for r in table.rows}
    assert shares["knn"] == max(shares.values())
