"""Fig 14 / Table 2 — H1/H2/H3 ablation under fluctuating bandwidth."""

from repro.experiments import SMOKE, run_ablation


def test_fig14_ablation():
    table = run_ablation(SMOKE)
    print("\n" + table.render())
    h1 = table.lookup(variant="H1")
    h2 = table.lookup(variant="H2")
    h3 = table.lookup(variant="H3")
    # Paper: H1 best; H2 loses QoE and uses more data; H3 loses the most.
    assert h1["norm_qoe"] == 100.0
    assert h1["norm_qoe"] > h2["norm_qoe"] > h3["norm_qoe"]
    assert h2["data_vs_h1"] > 100.0
