"""Table 1 — LUT memory analysis (analytic)."""

from repro.experiments import run_table1


def test_table1_lut_memory():
    table = run_table1()
    print("\n" + table.render())
    row = table.lookup(rf_size=4, bins=128)
    assert row["size"] == "1.61 GB"  # the paper's deployed configuration
