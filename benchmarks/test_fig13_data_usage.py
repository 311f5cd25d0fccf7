"""Fig 13 — data usage (relative to raw streaming) across systems."""

from benchmarks.test_fig12_qoe import _get_table


def test_fig13_data_usage():
    table = _get_table()
    print("\n" + table.render())
    # Headline: up to ~70% bandwidth reduction vs raw streaming.
    stable = table.lookup(condition="stable-50", system="volut")["data_pct"]
    assert stable < 45.0
    # Low-bandwidth LTE: the paper reports VoLUT at ~17% of the data.
    low = table.lookup(condition="lte-low", system="volut")["data_pct"]
    assert low < 30.0
    # YuZu-SR always consumes more than VoLUT (models + discrete ABR).
    for cond in ("stable-50", "lte-all", "lte-low"):
        v = table.lookup(condition=cond, system="volut")["data_pct"]
        y = table.lookup(condition=cond, system="yuzu-sr")["data_pct"]
        assert y > v
