"""Fig 12 — normalized QoE across systems and network conditions."""

from repro.experiments import SMOKE, run_streaming_eval

_table = None


def _get_table():
    global _table
    if _table is None:
        _table = run_streaming_eval(SMOKE)
    return _table


def test_fig12_qoe():
    table = _get_table()
    print("\n" + table.render())
    for cond in ("stable-50", "lte-all", "lte-low"):
        v = table.lookup(condition=cond, system="volut")["norm_qoe"]
        y = table.lookup(condition=cond, system="yuzu-sr")["norm_qoe"]
        vi = table.lookup(condition=cond, system="vivo")["norm_qoe"]
        assert v == 100.0
        assert v > y            # paper: VoLUT > Yuzu-SR everywhere
        assert v > vi           # paper: VoLUT > ViVo everywhere
