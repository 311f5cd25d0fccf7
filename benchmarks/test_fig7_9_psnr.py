"""Figs 7/9 — viewport PSNR for x2 and x4 SR across methods and videos."""

from repro.experiments import SMOKE, run_sr_quality

_table = None


def _get_table():
    global _table
    if _table is None:
        _table = run_sr_quality(SMOKE, ratios=(2.0, 4.0), n_views=2)
    return _table


def test_fig7_9_psnr():
    table = _get_table()
    print("\n" + table.render())
    # Fig 7/9 shape: dilation (K4d2) matches or beats naive (K4d1) PSNR on
    # average across videos, at both ratios.
    for ratio in (2.0, 4.0):
        k4d1 = [r["psnr_db"] for r in table.rows
                if r["method"] == "K4d1" and r["ratio"] == ratio]
        k4d2 = [r["psnr_db"] for r in table.rows
                if r["method"] == "K4d2" and r["ratio"] == ratio]
        assert sum(k4d2) >= sum(k4d1) - 0.5 * len(k4d1)
    # x2 upsampling renders better than x4 (less hallucinated geometry).
    for video in ("longdress", "loot"):
        p2 = table.lookup(video=video, ratio=2.0, method="K4d2-lut")["psnr_db"]
        p4 = table.lookup(video=video, ratio=4.0, method="K4d2-lut")["psnr_db"]
        assert p2 > p4
