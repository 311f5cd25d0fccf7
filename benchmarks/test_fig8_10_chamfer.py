"""Figs 8/10 — Chamfer distance for x2 and x4 SR across methods/videos."""

from benchmarks.test_fig7_9_psnr import _get_table


def test_fig8_10_chamfer():
    table = _get_table()
    print("\n" + table.render())
    # Fig 8/10 shape: LUT refinement reduces Chamfer vs unrefined dilation,
    # and x4 has larger geometric error than x2.
    for video in ("longdress", "loot", "haggle", "lab"):
        for ratio in (2.0, 4.0):
            lut = table.lookup(video=video, ratio=ratio, method="K4d2-lut")["chamfer"]
            raw = table.lookup(video=video, ratio=ratio, method="K4d2")["chamfer"]
            assert lut <= raw * 1.05
        cd2 = table.lookup(video=video, ratio=2.0, method="K4d2-lut")["chamfer"]
        cd4 = table.lookup(video=video, ratio=4.0, method="K4d2-lut")["chamfer"]
        assert cd4 > cd2
