"""Fig 18 — SR FPS on Orange Pi vs upsampling ratio (flat latency)."""

from repro.experiments import run_fig18_device


def test_fig18_ratio_scaling():
    table = run_fig18_device()
    print("\n" + table.render())
    fps = table.column("fps")
    # Paper: upsampling speed stays roughly stable across ratios because
    # the kNN over the (fixed-size) input dominates.
    assert max(fps) / min(fps) < 1.3
    assert all(r["knn_share_pct"] > 60 for r in table.rows)
