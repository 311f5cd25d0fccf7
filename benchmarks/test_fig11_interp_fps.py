"""Fig 11 — interpolation FPS: ours vs vanilla, measured + device model."""

from repro.experiments import SMOKE, run_fig11_device, run_fig11_measured


def test_fig11_measured():
    table = run_fig11_measured(SMOKE, repeats=1)
    print("\n" + table.render())
    assert all(r["speedup"] > 1.3 for r in table.rows)


def test_fig11_device_model():
    table = run_fig11_device()
    print("\n" + table.render())
    opi8 = table.lookup(device="orange-pi", ratio=8.0)
    assert 24 < opi8["ours_fps"] < 40          # paper: 31.2 FPS
    assert 3.0 < opi8["speedup"] < 4.5         # paper: 3.7-3.9x
    gpu2 = table.lookup(device="desktop-gpu", ratio=2.0)
    assert 250 < gpu2["ours_fps"] < 450        # paper: 357.1 FPS
    assert 7.0 < gpu2["speedup"] < 9.0         # paper: 7.5-8.1x
