"""Fig 17 — SR runtime, measured: VoLUT vs YuZu vs GradPU.  The device
model's slowdown bands are rows of the reproduction ledger
(``tests/experiments/test_reproduction.py``)."""

import numpy as np
import pytest

from repro.experiments import SMOKE, run_fig17_measured


def test_fig17_measured():
    table = run_fig17_measured(SMOKE)
    print("\n" + table.render())
    v = table.lookup(system="volut")["ms"]
    y = table.lookup(system="yuzu")["ms"]
    g = table.lookup(system="gradpu")["ms"]
    assert v < y < g


REPEATS = 7


@pytest.mark.slow
def test_gradpu_more_steps_cost_more():
    """GradPU's refinement wall time grows with its steps: over
    ``REPEATS`` runs each, the median 8-step refinement exceeds the median
    1-step one.  The
    tier-1 form counts network passes instead
    (``tests/sr/test_pipeline.py::TestGradPU::test_more_steps_cost_more``)."""
    from repro.experiments.artifacts import get_artifacts
    from repro.experiments.common import Scale
    from repro.pointcloud.datasets import make_video
    from repro.sr import GradPUUpsampler

    scale = Scale(
        name="test", points_per_frame=1500, quality_frames=2, image_size=64,
        train_epochs=6, stream_seconds=20,
    )
    art = get_artifacts(scale, rf_size=4, bins=32, seed=0)
    frame = make_video("loot", n_points=400, n_frames=1).frame(0)

    def refinement_s(n_steps):
        up = GradPUUpsampler(net=art.net, encoder=art.encoder, n_steps=n_steps)
        return [up.upsample(frame, 2.0).times.refinement for _ in range(REPEATS)]

    one, eight = refinement_s(1), refinement_s(8)
    print(f"\nrefinement s, median (min-max): 1 step {np.median(one):.2e} "
          f"({min(one):.2e}-{max(one):.2e}), 8 steps {np.median(eight):.2e} "
          f"({min(eight):.2e}-{max(eight):.2e})")
    assert np.median(eight) > np.median(one)
