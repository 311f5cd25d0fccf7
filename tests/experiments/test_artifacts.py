"""Trained-artifacts cache and configuration tests."""

from repro.experiments.artifacts import get_artifacts
from repro.experiments.common import Scale

TINY = Scale(
    name="artifacts-tiny",
    points_per_frame=1200,
    quality_frames=2,
    image_size=64,
    train_epochs=3,
    stream_seconds=10,
)


class TestArtifactsCache:
    def test_same_key_returns_cached_object(self):
        a = get_artifacts(TINY, seed=0)
        b = get_artifacts(TINY, seed=0)
        assert a is b

    def test_seed_changes_artifacts(self):
        a = get_artifacts(TINY, seed=0)
        b = get_artifacts(TINY, seed=1)
        assert a is not b

    def test_training_happened(self):
        art = get_artifacts(TINY, seed=0)
        assert len(art.train_losses) == TINY.train_epochs
        assert art.train_losses[-1] <= art.train_losses[0]
        assert art.lut.n_entries > 0
        assert art.lut.per_point

    def test_encoder_configuration(self):
        art = get_artifacts(TINY, rf_size=4, bins=32, seed=0)
        assert art.encoder.rf_size == 4
        assert art.encoder.bins == 32
        assert art.net.in_dim == 12
