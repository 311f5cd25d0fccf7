"""VolumetricVideo dataset tests."""

import numpy as np
import pytest

from repro.pointcloud import PAPER_VIDEOS, VIDEO_NAMES, PointCloud, VolumetricVideo, make_video


class TestMakeVideo:
    @pytest.mark.parametrize("name", VIDEO_NAMES)
    def test_all_videos_construct(self, name):
        v = make_video(name, n_points=500, n_frames=3)
        f = v.frame(0)
        assert len(f) > 0
        assert f.has_colors

    def test_unknown_video(self):
        with pytest.raises(ValueError, match="unknown video"):
            make_video("nonexistent")

    def test_paper_defaults(self):
        v = make_video("haggle", n_points=400, n_frames=None)
        assert v.n_frames == PAPER_VIDEOS["haggle"]["frames"]
        assert v.fps == 30

    def test_loops_config(self):
        v = make_video("longdress", n_points=300, n_frames=10)
        assert v.loops == 10
        assert v.n_playback_frames == 100

    def test_haggle_has_two_figures(self):
        f = make_video("haggle", n_points=1000, n_frames=1).frame(0)
        span = f.positions[:, 0].max() - f.positions[:, 0].min()
        assert span > 0.8


class TestVolumetricVideo:
    def _video(self, n_frames=5, loops=2):
        return VolumetricVideo(
            name="t",
            n_frames=n_frames,
            fps=30,
            frame_fn=lambda i: PointCloud(
                make_video("loot", n_points=200, n_frames=1).frame(0).positions + [i, 0, 0]
            ),
            loops=loops,
            cache_size=3,
        )

    def test_len_counts_loops(self):
        assert len(self._video()) == 10

    def test_loop_wraps_to_base_frame(self):
        v = self._video()
        a = v.frame(1)
        b = v.frame(6)  # 6 % 5 == 1
        assert np.array_equal(a.positions, b.positions)

    def test_out_of_range(self):
        v = self._video()
        with pytest.raises(IndexError):
            v.frame(10)
        with pytest.raises(IndexError):
            v.frame(-1)

    def test_cache_eviction(self):
        calls = []

        def fn(i):
            calls.append(i)
            return make_video("loot", n_points=100, n_frames=1).frame(0)

        v = VolumetricVideo(name="t", n_frames=10, fps=30, frame_fn=fn, cache_size=2)
        v.frame(0); v.frame(1); v.frame(0)   # hit
        assert calls == [0, 1]
        v.frame(2)                            # evicts 1 (LRU)
        v.frame(1)                            # regenerated
        assert calls == [0, 1, 2, 1]

    def test_iteration(self):
        v = self._video(n_frames=3, loops=1)
        assert sum(1 for _ in v) == 3

    def test_iteration_plays_every_loop_in_order(self):
        v = self._video(n_frames=3, loops=2)
        xs = [float(f.positions[0, 0] - v.frame(0).positions[0, 0]) for f in v]
        assert xs == [0.0, 1.0, 2.0, 0.0, 1.0, 2.0]

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            VolumetricVideo(name="x", n_frames=0, fps=30, frame_fn=lambda i: None)
        with pytest.raises(ValueError):
            VolumetricVideo(name="x", n_frames=1, fps=0, frame_fn=lambda i: None)
        with pytest.raises(ValueError):
            VolumetricVideo(name="x", n_frames=1, fps=30, frame_fn=lambda i: None, loops=0)
