"""Playback buffer tests."""

import pytest

from repro.streaming import PlaybackBuffer


class TestBuffer:
    def test_starts_paused(self):
        buf = PlaybackBuffer(startup_threshold=2.0)
        assert not buf.playing
        buf.add(1.0)
        assert not buf.playing
        buf.add(1.0)
        assert buf.playing

    def test_prestart_time_is_startup_delay_not_stall(self):
        buf = PlaybackBuffer(startup_threshold=5.0)
        stall = buf.drain(3.0)
        assert stall == 0.0
        assert buf.startup_delay == pytest.approx(3.0)
        assert buf.total_stall == 0.0

    def test_drain_consumes_level(self):
        buf = PlaybackBuffer(startup_threshold=1.0)
        buf.add(3.0)
        assert buf.drain(2.0) == 0.0
        assert buf.level == pytest.approx(1.0)

    def test_stall_when_empty(self):
        buf = PlaybackBuffer(startup_threshold=1.0)
        buf.add(1.0)
        stall = buf.drain(2.5)
        assert stall == pytest.approx(1.5)
        assert buf.total_stall == pytest.approx(1.5)
        assert buf.level == 0.0

    def test_max_level_clamps(self):
        buf = PlaybackBuffer(startup_threshold=1.0, max_level=4.0)
        buf.add(10.0)
        assert buf.level == 4.0
        assert buf.max_level - buf.level == 0.0

    def test_headroom(self):
        buf = PlaybackBuffer(startup_threshold=1.0, max_level=5.0)
        buf.add(2.0)
        assert buf.max_level - buf.level == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PlaybackBuffer(startup_threshold=-1.0)
        with pytest.raises(ValueError):
            PlaybackBuffer(max_level=0.0)
        # a threshold the capped level can never reach (or NaN) would keep
        # playback from ever starting
        for threshold, cap in [(12.0, 10.0), (float("nan"), 10.0), (1.0, float("inf"))]:
            with pytest.raises(
                ValueError, match=rf"startup_threshold={threshold}, max_level={cap}"
            ):
                PlaybackBuffer(startup_threshold=threshold, max_level=cap)
        buf = PlaybackBuffer()
        with pytest.raises(ValueError):
            buf.add(-1.0)
        with pytest.raises(ValueError):
            buf.drain(-1.0)

    def test_stalls_accumulate(self):
        buf = PlaybackBuffer(startup_threshold=0.5)
        buf.add(0.5)
        buf.drain(1.0)   # 0.5 stall
        buf.add(0.5)
        buf.drain(1.0)   # 0.5 more
        assert buf.total_stall == pytest.approx(1.0)
