"""Client playback buffer.

Tracks seconds of ready-to-play content.  The streaming simulator advances
wall-clock time during downloads and SR processing; the buffer drains in
real time once playback has started and reports stalls when it empties.
"""

from __future__ import annotations

import math

__all__ = ["PlaybackBuffer"]


class PlaybackBuffer:
    """Seconds-denominated playback buffer with stall accounting."""

    def __init__(self, startup_threshold: float = 1.0, max_level: float = 10.0):
        # Chained so NaN fails it.  A threshold the capped level can never
        # reach would keep playback from starting, booking every stall as
        # start-up delay, which QoE does not charge.
        if not (0 <= startup_threshold <= max_level < math.inf and max_level > 0):
            raise ValueError(
                "need 0 <= startup_threshold <= max_level, 0 < max_level < inf, got "
                f"startup_threshold={startup_threshold!r}, max_level={max_level!r}"
            )
        self.startup_threshold = float(startup_threshold)
        self.max_level = float(max_level)
        self.level = 0.0
        self.playing = False
        self.total_stall = 0.0
        self.startup_delay = 0.0

    # ------------------------------------------------------------------
    def add(self, seconds: float) -> None:
        """Enqueue ``seconds`` of ready content (clamped to ``max_level``)."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self.level = min(self.level + seconds, self.max_level)
        if not self.playing and self.level >= self.startup_threshold:
            self.playing = True

    def drain(self, seconds: float) -> float:
        """Advance playback wall-clock by ``seconds``.

        Returns stall time incurred in this interval.  Before playback
        starts, elapsed time accrues to ``startup_delay`` instead of
        stalls (the paper's QoE charges rebuffering, not joining).
        """
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        if not self.playing:
            self.startup_delay += seconds
            return 0.0
        if self.level >= seconds:
            self.level -= seconds
            return 0.0
        stall = seconds - self.level
        self.level = 0.0
        self.total_stall += stall
        return stall
