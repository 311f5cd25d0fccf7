"""Bandwidth traces (paper §7.1 network conditions).

Two families:

* **stable** wired links at 50/75/100 Mbps with ~10 ms RTT;
* **synthetic LTE** traces matched to the paper's reported statistics —
  average bandwidth 32.5–176.5 Mbps with standard deviations 13.5–26.8
  Mbps — generated as a mean-reverting AR(1) process with occasional deep
  fades, which captures the burstiness MPC-style ABRs are sensitive to.

A trace is a step function of time: ``bandwidth_at(t)`` returns the link
rate in bits per second, ``time_to_next_change(t)`` the seconds to the
next step, and ``segment(t)`` the rate together with a lower bound on the
instant it can next change — what the event scheduler caches per link.
Any object answering these three (and carrying ``rtt``) is a trace.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = ["NetworkTrace", "stable_trace", "lte_trace", "PAPER_LTE_PROFILES"]

MBPS = 1e6

#: Relative slack on a segment bound: ``t + (hi - t % duration)`` is two
#: roundings, each within 2**-53 of ``end + duration``, from the true
#: instant; eight times that keeps the bound below any float the trace's
#: own expression gives.
_BOUND_SLACK = 2.0**-50

#: :func:`lte_trace`'s sample spacing (seconds), per-sample deep-fade
#: probability and round-trip time (seconds)
LTE_STEP = 1.0
LTE_FADE_PROB = 0.02
LTE_RTT = 0.040

#: (average Mbps, std-dev Mbps) pairs spanning the paper's LTE trace set.
PAPER_LTE_PROFILES: tuple[tuple[float, float], ...] = (
    (32.5, 13.5),
    (75.0, 20.0),
    (120.0, 24.0),
    (176.5, 26.8),
)


@dataclass
class NetworkTrace:
    """A piecewise-constant bandwidth schedule.

    ``timestamps`` are segment start times (seconds, strictly increasing,
    starting at 0); ``bandwidths_bps`` the link rate within each segment.
    Time past the last segment wraps around (traces loop, as in the
    paper's long-video experiments).
    """

    name: str
    timestamps: np.ndarray
    bandwidths_bps: np.ndarray
    rtt: float = 0.010

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.bandwidths_bps = np.asarray(self.bandwidths_bps, dtype=np.float64)
        if len(self.timestamps) != len(self.bandwidths_bps):
            raise ValueError("timestamps and bandwidths must align")
        if len(self.timestamps) == 0:
            raise ValueError("trace must have at least one segment")
        if self.timestamps[0] != 0.0:
            raise ValueError("trace must start at t=0")
        # Written so NaN fails them (every comparison with NaN is false):
        # a NaN rate or instant stalls the fleet's virtual clock downstream.
        if not (
            np.all(np.diff(self.timestamps) > 0)
            and self.timestamps[-1] < np.inf
        ):
            raise ValueError("timestamps must be finite and strictly increasing")
        if not np.all((self.bandwidths_bps > 0) & (self.bandwidths_bps < np.inf)):
            raise ValueError("bandwidths_bps must be finite and positive")
        if not 0 <= self.rtt < np.inf:
            raise ValueError("rtt must be finite and non-negative")
        # The event schedulers call bandwidth_at / time_to_next_change once
        # per link per event step — millions of times in a large fleet.
        # Traces are immutable after construction, so the duration and
        # plain-list views are computed once here and the lookups below run
        # on bisect instead of array machinery.  Values are bit-identical
        # (tolist() preserves float64 exactly).  The nominal duration is the
        # last segment start + the median segment width.
        if len(self.timestamps) == 1:
            self._duration = float(self.timestamps[0] + 1.0)
        else:
            seg = float(np.median(np.diff(self.timestamps)))
            self._duration = float(self.timestamps[-1] + seg)
        self._ts_list: list[float] = self.timestamps.tolist()
        self._bw_list: list[float] = self.bandwidths_bps.tolist()

    # ------------------------------------------------------------------
    def bandwidth_at(self, t: float) -> float:
        """Link rate (bps) at absolute time ``t`` (loops past the end)."""
        return self._bw_list[self._locate(t)[0]]

    def time_to_next_change(self, t: float) -> float:
        """Seconds from ``t`` to the next segment boundary (loop-aware)."""
        return self._locate(t)[1]

    def segment(self, t: float) -> tuple[float, float]:
        """``(bandwidth_at(t), until)``: ``until`` is a lower bound on
        ``t' + time_to_next_change(t')`` for every ``t'`` in ``[t, until)``,
        over which the rate stays ``bandwidth_at(t)``.  ``until <= t``
        where the segment's end would not move the clock (the corner
        :meth:`_locate` steps over): the caller reads again at its next
        instant."""
        if t < 0:
            raise ValueError("time must be non-negative")
        ts, duration = self._ts_list, self._duration
        local = t % duration
        i = bisect_right(ts, local)
        end = t + ((ts[i] if i < len(ts) else duration) - local)
        if end > t:
            return self._bw_list[i - 1], end - (end + duration) * _BOUND_SLACK
        return self._bw_list[self._locate(t)[0]], t

    def _locate(self, t: float) -> tuple[int, float]:
        """``(segment index, seconds to its end)`` at ``t``.  A ``t`` that
        rounds onto a boundary its ``t % duration`` falls just short of (a
        wrap: 6.5 + 3.2 on a 6.5-s trace with an instant at 3.2) lies past
        it, or a clock stepping boundary to boundary would stand still
        there; after one period of boundaries none can move ``t``."""
        if t < 0:
            raise ValueError("time must be non-negative")
        ts, n = self._ts_list, len(self._ts_list)
        local = t % self._duration
        first = i = bisect_right(ts, local)
        nxt = ts[i] if i < n else self._duration
        while t + (nxt - local) <= t and i - first < n:
            i += 1
            nxt = ts[i % n] + i // n * self._duration
        return (i - 1) % n, nxt - local


def _check_args(fn: str, positive: tuple[str, ...], **args: float) -> None:
    """Name the first bad argument of a trace builder: each must be finite,
    and positive if named in ``positive``, else non-negative.  Chained so
    NaN fails every check."""
    for name, value in args.items():
        low_ok = 0 < value if name in positive else 0 <= value
        if not (low_ok and value < np.inf):
            kind = "positive" if name in positive else "non-negative"
            raise ValueError(
                f"{fn}: {name} must be finite and {kind}, got {value!r}"
            )


def stable_trace(mbps: float, duration: float = 600.0, rtt: float = 0.010) -> NetworkTrace:
    """A constant-rate wired link (50/75/100 Mbps in the paper)."""
    _check_args(
        "stable_trace", positive=("mbps", "duration"),
        mbps=mbps, duration=duration, rtt=rtt,
    )
    return NetworkTrace(
        name=f"stable-{mbps:g}mbps",
        timestamps=np.array([0.0, duration / 2]),
        bandwidths_bps=np.array([mbps * MBPS, mbps * MBPS]),
        rtt=rtt,
    )


def lte_trace(
    mean_mbps: float = 32.5,
    std_mbps: float = 13.5,
    duration: float = 600.0,
    seed: int = 0,
) -> NetworkTrace:
    """Synthetic LTE trace with the paper's first/second moments.

    One sample per ``LTE_STEP`` seconds: AR(1) mean reversion (φ=0.9)
    plus exponential deep fades at ``LTE_FADE_PROB`` per sample, floored
    at 1 Mbps.  The realized sample mean and std land near the requested
    values; exact trace shapes do not matter — the ABR reacts to the
    statistics.
    """
    _check_args(
        "lte_trace", positive=("mean_mbps", "duration"),
        mean_mbps=mean_mbps, std_mbps=std_mbps, duration=duration,
    )
    rng = np.random.default_rng(seed)
    n = max(2, int(duration / LTE_STEP))
    phi = 0.9
    innovation = std_mbps * np.sqrt(1 - phi ** 2)
    bw = np.empty(n)
    bw[0] = mean_mbps
    for i in range(1, n):
        bw[i] = mean_mbps + phi * (bw[i - 1] - mean_mbps) + rng.normal(0, innovation)
    fades = rng.random(n) < LTE_FADE_PROB
    bw[fades] *= rng.uniform(0.2, 0.5, fades.sum())
    np.maximum(bw, 1.0, out=bw)
    return NetworkTrace(
        name=f"lte-{mean_mbps:g}mbps",
        timestamps=np.arange(n) * LTE_STEP,
        bandwidths_bps=bw * MBPS,
        rtt=LTE_RTT,
    )
