"""Trace-driven viewer populations for fleet simulation.

The fleet simulator takes a fixed list of sessions with hand-picked join
times.  Real services see *populations*: viewers arrive according to a
stochastic or measured arrival process, pick content with a heavily
skewed popularity distribution, and churn out when rebuffering exhausts
their patience.  This module turns those three levers into
:class:`~repro.streaming.fleet.FleetSession` lists that
:func:`~repro.streaming.fleet.simulate_fleet` can run unchanged:

* **arrival processes** — :class:`PoissonArrivals` (memoryless synthetic
  load), :class:`DiurnalArrivals` (nonhomogeneous Poisson over a 24-hour
  rate curve — the prime-time peak every service provisions for), and
  :class:`TraceArrivals` (replay measured join timestamps, optionally
  loaded from a CSV);
* **content catalogs** — :class:`ContentCatalog`, a ranked video set with
  Zipf-like popularity ``weight(rank) ∝ 1/rank^skew``; the skew is the
  knob that drives SR-cache co-watching studies;
* **churn** — :class:`~repro.streaming.simulator.AbandonPolicy` attached
  to every generated session.

Everything is deterministic given (process seed, catalog, population
seed): building the same population twice and simulating it yields
identical fleet reports, which the replay test enforces.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..metrics.qoe import QoEWeights
from .abr import AbrController, SRQualityModel
from .chunks import VideoSpec
from .fleet import FleetSession
from .latency import SRLatency, ZERO_LATENCY
from .simulator import AbandonPolicy, SessionConfig

__all__ = [
    "PoissonArrivals",
    "DiurnalArrivals",
    "TraceArrivals",
    "ContentCatalog",
    "synthetic_catalog",
    "build_population",
]


def _require_finite_positive(name: str, value: float) -> None:
    """Chained so NaN fails it: a NaN or infinite rate or span passes a
    plain ``<= 0`` check and leaves a sampling loop that never ends."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class PoissonArrivals:
    """Homogeneous Poisson arrival process (exponential inter-arrivals).

    ``rate_hz`` is the expected number of viewer joins per second.
    ``times`` is a pure function of ``(seed, window)`` — calling it twice
    returns the same arrivals, so populations replay deterministically.
    """

    rate_hz: float
    seed: int = 0

    def __post_init__(self) -> None:
        _require_finite_positive("PoissonArrivals.rate_hz", self.rate_hz)

    def times(self, window: float) -> np.ndarray:
        """Arrival timestamps in ``[0, window]``, strictly increasing."""
        _require_finite_positive("window", window)
        rng = np.random.default_rng(self.seed)
        out: list[float] = []
        t = 0.0
        while True:
            t += rng.exponential(1.0 / self.rate_hz)
            if t > window:
                return np.asarray(out)
            out.append(t)


#: A typical service's 24-hour load shape: overnight trough, daytime ramp,
#: prime-time evening peak.  :class:`DiurnalArrivals` normalizes the curve
#: to mean 1.0, so only the *shape* matters here.
DEFAULT_DIURNAL_CURVE: tuple[float, ...] = (
    0.35, 0.25, 0.20, 0.18, 0.18, 0.22,  # 00–06: overnight trough
    0.35, 0.55, 0.75, 0.90, 1.00, 1.10,  # 06–12: morning ramp
    1.15, 1.10, 1.05, 1.05, 1.10, 1.25,  # 12–18: daytime plateau
    1.60, 2.05, 2.30, 2.10, 1.50, 0.82,  # 18–24: prime-time peak
)


@dataclass(frozen=True)
class DiurnalArrivals:
    """Nonhomogeneous Poisson arrivals over a 24-hour rate curve.

    The instantaneous rate follows ``curve[hour(t)]``, a piecewise-
    constant daily load shape (wrapping past 24 h), normalized to mean
    1.0 and scaled by ``mean_rate_hz`` — so ``mean_rate_hz`` is the true
    daily mean arrival rate whatever the factors' absolute scale, and a
    diurnal run offers the same expected load as a
    :class:`PoissonArrivals` run at the same rate.  Samples are drawn by
    **thinning** (Lewis & Shedler): candidates arrive as a homogeneous
    Poisson process at the curve's peak rate and are kept with
    probability ``rate(t) / peak_rate`` — exact for any bounded rate
    function, and deterministic given the seed.

    ``day_seconds`` rescales the curve's period so short simulation
    windows can sweep a whole virtual day: with ``day_seconds=240`` the
    prime-time peak lands 200 s into a 240 s window.  ``phase_hours``
    sets the hour of virtual midnight at ``t=0``.

    ``days`` extends the process over several virtual days: it is the
    default :meth:`times` window (``days * day_seconds``), the span
    multi-day fleet runs simulate.  ``autoscale`` is the arrival-rate
    autoscale hook — a deterministic callable mapping the 0-based
    simulated day number to a non-negative rate multiplier, so a run can
    model day-over-day growth (``lambda day: 1.1 ** day``) or a weekend
    dip without touching the intra-day curve.  With a hook set,
    :meth:`times` thins day by day against an envelope tightened to that
    day's multiplier (see its docstring) — still exact, without the mass
    rejection a single whole-window envelope would cost under growth.
    """

    mean_rate_hz: float
    curve: tuple[float, ...] = DEFAULT_DIURNAL_CURVE
    day_seconds: float = 86_400.0
    phase_hours: float = 0.0
    seed: int = 0
    days: float = 1.0
    autoscale: "Callable[[int], float] | None" = None

    def __post_init__(self) -> None:
        _require_finite_positive("DiurnalArrivals.mean_rate_hz", self.mean_rate_hz)
        if len(self.curve) != 24:
            raise ValueError(
                f"DiurnalArrivals.curve needs 24 hourly factors, got "
                f"{len(self.curve)}"
            )
        if not all(0 <= f < math.inf for f in self.curve) or max(self.curve) <= 0:
            raise ValueError(
                "DiurnalArrivals.curve factors must be finite and non-negative "
                f"with at least one positive hour, got {self.curve!r}"
            )
        _require_finite_positive("DiurnalArrivals.day_seconds", self.day_seconds)
        _require_finite_positive("DiurnalArrivals.days", self.days)
        if not math.isfinite(self.phase_hours):
            raise ValueError(
                f"DiurnalArrivals.phase_hours must be finite, got "
                f"{self.phase_hours!r}"
            )

    @cached_property
    def _curve_mean(self) -> float:
        return sum(self.curve) / len(self.curve)

    @property
    def span_seconds(self) -> float:
        """The process's full extent: ``days`` virtual days."""
        return self.days * self.day_seconds

    def _day_scale(self, day: int) -> float:
        if self.autoscale is None:
            return 1.0
        scale = float(self.autoscale(day))
        if scale < 0.0:
            raise ValueError(
                f"autoscale must return a non-negative multiplier, got "
                f"{scale!r} for day {day}"
            )
        return scale

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate (joins/s) at virtual time ``t``."""
        if t < 0:
            raise ValueError("time must be non-negative")
        hours = (t / self.day_seconds * 24.0 + self.phase_hours) % 24.0
        # Float modulo can return exactly 24.0 for tiny negative
        # dividends ((-1e-18) % 24.0 == 24.0); wrap the index too.
        return (
            self.mean_rate_hz
            * self.curve[int(hours) % 24]
            / self._curve_mean
            * self._day_scale(int(t // self.day_seconds))
        )

    def _rate_in_day(self, t: float, day: int) -> float:
        """:meth:`rate_at` with the day index pinned (day-sliced thinning).

        A candidate landing exactly on ``day_end`` belongs to the day
        whose envelope proposed it, but ``int(t // day_seconds)`` rolls
        over to the next day there — thinning the boundary candidate
        against the wrong day's autoscale.  Mirrors :meth:`rate_at`'s
        expression order exactly, so interior candidates are thinned
        bit-identically.
        """
        hours = (t / self.day_seconds * 24.0 + self.phase_hours) % 24.0
        return (
            self.mean_rate_hz
            * self.curve[int(hours) % 24]
            / self._curve_mean
            * self._day_scale(day)
        )

    def times(self, window: float | None = None) -> np.ndarray:
        """Arrival timestamps in ``[0, window]`` via thinning.

        ``window`` defaults to the process's full ``days``-day span.
        Without an autoscale hook one global envelope covers the whole
        window (the original, replay-stable stream).  With a hook the
        envelope is tightened day by day — restricting a Poisson process
        to disjoint intervals keeps the draw exact, and a growth-shaped
        hook (say ``1.2**day`` over 30 days) would otherwise reject all
        but ~1/200 of the candidates drawn for the early days.
        """
        if window is None:
            window = self.span_seconds
        _require_finite_positive("window", window)
        rng = np.random.default_rng(self.seed)
        base_peak = self.mean_rate_hz * max(self.curve) / self._curve_mean
        out: list[float] = []
        if self.autoscale is None:
            t = 0.0
            while True:
                t += rng.exponential(1.0 / base_peak)
                if t > window:
                    return np.asarray(out)
                if rng.random() * base_peak < self.rate_at(t):
                    out.append(t)
        day = 0
        while day * self.day_seconds < window:
            day_end = min((day + 1) * self.day_seconds, window)
            peak = base_peak * self._day_scale(day)
            t = day * self.day_seconds
            while peak > 0.0:
                t += rng.exponential(1.0 / peak)
                if t > day_end:
                    break
                if rng.random() * peak < self._rate_in_day(t, day):
                    out.append(t)
            day += 1
        return np.asarray(out)


@dataclass(frozen=True)
class TraceArrivals:
    """Replay of measured viewer-join timestamps (seconds, sorted)."""

    arrival_times: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.arrival_times:
            raise ValueError("TraceArrivals needs at least one arrival")
        ts = np.asarray(self.arrival_times, dtype=np.float64)
        bad = ~((ts >= 0) & (ts < np.inf))  # NaN fails both
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                "arrival times must be finite and non-negative, got "
                f"{self.arrival_times[i]!r} at index {i}"
            )
        if np.any(np.diff(ts) < 0):
            raise ValueError("arrival times must be sorted")

    @classmethod
    def from_csv(cls, path) -> "TraceArrivals":
        """Load ``timestamp_s`` rows (one per line, ``#`` comments).

        Extra comma-separated columns (user id, region, ...) are ignored,
        so raw service join logs drop in without conversion.
        """
        times: list[float] = []
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    times.append(float(line.split(",")[0]))
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{lineno}: expected a timestamp, got {line!r}"
                    ) from exc
        if not times:
            raise ValueError(f"{path}: no arrival rows found")
        return cls(arrival_times=tuple(times))

    def times(self, window: float) -> np.ndarray:
        """Arrivals that fall inside ``[0, window]``."""
        _require_finite_positive("window", window)
        ts = np.asarray(self.arrival_times, dtype=np.float64)
        return ts[ts <= window]


@dataclass(frozen=True)
class ContentCatalog:
    """A ranked video set with Zipf-like popularity.

    The video at popularity rank ``r`` (1-based, catalog order) is chosen
    with probability proportional to ``1 / r**skew``: ``skew=0`` is a
    uniform catalog, larger skews concentrate viewing on the head — the
    regime where the shared SR-result cache pays off.
    """

    videos: tuple[VideoSpec, ...]
    skew: float = 1.0

    def __post_init__(self) -> None:
        if not self.videos:
            raise ValueError("ContentCatalog needs at least one video")
        if self.skew < 0:
            raise ValueError(
                f"ContentCatalog.skew must be non-negative, got {self.skew!r}"
            )

    @cached_property
    def popularity(self) -> np.ndarray:
        """Normalized choice probabilities, catalog order = rank order."""
        w = 1.0 / np.arange(1, len(self.videos) + 1, dtype=np.float64) ** self.skew
        return w / w.sum()

    @cached_property
    def _cdf(self) -> np.ndarray:
        return np.cumsum(self.popularity)

    def video_for(self, u: float) -> VideoSpec:
        """Inverse-CDF popularity draw from a uniform ``u`` ∈ [0, 1).

        Sampling through a common uniform stream (rather than consuming
        an RNG per catalog) keeps draws comparable across skews: the same
        ``u`` maps to the same-or-more-popular rank as skew grows, which
        makes cache-hit-vs-skew monotonicity testable.
        """
        if not 0.0 <= u < 1.0:
            raise ValueError(f"u must be in [0, 1), got {u!r}")
        # The float cumsum can land a few ulps under 1.0, so a draw in
        # [cdf[-1], 1) must clamp to the last rank instead of overflowing.
        idx = int(np.searchsorted(self._cdf, u, side="right"))
        return self.videos[min(idx, len(self.videos) - 1)]


def synthetic_catalog(
    n_videos: int,
    *,
    seconds: int = 10,
    fps: int = 30,
    points_per_frame: int = 100_000,
    skew: float = 1.0,
    name_prefix: str = "video",
) -> ContentCatalog:
    """A catalog of ``n_videos`` identical-shape videos with Zipf ``skew``."""
    if n_videos <= 0:
        raise ValueError(f"n_videos must be positive, got {n_videos!r}")
    videos = tuple(
        VideoSpec(
            name=f"{name_prefix}-{i:03d}",
            n_frames=seconds * fps,
            fps=fps,
            points_per_frame=points_per_frame,
        )
        for i in range(n_videos)
    )
    return ContentCatalog(videos=videos, skew=skew)


def build_population(
    catalog: ContentCatalog,
    arrivals: PoissonArrivals | DiurnalArrivals | TraceArrivals,
    window: float,
    controller: AbrController,
    *,
    sr_latency: SRLatency = ZERO_LATENCY,
    quality_model: SRQualityModel | None = None,
    config: SessionConfig | None = None,
    qoe_weights: QoEWeights | None = None,
    churn: AbandonPolicy | None = None,
    seed: int = 0,
    max_sessions: int | None = None,
) -> list[FleetSession]:
    """Materialize a viewer population as fleet sessions.

    One session per arrival in ``[0, window]``; each picks its video from
    ``catalog`` by popularity (seeded, deterministic).  All sessions share
    ``controller`` — the ABR classes are stateless between decisions, and
    a shared controller is what lets the fleet scheduler resolve
    simultaneous decisions in one vectorized ``decide_batch`` pass.
    """
    if max_sessions is not None and max_sessions < 1:
        # Validate before slicing: truncating to zero sessions used to
        # surface as "arrival process produced no arrivals", blaming the
        # process for a bad cap.
        raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
    join_times = np.asarray(arrivals.times(window), dtype=np.float64)
    if max_sessions is not None:
        join_times = join_times[:max_sessions]
    if len(join_times) == 0:
        raise ValueError(
            f"arrival process produced no arrivals in [0, {window}]"
        )
    rng = np.random.default_rng(seed)
    picks = rng.random(len(join_times))
    return [
        FleetSession(
            spec=catalog.video_for(float(u)),
            controller=controller,
            sr_latency=sr_latency,
            quality_model=quality_model,
            config=config,
            qoe_weights=qoe_weights,
            join_time=float(t),
            churn=churn,
        )
        for t, u in zip(join_times, picks)
    ]
