"""Time-series metrics instruments for fleet runs.

A :class:`MetricsRegistry` hands out named instruments:

* :class:`Counter` — a monotonically increasing total;
* :class:`Gauge` — a point-in-time value;
* :class:`Histogram` — fixed-bound bucket counts plus sum/count (the
  Prometheus histogram shape);
* :class:`TimeSeries` — a fixed-capacity ring buffer of ``(t, value)``
  samples, the shape the fleet's fixed-interval samplers record
  (health proxy, mean buffer occupancy, per-edge load, encode queue
  depth).  The ring bounds memory on arbitrarily long runs: once full,
  the oldest samples fall off.

Instruments are get-or-create by name, so emission sites never need to
coordinate registration.  The Prometheus text rendering lives in
:func:`repro.obs.export.prometheus_text`.
"""

from __future__ import annotations

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "MetricsRegistry",
]

#: default histogram bucket bounds (seconds-flavored, Prometheus style)
_DEFAULT_BOUNDS = (0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)

#: ring capacity of every :class:`TimeSeries` — at the fleet's 1 s monitor
#: cadence this holds a little over 17 virtual minutes of samples
SERIES_CAPACITY = 1024


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self) -> None:
        self.value += 1.0


class Gauge:
    """A point-in-time value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Cumulative-bucket histogram (Prometheus ``le`` semantics)."""

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum")

    def __init__(self, name: str, bounds: tuple[float, ...] = _DEFAULT_BOUNDS):
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be ascending")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * len(self.bounds)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1

    def cumulative(self) -> list[int]:
        """Cumulative count per bucket (what ``_bucket{le=...}`` exports)."""
        return list(self.bucket_counts)


class TimeSeries:
    """Ring buffer of the last ``SERIES_CAPACITY`` ``(t, value)`` samples."""

    __slots__ = ("name", "_t", "_v", "_head", "_n")

    def __init__(self, name: str) -> None:
        self.name = name
        self._t: list[float] = [0.0] * SERIES_CAPACITY
        self._v: list[float] = [0.0] * SERIES_CAPACITY
        self._head = 0  # next write slot
        self._n = 0

    def record(self, t: float, value: float) -> None:
        self._t[self._head] = t
        self._v[self._head] = value
        self._head = (self._head + 1) % SERIES_CAPACITY
        if self._n < SERIES_CAPACITY:
            self._n += 1

    def items(self) -> list[tuple[float, float]]:
        """Retained samples, oldest first."""
        if self._n < SERIES_CAPACITY:
            return list(zip(self._t[: self._n], self._v[: self._n]))
        idx = list(range(self._head, SERIES_CAPACITY)) + list(range(self._head))
        return [(self._t[i], self._v[i]) for i in idx]

    @property
    def last(self) -> tuple[float, float] | None:
        """Most recent sample, or None when empty."""
        if self._n == 0:
            return None
        i = (self._head - 1) % SERIES_CAPACITY
        return (self._t[i], self._v[i])

    def __len__(self) -> int:
        return self._n


class MetricsRegistry:
    """Get-or-create home of every instrument in one run."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.series: dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        inst = self.counters.get(name)
        if inst is None:
            inst = self.counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self.gauges.get(name)
        if inst is None:
            inst = self.gauges[name] = Gauge(name)
        return inst

    def histogram(
        self, name: str, bounds: tuple[float, ...] = _DEFAULT_BOUNDS
    ) -> Histogram:
        inst = self.histograms.get(name)
        if inst is None:
            inst = self.histograms[name] = Histogram(name, bounds)
        return inst

    def timeseries(self, name: str) -> TimeSeries:
        inst = self.series.get(name)
        if inst is None:
            inst = self.series[name] = TimeSeries(name)
        return inst
