"""``repro.obs`` — branch-free-when-disabled telemetry for fleet runs.

Three independent layers, bundled by :class:`Telemetry` and threaded
through :func:`~repro.streaming.fleet.simulate_fleet` via the
``telemetry=`` keyword:

* **event tracing** (:mod:`repro.obs.events`) — typed virtual-time
  events emitted by the fleet driver, the CDN caches/encode queue,
  the control plane, and the fault machinery;
* **metrics** (:mod:`repro.obs.metrics`) — counter/gauge/histogram
  instruments plus ring-buffered time series the fleet's fixed-interval
  sampler records (health proxy, buffer occupancy, per-edge load,
  encode queue depth);
* **phase profiling** (:mod:`repro.obs.profiler`) — wall-clock spans
  around the hot-loop stages, reported as a breakdown table and a
  machine-readable block.

Exporters (:mod:`repro.obs.export`) serialize a finished run: JSONL
event log, Chrome trace-event JSON (Perfetto-loadable, sessions as
tracks), and a Prometheus-style text dump.

With ``telemetry=None`` (the default) every emission site calls
:data:`NULL_TRACER`'s no-op ``emit`` and every phase span is
:data:`NULL_PROFILER`'s shared no-op context manager — stage code never
asks whether telemetry is on — and the disabled configuration is
bit-exact with the untraced simulator (an oracle-parity instance,
``tests/streaming/test_obs.py::TestTelemetryDisabledParity``).
"""

from __future__ import annotations

from .events import (
    EV_CACHE_COALESCE,
    EV_CACHE_HIT,
    EV_CACHE_MISS,
    EV_CACHE_VOID,
    EV_CHUNK_COMPLETE,
    EV_CHUNK_DECISION,
    EV_CHUNK_FETCH,
    EV_CHUNK_RETRY,
    EV_CHUNK_STALL,
    EV_CONTROL_RESIZE,
    EV_CONTROL_RESTEER,
    EV_CONTROL_TICK,
    EV_ENCODE_ENQUEUE,
    EV_ENCODE_RESIZE,
    EV_FAULT_CROWD,
    EV_FAULT_DEGRADATION,
    EV_FAULT_OUTAGE,
    EV_OUTAGE_EVACUATE,
    EV_SESSION_ABANDON,
    EV_SESSION_FINISH,
    EV_SESSION_RESTEER,
    EV_SESSION_START,
    NULL_TRACER,
    TraceEvent,
    Tracer,
    ops_from_events,
)
from .export import (
    chrome_trace,
    prometheus_text,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
    write_trace,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, TimeSeries
from .profiler import NULL_PROFILER, PhaseProfiler

__all__ = [
    "Telemetry",
    "TraceEvent",
    "Tracer",
    "NULL_TRACER",
    "ops_from_events",
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "MetricsRegistry",
    "PhaseProfiler",
    "NULL_PROFILER",
    "chrome_trace",
    "prometheus_text",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
    "write_trace",
    "EV_SESSION_START",
    "EV_SESSION_FINISH",
    "EV_SESSION_ABANDON",
    "EV_SESSION_RESTEER",
    "EV_CHUNK_DECISION",
    "EV_CHUNK_FETCH",
    "EV_CHUNK_COMPLETE",
    "EV_CHUNK_STALL",
    "EV_CHUNK_RETRY",
    "EV_CACHE_HIT",
    "EV_CACHE_MISS",
    "EV_CACHE_COALESCE",
    "EV_CACHE_VOID",
    "EV_ENCODE_ENQUEUE",
    "EV_ENCODE_RESIZE",
    "EV_FAULT_OUTAGE",
    "EV_FAULT_DEGRADATION",
    "EV_FAULT_CROWD",
    "EV_OUTAGE_EVACUATE",
    "EV_CONTROL_TICK",
    "EV_CONTROL_RESIZE",
    "EV_CONTROL_RESTEER",
]


class Telemetry:
    """One run's telemetry bundle: tracer + metrics + profiler.

    Each layer toggles independently; a disabled layer is ``None`` here,
    and the run binds :data:`NULL_TRACER` / :data:`NULL_PROFILER` in its
    place so emission sites stay unconditional.
    """

    def __init__(
        self, *, trace: bool = True, metrics: bool = True, profile: bool = True
    ) -> None:
        self.tracer = Tracer() if trace else None
        self.metrics = MetricsRegistry() if metrics else None
        self.profiler = PhaseProfiler() if profile else None
