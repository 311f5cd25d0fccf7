"""Exporters: JSONL event log, Chrome trace-event JSON, Prometheus text.

Three interchange formats for one run's telemetry:

* :func:`write_jsonl` — one JSON object per line per event, the
  grep/jq-friendly archival format (what the nightly chaos lane uploads
  as a workflow artifact);
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event format (load the file at ``ui.perfetto.dev`` or
  ``chrome://tracing``).  Sessions render as tracks: the fleet is one
  process, each session a thread within it, and ``chunk.complete``
  events (which carry their transfer's ``elapsed``) become duration
  slices so a session's timeline reads as back-to-back chunk
  transfers with instant markers for everything else;
* :func:`write_trace` — the one place a trace file's format is picked
  from its name: JSONL for a ``.jsonl`` suffix, Chrome JSON otherwise;
* :func:`prometheus_text` / :func:`write_prometheus` — the Prometheus
  text exposition format for a :class:`~repro.obs.metrics.MetricsRegistry`
  (counters, gauges, ``_bucket``/``_sum``/``_count`` histograms, and
  each time series' latest sample as a gauge).

Virtual seconds map to trace microseconds 1:1, so one simulated second
reads as one "microsecond-scale" tick in the viewer — timelines keep
their proportions and Perfetto's zoom math stays exact.
"""

from __future__ import annotations

import json
import re

from .events import EV_CHUNK_COMPLETE
from .metrics import MetricsRegistry

__all__ = [
    "write_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "write_trace",
    "prometheus_text",
    "write_prometheus",
]

#: virtual seconds -> trace-event microseconds
_US = 1e6

#: the one process every track belongs to
_FLEET_PID = 0

#: thread id 0 is the fleet-level track; session ``s`` renders on ``s + 1``
_FLEET_TID = 0


def write_jsonl(events, path: str) -> int:
    """Write one JSON object per event to ``path``; returns event count."""
    n = 0
    with open(path, "w") as fh:
        for ev in events:
            fh.write(json.dumps(ev.to_dict(), separators=(",", ":")))
            fh.write("\n")
            n += 1
    return n


def chrome_trace(events) -> dict:
    """Chrome trace-event JSON (``traceEvents`` array form) for ``events``.

    ``chunk.complete`` events carry ``elapsed`` and become complete
    ("X") duration slices covering the transfer; every other event is an
    instant ("i") marker on its session's (or the fleet's) track.
    """
    trace_events: list[dict] = []
    for ev in events:
        tid = _FLEET_TID if ev.session is None else ev.session + 1
        args = dict(ev.data) if ev.data else {}
        if ev.kind == EV_CHUNK_COMPLETE and "elapsed" in args:
            elapsed = float(args["elapsed"])
            trace_events.append(
                {
                    "name": ev.kind,
                    "ph": "X",
                    "ts": (ev.t - elapsed) * _US,
                    "dur": elapsed * _US,
                    "pid": _FLEET_PID,
                    "tid": tid,
                    "args": args,
                }
            )
            continue
        trace_events.append(
            {
                "name": ev.kind,
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "ts": ev.t * _US,
                "pid": _FLEET_PID,
                "tid": tid,
                "args": args,
            }
        )
    if trace_events:
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": _FLEET_PID,
                "tid": 0,
                "args": {"name": "fleet"},
            }
        )
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _FLEET_PID,
                "tid": _FLEET_TID,
                "args": {"name": "fleet events"},
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(events, path: str) -> int:
    """Write :func:`chrome_trace` JSON to ``path``; returns event count."""
    doc = chrome_trace(events)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    # metadata records are not telemetry events
    return sum(1 for e in doc["traceEvents"] if e["ph"] != "M")


def write_trace(events, path: str) -> int:
    """Write ``events`` to ``path`` as a JSONL event log if the name ends
    in ``.jsonl``, else as Chrome trace-event JSON; returns event count."""
    if path.endswith(".jsonl"):
        return write_jsonl(events, path)
    return write_chrome_trace(events, path)


_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitize an instrument name into the Prometheus charset."""
    out = _NAME_RE.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def prometheus_text(registry: MetricsRegistry) -> str:
    """Prometheus text exposition of every instrument in ``registry``."""
    lines: list[str] = []
    for name, counter in sorted(registry.counters.items()):
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname} {counter.value:g}")
    for name, gauge in sorted(registry.gauges.items()):
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {gauge.value:g}")
    for name, hist in sorted(registry.histograms.items()):
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} histogram")
        for bound, count in zip(hist.bounds, hist.cumulative()):
            lines.append(f'{pname}_bucket{{le="{bound:g}"}} {count}')
        lines.append(f'{pname}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{pname}_sum {hist.sum:g}")
        lines.append(f"{pname}_count {hist.count}")
    for name, series in sorted(registry.series.items()):
        pname = _prom_name(name)
        last = series.last
        if last is None:
            continue
        t, v = last
        lines.append(f"# TYPE {pname} gauge")
        # timestamp in milliseconds of virtual time, Prometheus-style
        lines.append(f"{pname} {v:g} {int(t * 1000)}")
    return "\n".join(lines) + "\n"


def write_prometheus(registry: MetricsRegistry, path: str) -> None:
    """Write :func:`prometheus_text` to ``path``."""
    with open(path, "w") as fh:
        fh.write(prometheus_text(registry))
