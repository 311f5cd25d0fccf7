"""In-memory span recorder for the traced benchmark round.

The benchmark records spans from *outside* the program: one span around
each call into a public function of a layer.  A span is
``(name, start, end, parent, group)`` — ``parent`` is the index of the
span that was open when this one started (``-1`` for a root) and
``group`` is the identifier every span of one frame / one fleet round
shares.  Nothing is written while the benchmark runs; :meth:`dump`
serializes the list when it ends.

A layer's **self time** is its span's duration minus the part of that
interval its direct children cover, so the self times of a tree always
sum to the root's duration.
"""

from __future__ import annotations

import json
from time import perf_counter

__all__ = ["SpanRecorder"]


class _OpenSpan:
    __slots__ = ("_rec", "_index")

    def __init__(self, rec: "SpanRecorder", index: int) -> None:
        self._rec = rec
        self._index = index

    def __enter__(self) -> int:
        return self._index

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        rec = self._rec
        rec.spans[self._index][2] = end
        rec._stack.pop()


class SpanRecorder:
    """Collects nested wall-clock spans; see the module docstring."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent, group]`` rows, in start order
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, group: int | str | None = None) -> _OpenSpan:
        """Open a span under the currently open one (``with`` block).

        ``group`` defaults to the parent's, so only the root of a frame
        or round needs to name it.
        """
        parent = self._stack[-1] if self._stack else -1
        if group is None and parent >= 0:
            group = self.spans[parent][4]
        index = len(self.spans)
        self._stack.append(index)
        self.spans.append([name, 0.0, 0.0, parent, group])
        self.spans[index][1] = perf_counter()  # last: exclude bookkeeping
        return _OpenSpan(self, index)

    def add_child(self, name: str, parent: int, seconds: float) -> None:
        """Record a child the program timed itself (e.g. the kNN seconds
        an ``InterpolationResult`` reports), anchored at its parent's
        start and clamped to the parent's duration."""
        p = self.spans[parent]
        end = min(p[1] + max(seconds, 0.0), p[2])
        self.spans.append([name, p[1], end, parent, p[4]])

    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self seconds per span, index-aligned with :attr:`spans`."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def totals(self, self_time: bool = False) -> dict[str, float]:
        """Seconds per span name: durations, or self times."""
        per = self.self_times() if self_time else [s[2] - s[1] for s in self.spans]
        out: dict[str, float] = {}
        for s, sec in zip(self.spans, per):
            out[s[0]] = out.get(s[0], 0.0) + sec
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.spans:
            out[s[0]] = out.get(s[0], 0) + 1
        return out

    def root_seconds(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def dump(self, path, extra: dict | None = None) -> None:
        """Write the span list (plus ``extra`` top-level keys) as JSON."""
        doc = dict(extra or {})
        doc["columns"] = ["name", "start_s", "end_s", "parent", "group"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)
