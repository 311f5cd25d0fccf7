"""Wall-clock phase profiler for the fleet hot loop.

``with profiler.phase("scheduler"):`` spans attribute wall-clock time to
named phases.  Spans nest: a phase's total is its *self* time (elapsed
minus time spent in nested spans), so the breakdown always sums to the
instrumented wall clock with no double counting.  The fleet loop wraps
its four stages — ``scheduler`` (next-event computation + fluid
advance), ``advance`` (session transitions, SR, dispatch/fill
bookkeeping), ``planner`` (the batched ABR decision pass), ``control``
(outage surgery + monitor/tick block).

:data:`NULL_PROFILER` is the disabled-mode stand-in: its spans are
shared no-op context managers, so hot-loop call sites keep one shape
(``prof.phase(...)`` once outside the loop, ``with span:`` inside) and
the disabled cost is two empty method calls per span entry.
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["PhaseProfiler", "NULL_PROFILER"]


class _Span:
    """Reusable context manager for one phase name (cached per profiler).

    Entry/exit run a few hundred thousand times per fleet run, so the
    frame stack is a pool of reusable ``[name, t0, child]`` lists
    indexed by depth — zero allocations per span after warm-up (a fresh
    list per entry is a GC-tracked allocation the collector then pays
    for across the whole run).
    """

    __slots__ = ("_profiler", "name")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self.name = name

    def __enter__(self) -> "_Span":
        prof = self._profiler
        depth = prof._depth
        frames = prof._frames
        if depth == len(frames):
            frames.append([None, 0.0, 0.0])
        frame = frames[depth]
        frame[0] = self.name
        frame[2] = 0.0
        prof._depth = depth + 1
        frame[1] = perf_counter()  # last: exclude entry bookkeeping
        return self

    def __exit__(self, *exc) -> None:
        elapsed = perf_counter()
        prof = self._profiler
        depth = prof._depth - 1
        prof._depth = depth
        frame = prof._frames[depth]
        name = frame[0]
        elapsed -= frame[1]
        totals = prof.totals
        totals[name] = totals.get(name, 0.0) + (elapsed - frame[2])
        counts = prof.counts
        counts[name] = counts.get(name, 0) + 1
        if depth:
            prof._frames[depth - 1][2] += elapsed


class _NullSpan:
    """No-op span: the disabled profiler's entire hot-loop cost."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _NullProfiler:
    """Disabled profiler: every phase is the shared no-op span."""

    __slots__ = ()

    def phase(self, name: str) -> _NullSpan:
        return _NULL_SPAN


NULL_PROFILER = _NullProfiler()


class PhaseProfiler:
    """Accumulates self-time (exclusive) seconds per named phase."""

    def __init__(self) -> None:
        #: phase -> exclusive wall-clock seconds
        self.totals: dict[str, float] = {}
        #: phase -> span entry count
        self.counts: dict[str, int] = {}
        self._spans: dict[str, _Span] = {}
        self._frames: list[list] = []
        self._depth = 0

    def phase(self, name: str) -> _Span:
        """The (cached, reusable) span for ``name``."""
        span = self._spans.get(name)
        if span is None:
            span = self._spans[name] = _Span(self, name)
        return span

    @property
    def total_seconds(self) -> float:
        return sum(self.totals.values())

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Machine-readable block: per phase seconds / calls / percent.

        Phases are ordered by descending self time; ``pct`` is of the
        instrumented total (0 when nothing was recorded).
        """
        total = self.total_seconds
        return {
            name: {
                "seconds": secs,
                "calls": self.counts.get(name, 0),
                "pct": (100.0 * secs / total) if total > 0 else 0.0,
            }
            for name, secs in sorted(
                self.totals.items(), key=lambda kv: (-kv[1], kv[0])
            )
        }

    def report(self) -> str:
        """Human-readable breakdown table."""
        rows = self.breakdown()
        if not rows:
            return "phase breakdown: (no phases recorded)"
        name_w = max(len("phase"), *(len(n) for n in rows))
        lines = [
            f"{'phase':<{name_w}}  {'self_s':>9}  {'pct':>6}  {'calls':>9}"
        ]
        for name, row in rows.items():
            lines.append(
                f"{name:<{name_w}}  {row['seconds']:>9.4f}  "
                f"{row['pct']:>5.1f}%  {row['calls']:>9d}"
            )
        lines.append(
            f"{'total':<{name_w}}  {self.total_seconds:>9.4f}  "
            f"{'100.0%' if self.totals else '  0.0%':>6}"
        )
        return "\n".join(lines)
