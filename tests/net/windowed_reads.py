"""Counts what a fault-windowed link costs the scheduler in trace reads.

:class:`WindowedReads` patches ``DegradedTrace``'s three read methods and
``_PoolState.activate`` for one test (through ``monkeypatch``) and keeps,
per trace, the calls of each method, how often a link on it turned
active and the latest instant it was read at.  ``bound`` is what a link
kept until its segment ends may cost: one read per activation and one
per segment or window boundary up to that instant.
"""

from collections import Counter, defaultdict

from repro.net.topology import _PoolState
from repro.streaming.faults import DegradedTrace

from .test_traces import period

READS = ("segment", "bandwidth_at", "time_to_next_change")


class WindowedReads:
    def __init__(self, monkeypatch) -> None:
        self.reads: defaultdict[int, Counter] = defaultdict(Counter)
        self.activations: Counter = Counter()
        self.last: Counter = Counter()
        for name in READS:
            def counted(trace, t, _fn=getattr(DegradedTrace, name), _name=name):
                self.reads[id(trace)][_name] += 1
                self.last[id(trace)] = max(self.last[id(trace)], t)
                return _fn(trace, t)
            monkeypatch.setattr(DegradedTrace, name, counted)
        activate = _PoolState.activate

        def counting(pool, flow, now):
            for li in flow.link_ids:
                if not pool.count[li]:
                    self.activations[id(pool.link_list[li].trace)] += 1
            activate(pool, flow, now)

        monkeypatch.setattr(_PoolState, "activate", counting)

    def boundaries(self, trace: DegradedTrace) -> int:
        """The base segments' ends and the window starts and ends in
        ``(0, last read]``."""
        last, duration = self.last[id(trace)], period(trace.base)
        loops = int(last // duration)
        ends = sum(
            1 for k in range(loops + 1) for s in trace.base.timestamps
            if 0.0 < k * duration + s <= last
        )
        return ends + sum(1 for w in trace.windows for b in w[:2] if b <= last)

    def bound(self, trace: DegradedTrace) -> int:
        return self.activations[id(trace)] + self.boundaries(trace)
