"""Per-flow reference for :class:`repro.net.topology.PathScheduler`.

The oracle of the scheduler parity instance: the same driver contract
(``add_flow`` / ``cancel`` / ``has_flow`` / ``busy`` / ``next_event`` /
``advance`` / ``delivered_bits``) written as a pure per-flow fluid loop
over flow objects, with its own share arithmetic and its own finish
tolerance.  It borrows only the production module's value types
(``NetworkPath``, ``Completion``) — everything that splits a link
between flows is written out here a second time, on purpose.

On a one-hop path this is the classic single-bottleneck processor-
sharing loop: one capacity lookup, one share denominator, one drain per
active flow per event step.  ``tests/net/test_topology.py`` pins
production to it with ``==`` on the :class:`Completion` streams;
``tests/streaming/test_fleet.py`` swaps it into a whole fleet run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net import Completion, NetworkPath

# The finish tolerance is part of the arithmetic the two implementations
# must agree on, so it is restated, not imported.
FINISH_RTOL = 1e-9
FINISH_ATOL = 1e-3


@dataclass
class _Flow:
    flow_id: int
    path: NetworkPath
    start_time: float
    data_start: float  # start_time + path RTT + any gate delay
    total_bits: float
    remaining_bits: float


class ReferenceScheduler:
    """Fluid sharing of a link pool, one Python loop per flow per step."""

    def __init__(self) -> None:
        self._flows: dict[int, _Flow] = {}
        self.delivered_bits = 0.0

    # -- registry --------------------------------------------------------
    def add_flow(
        self,
        flow_id: int,
        nbytes: int,
        start_time: float,
        path: NetworkPath,
        extra_delay: float = 0.0,
    ) -> None:
        if flow_id in self._flows:
            raise ValueError(f"flow {flow_id} already in flight")
        bits = float(nbytes) * 8.0
        self._flows[flow_id] = _Flow(
            flow_id=flow_id,
            path=path,
            start_time=float(start_time),
            data_start=float(start_time) + path.rtt + float(extra_delay),
            total_bits=bits,
            remaining_bits=bits,
        )

    @property
    def n_flows(self) -> int:
        return len(self._flows)

    def has_flow(self, flow_id: int) -> bool:
        return flow_id in self._flows

    def busy(self) -> bool:
        return bool(self._flows)

    def cancel(self, flow_id: int) -> None:
        if flow_id not in self._flows:
            raise KeyError(f"flow {flow_id} is not in flight")
        del self._flows[flow_id]

    # -- sharing arithmetic ------------------------------------------------
    def _active(self, now: float) -> list[_Flow]:
        return [
            f
            for f in self._flows.values()
            if f.data_start <= now and f.remaining_bits > 0.0
        ]

    def _rates(self, active: list[_Flow], now: float) -> list[float]:
        """Each active flow's min-over-hops fair processor-sharing
        allocation: ``capacity / sharers`` on every hop."""
        sharers: dict[int, int] = {}
        for f in active:
            for link in f.path.links:
                sharers[id(link)] = sharers.get(id(link), 0) + 1
        return [
            min(
                link.trace.bandwidth_at(now) / float(sharers[id(link)])
                for link in f.path.links
            )
            for f in active
        ]

    def _deliver(self, flow: _Flow, bits: float) -> None:
        self.delivered_bits += bits
        for link in flow.path.links:
            link.delivered_bits += bits

    # -- event loop --------------------------------------------------------
    def next_event(self, now: float) -> float:
        if not self._flows:
            raise RuntimeError("no flows in flight")
        flows = self._flows.values()
        events = [f.data_start for f in flows if f.data_start > now]
        # an already-empty flow completes as soon as its data start elapses
        events += [max(f.data_start, now) for f in flows if f.remaining_bits <= 0.0]
        active = self._active(now)
        for link in {id(l): l for f in active for l in f.path.links}.values():
            events.append(now + link.trace.time_to_next_change(now))
        for f, rate in zip(active, self._rates(active, now)):
            events.append(now + f.remaining_bits / rate)
        return min(events)

    def advance(self, now: float, to_time: float) -> list[Completion]:
        if to_time < now:
            raise ValueError("cannot advance backwards")
        dt = to_time - now
        active = self._active(now)
        # rates are fixed over the interval: snapshot before draining
        for f, rate in zip(active, self._rates(active, now)):
            drained = min(rate * dt, f.remaining_bits)
            f.remaining_bits -= drained
            self._deliver(f, drained)
            if f.remaining_bits <= max(FINISH_RTOL * f.total_bits, FINISH_ATOL):
                self._deliver(f, f.remaining_bits)
                f.remaining_bits = 0.0
        done = []
        for f in sorted(self._flows.values(), key=lambda f: f.flow_id):
            if f.remaining_bits <= 0.0 and f.data_start <= to_time:
                finish = f.data_start if f.total_bits == 0.0 else to_time
                done.append(Completion(f.flow_id, finish, finish - f.start_time))
                del self._flows[f.flow_id]
        return done
