"""Trace-driven link model.

Deterministically computes how long a transfer of ``n`` bytes takes when it
starts at absolute time ``t``, by integrating the trace's piecewise-constant
rate and adding one RTT of request latency — the behaviour of the paper's
custom DASH-like protocol over TCP at this level of abstraction (slow-start
effects are negligible for multi-megabyte chunks on persistent
connections).  :class:`Link` times one transfer on a link of its own;
:class:`SharedLink` is the record a link shared between concurrent
transfers keeps (trace, delivered bits).  Both move
their bits through :class:`repro.net.topology.PathScheduler`, the one
transfer integrator.
"""

from __future__ import annotations

from typing import NamedTuple

from .traces import NetworkTrace

__all__ = ["Link", "SharedLink", "Completion"]


class Link:
    """Downloads bytes over a :class:`NetworkTrace`."""

    def __init__(self, trace: NetworkTrace):
        self.trace = trace

    def download_time(self, nbytes: int, start_time: float) -> float:
        """Seconds to fetch ``nbytes`` starting at ``start_time``.

        The transfer runs as the only flow of a private
        :class:`~repro.net.topology.PathScheduler`, so fluctuating traces
        are honoured mid-transfer.  Includes one RTT of request overhead.
        Raises ``ValueError`` on a negative or non-finite argument, and
        ``RuntimeError`` if the clock cannot move (a start time so large
        that the transfer's increments round away).
        """
        from .topology import NetworkPath, PathScheduler  # imports this module

        sched = PathScheduler()
        sched.add_flow(0, nbytes, start_time, NetworkPath((SharedLink(self.trace),)))
        now = float(start_time)
        while True:
            t = sched.next_event(now)
            done = sched.advance(now, t)
            if done:
                return done[0].elapsed
            if not t > now:  # the pool is as it was: the next step repeats this one
                raise RuntimeError(f"download made no progress at t={now!r}")
            now = t


class Completion(NamedTuple):
    """One finished transfer reported by the path scheduler."""

    flow_id: int
    finish_time: float
    elapsed: float  # seconds from request start, RTT included


class SharedLink:
    """A bottleneck :class:`NetworkTrace` shared by concurrent transfers.

    A record, not an engine: the capacity ``trace`` and the
    ``delivered_bits`` tally.  Links are hops of a
    :class:`~repro.net.topology.NetworkPath`, and
    :class:`~repro.net.topology.PathScheduler` moves the bits — fair
    processor sharing (the fluid limit of per-flow fair queueing): at any
    instant every flow whose data is moving on the link receives
    ``capacity / n_active``.  The split is work-conserving, so per-flow
    allocations sum to the trace capacity while any flow is active.
    """

    def __init__(self, trace: NetworkTrace):
        self.trace = trace
        #: bits that crossed this link, charged by the scheduler as each
        #: flow leaves its pool (conservation checks)
        self.delivered_bits = 0.0
