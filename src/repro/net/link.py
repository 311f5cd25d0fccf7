"""Trace-driven link model.

Deterministically computes how long a transfer of ``n`` bytes takes when it
starts at absolute time ``t``, by integrating the trace's piecewise-constant
rate and adding one RTT of request latency — the behaviour of the paper's
custom DASH-like protocol over TCP at this level of abstraction (slow-start
effects are negligible for multi-megabyte chunks on persistent
connections).  :class:`Link` is the single-client integrator;
:class:`SharedLink` is the record a link shared between concurrent
transfers keeps (trace, sharing policy, delivered bits) — the sharing
arithmetic itself lives in :mod:`repro.net.topology`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .traces import NetworkTrace

__all__ = ["Link", "SharedLink", "Completion", "SHARING_POLICIES"]


class Link:
    """Downloads bytes over a :class:`NetworkTrace`."""

    def __init__(self, trace: NetworkTrace):
        self.trace = trace

    def download_time(self, nbytes: int, start_time: float) -> float:
        """Seconds to fetch ``nbytes`` starting at ``start_time``.

        Integrates the piecewise-constant trace rate segment-exactly, so
        fluctuating traces are honoured mid-transfer.  Includes one RTT of
        request overhead.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if start_time < 0:
            raise ValueError("start_time must be non-negative")
        if nbytes == 0:
            return self.trace.rtt
        remaining = float(nbytes) * 8.0  # bits
        t = start_time + self.trace.rtt
        elapsed = self.trace.rtt
        # Hard cap prevents infinite loops on pathological inputs; at the
        # 1 Mbps trace floor even a 1 GB chunk finishes well inside this.
        max_iterations = 10_000_000
        for _ in range(max_iterations):
            rate = self.trace.bandwidth_at(t)
            seg = self.trace.time_to_next_change(t)
            if rate * seg >= remaining:
                dt = remaining / rate
                return elapsed + dt
            remaining -= rate * seg
            t += seg
            elapsed += seg
        raise RuntimeError("download did not converge")  # pragma: no cover

    def throughput_sample(self, nbytes: int, start_time: float) -> float:
        """Observed throughput (bps) of a transfer, as a client measures it."""
        dt = self.download_time(nbytes, start_time)
        return float(nbytes) * 8.0 / dt if dt > 0 else float("inf")


#: Supported bandwidth-sharing policies for :class:`SharedLink`.
SHARING_POLICIES = ("fair", "weighted")


@dataclass(frozen=True)
class Completion:
    """One finished transfer reported by the path scheduler."""

    flow_id: int
    finish_time: float
    elapsed: float  # seconds from request start, RTT included


class SharedLink:
    """A bottleneck :class:`NetworkTrace` shared by concurrent transfers.

    A record, not an engine: the capacity ``trace``, the sharing
    ``policy`` and the ``delivered_bits`` tally.  Links are hops of a
    :class:`~repro.net.topology.NetworkPath`, and
    :class:`~repro.net.topology.PathScheduler` moves the bits — weighted
    processor sharing (the fluid limit of per-flow fair queueing), where
    at any instant every flow whose data is moving on the link receives

    * ``fair``      — ``capacity / n_active`` regardless of weights;
    * ``weighted``  — ``capacity * w_i / Σ_active w_j``.

    Both policies are work-conserving, so per-flow allocations always sum
    to the trace capacity while any flow is active.
    """

    def __init__(self, trace: NetworkTrace, policy: str = "fair"):
        if policy not in SHARING_POLICIES:
            raise ValueError(
                f"unknown sharing policy {policy!r}; pick from {SHARING_POLICIES}"
            )
        self.trace = trace
        self.policy = policy
        #: bits that crossed this link, charged by the scheduler as each
        #: flow leaves its pool (conservation checks)
        self.delivered_bits = 0.0
