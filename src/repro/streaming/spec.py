"""`FleetSpec`: one validated configuration object for a fleet run.

``simulate_fleet`` and ``shard_fleet`` take ``(sessions, spec=None,
**fields)``: either a :class:`FleetSpec`, or its fields as keywords,
which both entry points forward verbatim to ``FleetSpec(**fields)``.
The field list, the defaults, and the unknown-name errors therefore
live here and nowhere else, and :meth:`FleetSpec.validate` holds each
cross-field rule (trace xor topology, policy-vs-topology,
faults-need-topology, …) exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..net.topology import SCHEDULER_ENGINES

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..net.traces import NetworkTrace
    from ..obs import Telemetry
    from .cdn import CDNTopology
    from .control import ControlPlane
    from .cost import CostModel
    from .faults import FaultSchedule, RetryPolicy
    from .fleet import SRResultCache

__all__ = ["FleetSpec"]


@dataclass
class FleetSpec:
    """Everything ``simulate_fleet`` needs beyond the session list.

    Field semantics are those documented on
    :func:`~repro.streaming.fleet.simulate_fleet`; the defaults are the
    entry points' historical defaults, so ``FleetSpec()`` plus a trace
    or topology reproduces a bare call.  ``shard_fleet`` takes the same
    spec verbatim (topology mode only) and forwards it to each shard's
    inner ``simulate_fleet``.
    """

    trace: "NetworkTrace | None" = None
    topology: "CDNTopology | None" = None
    policy: str = "fair"
    sr_cache: "SRResultCache | str | None" = None
    scheduler_engine: str = "vector"
    assignment: list[int] | None = None
    faults: "FaultSchedule | None" = None
    retry_policy: "RetryPolicy | None" = None
    controller: "ControlPlane | None" = None
    telemetry: "Telemetry | None" = None
    cost_model: "CostModel | None" = None

    @classmethod
    def resolve(cls, spec: "FleetSpec | None", fields: dict) -> "FleetSpec":
        """The spec an entry point called as ``(sessions, spec, **fields)``
        runs: ``spec`` itself, or ``FleetSpec(**fields)`` — never a mix."""
        if spec is None:
            return cls(**fields)
        if fields:
            raise ValueError(
                "pass the configuration either as spec= or as FleetSpec "
                "field keywords, not both"
            )
        return spec

    def validate(self) -> None:
        """Enforce every cross-field rule; normalizes empty faults.

        The one home of the checks ``simulate_fleet`` and ``shard_fleet``
        used to duplicate.  Raises ``ValueError`` on the first violated
        rule; an empty fault schedule is normalized to ``None`` (the
        parity convention: no events ≡ no faults).  Session-dependent
        checks (assignment length/bounds) stay with the entry points,
        which hold the session list.
        """
        if (self.trace is None) == (self.topology is None):
            raise ValueError(
                "exactly one of trace and topology must be given"
            )
        if self.topology is not None and self.policy != "fair":
            raise ValueError(
                "policy applies to the single-link mode; a topology's "
                "links carry their own sharing policies (set them at "
                "construction, e.g. uniform_cdn(policy=...))"
            )
        if self.scheduler_engine not in SCHEDULER_ENGINES:
            raise ValueError(
                f"unknown scheduler_engine {self.scheduler_engine!r}; "
                f"expected one of {SCHEDULER_ENGINES}"
            )
        if self.faults is not None and not self.faults:
            self.faults = None  # empty schedule ≡ no faults
        if (
            self.faults is not None or self.controller is not None
        ) and self.topology is None:
            raise ValueError(
                "faults and controller require a topology (fault events "
                "and control actions are defined against CDN edges)"
            )
        if self.retry_policy is not None and self.topology is None:
            raise ValueError(
                "retry_policy requires a topology (timeouts retry "
                "against CDN edges; the single-link mode has no edge "
                "to fail over to)"
            )
        if self.topology is None and self.assignment is not None:
            raise ValueError("assignment requires a topology")
        if isinstance(self.sr_cache, str):
            if self.sr_cache != "per-edge":
                raise ValueError(
                    f"unknown sr_cache mode {self.sr_cache!r}; pass an "
                    "SRResultCache, None, or 'per-edge'"
                )
            if self.topology is None:
                raise ValueError("sr_cache='per-edge' requires a topology")
