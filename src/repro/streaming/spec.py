"""`FleetSpec`: one validated configuration object for a fleet run.

``simulate_fleet`` takes ``(sessions, spec=None, **fields)``: either a
:class:`FleetSpec`, or its fields as keywords, which it forwards
verbatim to ``FleetSpec(**fields)``.
The field list, the defaults, and the unknown-name errors therefore
live here and nowhere else.  There is one serving model: ``topology``
is required, and a bare bottleneck link is the one-edge CDN
:func:`~repro.streaming.cdn.single_link_cdn` builds.  Every field
configures the run; pricing a finished run is not one of them —
:func:`~repro.streaming.cost.price` takes the result.

A run owns what it mutates: it builds its links, caches, encode queue
and SR caches from what the spec describes and writes to nothing the
spec holds, except the ``telemetry`` sink and a controller's cross-run
autoscaler, which exist to receive output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .cdn import CDNTopology

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..obs import Telemetry
    from .control import ControlPlane
    from .faults import FaultSchedule, RetryPolicy

__all__ = ["FleetSpec"]

#: What ``FleetSpec.sr_cache`` accepts: no SR sharing, one cache shared
#: by the fleet, or one cache per edge.
_SR_CACHE_MODES = (None, "shared", "per-edge")


@dataclass
class FleetSpec:
    """Everything ``simulate_fleet`` needs beyond the session list.

    The one configuration surface, and the one place each field is
    documented.  ``topology`` is the one required field; everything else
    defaults to off, and every disabled configuration is bit-exact with
    the plain simulator (the disabled-mode parity suites pin each).
    """

    #: the serving graph: per-edge chunk caches, backhaul + access hops,
    #: origin encode contention; every link is fair processor sharing.
    #: Each chunk request consults its edge's cache at request time: a
    #: hit travels the one-hop access path; a miss waits for the origin to
    #: hold the encoded variant (bounded encode workers), travels backhaul
    #: + access, and fills the edge cache on completion; a miss on a chunk
    #: already being filled coalesces onto that fill.  A bare link is
    #: :func:`~repro.streaming.cdn.single_link_cdn`.  A description: the
    #: run serves over fresh links, caches and an idle origin built from
    #: it (same traces, capacities, worker count and encode time).
    topology: "CDNTopology"
    #: SR-result sharing mode: ``None`` (none), ``"shared"`` — one
    #: :class:`~repro.streaming.fleet.SRResultCache` for the whole fleet —
    #: or ``"per-edge"`` — each edge carries its own cache, sessions share
    #: SR work only with co-watchers on their edge, and the report gains
    #: per-edge SR hit rates.  The run builds its caches at the default
    #: capacity.
    sr_cache: str | None = None
    #: precomputed viewer → edge index per session, overriding the
    #: topology's assignment policy — a pinned edge layout, e.g. to put
    #: known viewers on an edge a fault then hits.  Each entry must be an
    #: integer in ``[0, n_edges)``.
    assignment: list[int] | None = None
    #: chaos events.  Edge outages cancel the dead edge's in-flight
    #: transfers, fail its viewers over to the least-loaded live edge and
    #: restart the edge cold; region outages resolve through the
    #: topology's fault domains and take every member edge down together;
    #: gray failures brown out an edge's access capacity and
    #: deterministically drop a fraction of its dispatches, each drop
    #: retrying after ``drop_delay_s``; backhaul degradations scale an
    #: edge's backhaul trace (both through
    #: :class:`~repro.streaming.faults.DegradedTrace` windows); flash-crowd
    #: entries only count in ``faults_injected`` (materialize their
    #: sessions first via ``FaultSchedule.expand_population``).  A fault's
    #: damage is read after the run, against the same spec without faults
    #: (:func:`~repro.obs.damage.fault_damage`).
    faults: "FaultSchedule | None" = None
    #: the client resilience layer.  A finite ``timeout_s`` arms a
    #: virtual-time timer per transfer attempt: at the deadline the
    #: attempt is cancelled (its charged bytes credited back), counted in
    #: ``requests_timed_out``, and re-issued after capped exponential
    #: backoff — or at once against the least-loaded other live edge when
    #: ``hedge`` is set.  The last attempt of the ``max_attempts`` budget
    #: runs untimed, so every chunk eventually delivers and
    #: ``retry_attempts`` records how hard the client fought.  Evacuation
    #: retries pay the same backoff.  The default ``RetryPolicy()``
    #: (infinite timeout) arms nothing.
    retry_policy: "RetryPolicy | None" = None
    #: a :class:`~repro.streaming.control.ControlPlane`, ticked every
    #: control interval on a sampled
    #: :class:`~repro.streaming.control.FleetView` — encode-pool resizing,
    #: saturation re-steering, QoE-driven arrival autoscale feedback,
    #: quality-cap / SR-off levers while a region is dark.
    controller: "ControlPlane | None" = None
    #: a :class:`~repro.obs.Telemetry` bundle; each layer toggles
    #: independently.  The tracer collects typed virtual-time events from
    #: every subsystem (the run's edge caches, encode queue and control
    #: ticks); the metrics registry receives the interval samples (health,
    #: buffer occupancy, per-edge load, encode busy/workers); the profiler
    #: wraps the loop's four phases (``scheduler`` / ``advance`` /
    #: ``planner`` / ``control``) in wall-clock spans, one ``scheduler``
    #: span per event step.
    telemetry: "Telemetry | None" = None

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
        """Check the topology's type and the ``sr_cache`` mode.

        Raises ``ValueError`` on a non-``CDNTopology`` (``None`` too) or
        an ``sr_cache`` that is not a mode.  Writes nothing.
        Topology-dependent checks (fault edges and regions, assignment
        length and entries) stay with the run, which holds the topology
        and the session list.
        """
        if not isinstance(self.topology, CDNTopology):
            raise ValueError(
                f"topology must be a CDNTopology, got {self.topology!r}; "
                "serve a bare link with single_link_cdn(trace)"
            )
        if self.sr_cache not in _SR_CACHE_MODES:
            raise ValueError(
                "sr_cache must be one of the modes None, 'shared' or "
                f"'per-edge', got {self.sr_cache!r}; the run builds its "
                "own caches"
            )
