"""First-principles infrastructure cost model: dollars per fleet run.

A fleet run consumes four billable resources, each read straight off
the simulator's own accounting rather than estimated:

* **origin egress** — bytes that crossed an origin → edge backhaul
  (``FleetReport.origin_egress_bytes``; on a single link's zero-capacity
  edge every delivered byte does), priced $/GB;
* **encode compute** — transcode core-seconds actually occupied at the
  origin (``FleetReport.encode_core_seconds``, summed from
  :class:`~repro.streaming.cdn.EncodeQueue` busy time), priced
  $/core-hour;
* **edge cache storage** — provisioned edge chunk-cache capacity,
  amortized over the run's virtual window at a $/GB-month rate (a 600 s
  run of a 4 GB cache bills 4 GB × 600/2 592 000 months);
* **SR compute** — client-assist device time, one device busy per
  session for its watched seconds, priced $/device-hour.

``CostModel.price`` folds a finished
:class:`~repro.streaming.fleet.FleetResult` into a :class:`CostReport`
carrying both the physical quantities and their dollar components, so
every figure is hand-checkable.  Pricing is applied to a result after
the run, never inside it, so it cannot perturb the simulation.  The
defaults approximate public-cloud list prices; they are knobs, not
claims — QoE-per-dollar *comparisons* between policies on the same
workload are the intended reading, in the MLSYSIM spirit of grounding
systems experiments in infrastructure economics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .fleet import FleetResult

__all__ = ["CostModel", "CostReport"]

#: decimal gigabyte — cloud egress/storage is billed base-10
_GB = 1e9

#: amortization month (30 days), the usual cloud storage billing quantum
_SECONDS_PER_MONTH = 30 * 86400


@dataclass(frozen=True)
class CostReport:
    """Dollarized resource bill of one fleet run.

    Quantities and dollar components are both carried so tests (and
    readers) can verify every line: ``<quantity> × <unit price> ==
    <component>`` and ``total_usd == sum(components)``.
    """

    egress_gb: float
    encode_core_hours: float
    storage_gb_months: float
    sr_device_hours: float
    egress_usd: float
    encode_usd: float
    storage_usd: float
    sr_usd: float
    total_usd: float

    def qoe_per_dollar(self, mean_qoe: float, n_sessions: int) -> float:
        """Delivered QoE (summed over viewers) per dollar spent.

        ``inf`` when the run cost nothing (e.g. a zero-priced model) —
        a free run dominates any paid one.
        """
        total_qoe = mean_qoe * n_sessions
        if self.total_usd <= 0.0:
            return float("inf")
        return total_qoe / self.total_usd


@dataclass(frozen=True)
class CostModel:
    """Per-unit prices; ``price`` turns a fleet result into dollars.

    Defaults are public-cloud ballpark list prices (egress $0.05/GB,
    compute $0.08/core-hour, storage $0.02/GB-month, client device time
    $0.01/device-hour — client compute is cheap but not free: it is the
    battery/goodwill budget client-assist SR spends).
    """

    egress_usd_per_gb: float = 0.05
    encode_usd_per_core_hour: float = 0.08
    storage_usd_per_gb_month: float = 0.02
    sr_usd_per_device_hour: float = 0.01

    def __post_init__(self) -> None:
        for name in (
            "egress_usd_per_gb",
            "encode_usd_per_core_hour",
            "storage_usd_per_gb_month",
            "sr_usd_per_device_hour",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def price(self, result: "FleetResult") -> CostReport:
        """Bill one :class:`~repro.streaming.fleet.FleetResult`."""
        report = result.report
        # Every miss crosses a backhaul, so on single_link_cdn's
        # zero-capacity edge origin egress is the delivered total and its
        # provisioned storage is zero.
        egress_gb = report.origin_egress_bytes / _GB
        encode_core_hours = report.encode_core_seconds / 3600.0
        storage_bytes = sum(
            e.cache.capacity_bytes for e in result.topology.edges
        )
        storage_gb_months = (storage_bytes / _GB) * (
            report.makespan / _SECONDS_PER_MONTH
        )
        sr_device_hours = (
            sum(s.watched_seconds for s in result.sessions) / 3600.0
        )
        egress_usd = egress_gb * self.egress_usd_per_gb
        encode_usd = encode_core_hours * self.encode_usd_per_core_hour
        storage_usd = storage_gb_months * self.storage_usd_per_gb_month
        sr_usd = sr_device_hours * self.sr_usd_per_device_hour
        return CostReport(
            egress_gb=egress_gb,
            encode_core_hours=encode_core_hours,
            storage_gb_months=storage_gb_months,
            sr_device_hours=sr_device_hours,
            egress_usd=egress_usd,
            encode_usd=encode_usd,
            storage_usd=storage_usd,
            sr_usd=sr_usd,
            total_usd=egress_usd + encode_usd + storage_usd + sr_usd,
        )

