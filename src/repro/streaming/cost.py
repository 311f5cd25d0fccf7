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

:func:`price` folds a finished
:class:`~repro.streaming.fleet.FleetResult` into a :class:`CostReport`
carrying both the physical quantities and their dollar components, so
every figure is hand-checkable.  Pricing is applied to a result after
the run, never inside it, so it cannot perturb the simulation.  The
unit prices are the module constants below, public-cloud ballpark list
prices: absolute dollars are indicative only — QoE-per-dollar
*comparisons* between policies on the same workload are the intended
reading, in the MLSYSIM spirit of grounding systems experiments in
infrastructure economics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .fleet import FleetResult

__all__ = ["price", "CostReport"]

#: decimal gigabyte — cloud egress/storage is billed base-10
_GB = 1e9

#: amortization month (30 days), the usual cloud storage billing quantum
_SECONDS_PER_MONTH = 30 * 86400

#: unit prices.  Client device time is cheap but not free: it is the
#: battery/goodwill budget client-assist SR spends.
EGRESS_USD_PER_GB = 0.05
ENCODE_USD_PER_CORE_HOUR = 0.08
STORAGE_USD_PER_GB_MONTH = 0.02
SR_USD_PER_DEVICE_HOUR = 0.01


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

        ``inf`` when the run cost nothing (nothing delivered, encoded,
        cached or watched) — a free run dominates any paid one.
        """
        total_qoe = mean_qoe * n_sessions
        if self.total_usd <= 0.0:
            return float("inf")
        return total_qoe / self.total_usd


def price(result: "FleetResult") -> CostReport:
    """Bill one :class:`~repro.streaming.fleet.FleetResult` at the module's
    unit prices."""
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
    egress_usd = egress_gb * EGRESS_USD_PER_GB
    encode_usd = encode_core_hours * ENCODE_USD_PER_CORE_HOUR
    storage_usd = storage_gb_months * STORAGE_USD_PER_GB_MONTH
    sr_usd = sr_device_hours * SR_USD_PER_DEVICE_HOUR
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
