"""Client-side SR latency models for streaming simulation.

The simulator needs per-frame SR processing time as a function of the
fetched point count and the SR ratio: an :data:`SRLatency` is just that
callable, which both the session and the planners' caches call.  It must
be a pure function of its two arguments: the session evaluates it once
per distinct (density, SR ratio, frames) of a chunk and the planner once
per chunk window and candidate, and both replay the result.  Models:

* :class:`DeviceSRLatency` — the operation-count model of
  :mod:`repro.devices` evaluated for a named system on a device profile
  (used for paper-scale sessions);
* :class:`MeasuredSRLatency` — a linear model with typed coefficients:
  the fleet's stand-in for a measured client (used by the fleet scenarios
  and tests; ROADMAP items 4(b) and 20 replace it with a measured card).
* :data:`ZERO_LATENCY` — for no-SR systems (raw streaming, ViVo).
"""

from __future__ import annotations

import math
from collections.abc import Callable


from ..devices import CostModel, DeviceProfile

__all__ = [
    "SRLatency",
    "DeviceSRLatency",
    "MeasuredSRLatency",
    "ZERO_LATENCY",
]

#: (points_in, sr_ratio) -> seconds per frame
SRLatency = Callable[[int, float], float]


class DeviceSRLatency:
    """Per-frame SR latency from the op-count model."""

    def __init__(self, system: str, profile: DeviceProfile):
        # Validate eagerly so misconfigured systems fail at construction.
        CostModel.frame_seconds(system, 1000, 2.0, profile)
        self.system = system
        self.profile = profile

    def __call__(self, n_points_in: int, sr_ratio: float) -> float:
        if sr_ratio <= 1.0:
            return 0.0
        return CostModel.frame_seconds(
            self.system, n_points_in, sr_ratio, self.profile
        )


class MeasuredSRLatency:
    """Linear (points, ratio) → seconds model with typed coefficients.

    ``base + per_input·n + per_output·(ratio-1)·n`` has the shape of both
    kNN-bound and output-bound regimes of the real pipelines, but nothing
    fits it to measurements: ``Scenario.population`` builds it from the
    constants ``(0.001, 1e-8, 2e-8)``.
    """

    def __init__(self, base: float, per_input_point: float, per_output_point: float):
        for name, value in dict(
            base=base, per_input_point=per_input_point, per_output_point=per_output_point
        ).items():
            if not 0 <= value < math.inf:  # chained: NaN fails it
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        self.base = base
        self.per_input = per_input_point
        self.per_output = per_output_point

    def __call__(self, n_points_in: int, sr_ratio: float) -> float:
        if sr_ratio <= 1.0:
            return 0.0
        m = max(0.0, sr_ratio - 1.0) * n_points_in
        return self.base + self.per_input * n_points_in + self.per_output * m


def _zero(n_points_in: int, sr_ratio: float) -> float:
    return 0.0


ZERO_LATENCY: SRLatency = _zero
