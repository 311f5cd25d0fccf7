"""Client-side SR latency models for streaming simulation.

The simulator needs per-frame SR processing time as a function of the
fetched point count and the SR ratio.  Two sources:

* :class:`DeviceSRLatency` — the operation-count model of
  :mod:`repro.devices` evaluated for a named system on a device profile
  (used for paper-scale sessions);
* :class:`MeasuredSRLatency` — wraps wall-clock measurements of the actual
  Python pipelines (used by tests and small-scale full-fidelity runs).
* :data:`ZERO_LATENCY` — for no-SR systems (raw streaming, ViVo).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..devices import CostModel, DeviceProfile

__all__ = [
    "SRLatency",
    "DeviceSRLatency",
    "MeasuredSRLatency",
    "ZERO_LATENCY",
    "latency_batch",
]

#: (points_in, sr_ratio) -> seconds per frame
SRLatency = Callable[[int, float], float]


def latency_batch(
    model: SRLatency, n_points_in: np.ndarray, sr_ratios: np.ndarray
) -> np.ndarray:
    """Evaluate an SR latency model over arrays of (points, ratio).

    Models exposing a ``batch(n_points_in, sr_ratios)`` method (all the
    built-ins) are evaluated in one array pass; arbitrary callables fall
    back to an element-wise loop, so the planners accept any
    ``SRLatency`` without losing parity with the scalar path.
    """
    pts, s = np.broadcast_arrays(
        np.asarray(n_points_in), np.asarray(sr_ratios, dtype=np.float64)
    )
    fn = getattr(model, "batch", None)
    if fn is not None:
        return np.asarray(fn(pts, s), dtype=np.float64)
    flat = [model(int(p), float(r)) for p, r in zip(pts.ravel(), s.ravel())]
    return np.asarray(flat, dtype=np.float64).reshape(pts.shape)


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

    def batch(self, n_points_in: np.ndarray, sr_ratios: np.ndarray) -> np.ndarray:
        """Element-exact batch via unique-pair de-duplication.

        The op-count model is inherently scalar, but a planner batch
        repeats the same few (points, ratio) pairs across sessions and
        horizon chunks, so evaluating each unique pair once recovers most
        of the vectorization win without touching the cost model.
        """
        pts, s = np.broadcast_arrays(
            np.asarray(n_points_in, dtype=np.float64),
            np.asarray(sr_ratios, dtype=np.float64),
        )
        pairs = np.stack([pts.ravel(), s.ravel()], axis=1)
        uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
        vals = np.array([self(int(p), float(r)) for p, r in uniq])
        return vals[inverse].reshape(pts.shape)


class MeasuredSRLatency:
    """Linear model fitted to measured (points, ratio) → seconds samples.

    ``base + per_input·n + per_output·(ratio-1)·n`` captures both kNN-bound
    and output-bound regimes of the real pipelines.
    """

    def __init__(self, base: float, per_input_point: float, per_output_point: float):
        if min(base, per_input_point, per_output_point) < 0:
            raise ValueError("latency coefficients must be non-negative")
        self.base = base
        self.per_input = per_input_point
        self.per_output = per_output_point

    def __call__(self, n_points_in: int, sr_ratio: float) -> float:
        if sr_ratio <= 1.0:
            return 0.0
        m = max(0.0, sr_ratio - 1.0) * n_points_in
        return self.base + self.per_input * n_points_in + self.per_output * m

    def batch(self, n_points_in: np.ndarray, sr_ratios: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`__call__` (identical arithmetic, element-wise)."""
        n = np.asarray(n_points_in, dtype=np.float64)
        s = np.asarray(sr_ratios, dtype=np.float64)
        m = np.maximum(0.0, s - 1.0) * n
        out = self.base + self.per_input * n + self.per_output * m
        return np.where(s <= 1.0, 0.0, out)

    @classmethod
    def fit(
        cls, samples: list[tuple[int, float, float]]
    ) -> "MeasuredSRLatency":
        """Least-squares fit from ``(n_points_in, sr_ratio, seconds)`` rows.

        Coefficients are clamped at zero (negative rates are measurement
        noise, not physics).  Use with wall-clock samples of the real
        pipeline to build a simulator latency model for new hardware.
        """
        import numpy as np

        if len(samples) < 3:
            raise ValueError("need at least 3 samples to fit 3 coefficients")
        A = np.array(
            [
                [1.0, n, max(0.0, s - 1.0) * n]
                for n, s, _ in samples
            ]
        )
        y = np.array([t for _, _, t in samples])
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        base, per_in, per_out = (max(0.0, float(c)) for c in coef)
        return cls(base, per_in, per_out)


def _zero(n_points_in: int, sr_ratio: float) -> float:
    return 0.0


def _zero_batch(n_points_in, sr_ratios) -> np.ndarray:
    shape = np.broadcast(np.asarray(n_points_in), np.asarray(sr_ratios)).shape
    return np.zeros(shape)


_zero.batch = _zero_batch  # type: ignore[attr-defined]

ZERO_LATENCY: SRLatency = _zero
