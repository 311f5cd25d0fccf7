"""Throughput estimation (paper §5.1).

The MPC controller consumes "network throughput estimates (computed via
harmonic mean over sliding windows)".  The harmonic mean is the standard
robust estimator in MPC-based ABR (Yin et al. 2015): it down-weights
transient spikes, which would otherwise cause over-fetching.
"""

from __future__ import annotations

import math
import numbers
from collections import deque

__all__ = ["HarmonicMeanEstimator"]


class HarmonicMeanEstimator:
    """Sliding-window harmonic-mean throughput estimator."""

    def __init__(self, window: int = 5, initial_bps: float = 10e6):
        # ``int(0.5)`` is a window that keeps no sample, so the estimate
        # would read ``initial_bps`` for ever; the chained comparison also
        # refuses NaN and inf, which the estimate would otherwise return
        if (
            isinstance(window, bool)
            or not isinstance(window, numbers.Integral)
            or window < 1
        ):
            raise ValueError(f"window must be an integer >= 1, got {window!r}")
        if not 0.0 < initial_bps < math.inf:
            raise ValueError(
                "initial estimate must be finite and positive, got "
                f"{initial_bps!r}"
            )
        self.window = int(window)
        self.initial_bps = float(initial_bps)
        #: ``1 / sample`` of the last ``window`` samples: each sample is
        #: divided once, when it arrives, not once per estimate it is in
        self._inverses: deque[float] = deque(maxlen=self.window)

    def observe(self, throughput_bps: float) -> None:
        """Record one completed-transfer throughput sample.

        Stated as ``not (0 < x < inf)`` so NaN fails too: an infinite
        sample would make :meth:`estimate` divide by zero, and a NaN one
        would make it NaN.
        """
        if not 0.0 < throughput_bps < math.inf:
            raise ValueError(
                "throughput sample must be finite and positive, got "
                f"{throughput_bps!r}"
            )
        self._inverses.append(1.0 / float(throughput_bps))

    def estimate(self) -> float:
        """Current harmonic-mean estimate (bps).

        Computed with plain-Python arithmetic: this runs once per ABR
        decision, and for windows under numpy's pairwise-summation block
        (8) the sequential sum is bit-identical to the ``np.mean`` it
        replaces (``sum()`` is not: from Python 3.12 it compensates).
        """
        inverses = self._inverses
        if not inverses:
            return self.initial_bps
        total = 0.0
        for r in inverses:
            total += r
        return 1.0 / (total / len(inverses))
