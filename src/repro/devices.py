"""Device profiles and the operation-count latency model.

The paper reports absolute FPS on two clients — a desktop with an RTX
3080Ti and an Orange Pi 5 (RK3588S, comparable to a Meta Quest 3).  Neither
is available here, so absolute latencies are *modeled*: each pipeline
stage's cost is counted in abstract operations (a function of input size,
upsampling ratio, and algorithm — these counts are the honest part, derived
from the implementations in :mod:`repro.sr`), and a
:class:`DeviceProfile` converts operations to seconds via a calibrated
effective rate.

What this preserves from the paper:

* *who wins and why* — VoLUT does one pruned kNN pass and O(1) lookups;
  vanilla does a quadratic search; YuZu pays per-point network MACs;
  GradPU multiplies both by its iteration count.  Those structural ratios
  come from the op counts, not the calibration;
* *latency flat in the upsampling ratio* — VoLUT's cost is dominated by the
  kNN over *input* points (Fig. 18's observation), which the counts show;
* plausible absolute magnitudes per device (the calibrated part; the
  ``fig11-device``, ``fig16-device``, ``fig17-device`` and ``fig18``
  experiments print the modeled numbers).

``candidate_fraction`` captures how aggressively the spatial index prunes
on each platform: the two-layer octree searches roughly the 27 cells around
the query out of 64 on CPU (ring-1 of a 4×4×4 grid), while the massively
parallel GPU client (cuKDTree) prunes deeper — matching the paper's
observation that the interpolation speed-up is larger on GPU (7.5–8.1×)
than on the Orange Pi (3.7–3.9×).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DeviceProfile",
    "ORANGE_PI",
    "DESKTOP_GPU",
    "CostModel",
]


@dataclass(frozen=True)
class DeviceProfile:
    """Converts abstract operation counts into seconds.

    Attributes
    ----------
    ops_per_second:
        Effective sustained rate for the vectorizable point/neighbor math.
    macs_per_second:
        Effective rate for dense network inference (GPUs run GEMMs far
        above their scattered-memory rate; embedded CPUs do not).
    candidate_fraction:
        Fraction of the cloud examined per pruned (octree) kNN query.
    """

    name: str
    ops_per_second: float
    macs_per_second: float
    candidate_fraction: float

    def __post_init__(self) -> None:
        if self.ops_per_second <= 0 or self.macs_per_second <= 0:
            raise ValueError("rates must be positive")
        if not 0.0 < self.candidate_fraction <= 1.0:
            raise ValueError("candidate_fraction must be in (0, 1]")

    def seconds(self, ops: float, macs: float = 0.0) -> float:
        """Wall-clock estimate for a workload of (ops, macs)."""
        if ops < 0 or macs < 0:
            raise ValueError("work amounts must be non-negative")
        return ops / self.ops_per_second + macs / self.macs_per_second


#: RK3588S-class embedded board (≈ Meta Quest 3 XR2 compute).
ORANGE_PI = DeviceProfile(
    name="orange-pi",
    ops_per_second=2.0e9,
    macs_per_second=8.0e9,
    candidate_fraction=0.26,
)

#: RTX 3080Ti-class desktop GPU client (CUDA kernels + cuKDTree).
DESKTOP_GPU = DeviceProfile(
    name="desktop-gpu",
    ops_per_second=1.8e11,
    macs_per_second=4.0e12,
    candidate_fraction=0.125,
)


class CostModel:
    """Operation counts for each SR pipeline variant.

    All counts are per frame.  ``n_in`` is the input (downsampled) point
    count; ``ratio`` the upsampling ratio; ``m = (ratio-1)·n_in`` the number
    of generated points.

    The constants (ops per candidate, per midpoint, per lookup) are small
    integers reflecting the actual arithmetic in :mod:`repro.sr`:
    a distance evaluation is ~8 flops, a midpoint ~6, a table probe ~64
    (key pack + binary search), etc.
    """

    OPS_PER_CANDIDATE = 1.6      # one SIMD-pipelined distance + compare
    OPS_PER_MIDPOINT = 6.0       # average + writeback
    OPS_PER_COLOR = 4.0          # parent compare + copy
    OPS_PER_LOOKUP = 40.0        # quantize, pack, binary search
    OPS_PER_REUSE = 40.0         # merge-and-prune over ~10 candidates
    OPS_PER_ENCODE = 20.0        # Eq.3/Eq.4 for one neighborhood

    # ------------------------------------------------------------------
    @staticmethod
    def new_points(n_in: int, ratio: float) -> int:
        return int(round(max(0.0, ratio - 1.0) * n_in))

    # ------------------------------------------------------------------
    @classmethod
    def knn_ops(cls, n_queries: int, n_points: int, candidate_fraction: float) -> float:
        """One kNN pass of ``n_queries`` against ``n_points``."""
        cand = max(1.0, candidate_fraction * n_points)
        return n_queries * cand * cls.OPS_PER_CANDIDATE

    # ------------------------------------------------------------------
    @classmethod
    def volut_frame(
        cls, n_in: int, ratio: float, profile: DeviceProfile
    ) -> dict[str, float]:
        """VoLUT client: one pruned kNN pass + reuse + LUT lookups.

        Returns per-stage seconds (keys match
        :class:`repro.sr.pipeline.StageTimes`).
        """
        m = cls.new_points(n_in, ratio)
        knn = cls.knn_ops(n_in, n_in, profile.candidate_fraction)
        interp = m * cls.OPS_PER_MIDPOINT
        color = m * cls.OPS_PER_COLOR
        refine = m * (cls.OPS_PER_REUSE + cls.OPS_PER_ENCODE + cls.OPS_PER_LOOKUP)
        return {
            "knn": profile.seconds(knn),
            "interpolation": profile.seconds(interp),
            "colorization": profile.seconds(color),
            "refinement": profile.seconds(refine),
        }

    @classmethod
    def vanilla_frame(
        cls, n_in: int, ratio: float, profile: DeviceProfile
    ) -> dict[str, float]:
        """Naive client: brute-force kNN, fresh searches per stage."""
        m = cls.new_points(n_in, ratio)
        knn = cls.knn_ops(n_in, n_in, 1.0)          # interpolation search
        knn += cls.knn_ops(m, n_in, 1.0)            # colorization search
        interp = m * cls.OPS_PER_MIDPOINT
        color = m * cls.OPS_PER_COLOR
        return {
            "knn": profile.seconds(knn),
            "interpolation": profile.seconds(interp),
            "colorization": profile.seconds(color),
            "refinement": 0.0,
        }

    @classmethod
    def yuzu_frame(
        cls,
        n_in: int,
        ratio: float,
        profile: DeviceProfile,
        macs_per_point: float = 1.1e6,
    ) -> dict[str, float]:
        """YuZu client: pruned kNN + heavy network inference.

        YuZu reaches large ratios by *factorizing* them into 2×/3× model
        stages (its options are 1x2, 2x2, 1x3, ...), so the points pushed
        through the network total ``n_in · 2(ratio−1)`` (a geometric
        cascade: 2n + 4n + ... = 2(r−1)n).  ``macs_per_point`` defaults to
        ~1.1e6, the order of YuZu's sparse 3-D conv models per processed
        point after its engine optimizations (our stand-in direct-SR MLP in
        :mod:`repro.sr.yuzu` is ~1.4e5 MACs/point — the real model family
        is heavier by about a decade).  Net effect, as the paper observes:
        lower fetch densities mean *more* SR workload, which is exactly
        when YuZu's inference throughput falls below line rate.
        """
        stages = {}
        knn = cls.knn_ops(n_in, n_in, profile.candidate_fraction)
        stages["knn"] = profile.seconds(knn)
        stages["interpolation"] = 0.0
        stages["colorization"] = profile.seconds(
            cls.new_points(n_in, ratio) * cls.OPS_PER_COLOR
        )
        processed = n_in * 2.0 * max(ratio - 1.0, 0.0)
        stages["refinement"] = profile.seconds(
            n_in * cls.OPS_PER_ENCODE, macs=processed * macs_per_point
        )
        return stages

    @classmethod
    def gradpu_frame(
        cls,
        n_in: int,
        ratio: float,
        profile: DeviceProfile,
        n_steps: int = 60,
        macs_per_point: float = 1.7e8,
    ) -> dict[str, float]:
        """GradPU: per-step neighborhood re-gather + network inference.

        GradPU runs tens of gradient-descent iterations against a learned
        distance field (``macs_per_point`` per evaluation is far above the
        distilled MLP's — the paper measures it 46,400× slower than VoLUT
        on GPU).
        """
        m = cls.new_points(n_in, ratio)
        knn = cls.knn_ops(n_in, n_in, profile.candidate_fraction)
        step_knn = cls.knn_ops(m, n_in, profile.candidate_fraction)
        stages = {
            "knn": profile.seconds(knn),
            "interpolation": profile.seconds(m * cls.OPS_PER_MIDPOINT),
            "colorization": profile.seconds(m * cls.OPS_PER_COLOR),
            "refinement": profile.seconds(
                n_steps * (step_knn + m * cls.OPS_PER_ENCODE),
                macs=n_steps * m * macs_per_point,
            ),
        }
        return stages

    # ------------------------------------------------------------------
    @classmethod
    def frame_seconds(
        cls, system: str, n_in: int, ratio: float, profile: DeviceProfile
    ) -> float:
        """Total per-frame SR latency for a named system."""
        fn = {
            "volut": cls.volut_frame,
            "vanilla": cls.vanilla_frame,
            "yuzu": cls.yuzu_frame,
            "gradpu": cls.gradpu_frame,
        }.get(system)
        if fn is None:
            raise ValueError(f"unknown system {system!r}")
        return sum(fn(n_in, ratio, profile).values())
