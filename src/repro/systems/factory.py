"""System configurations for end-to-end streaming evaluation."""

from __future__ import annotations

from dataclasses import dataclass

from ..devices import DESKTOP_GPU, DeviceProfile
from ..metrics.qoe import QoEModel, QoEWeights
from ..net.traces import NetworkTrace
from ..streaming.abr import (
    AbrController,
    ContinuousMPC,
    DiscreteMPC,
    SRQualityModel,
)
from ..streaming.chunks import VideoSpec
from ..streaming.latency import DeviceSRLatency, SRLatency, ZERO_LATENCY
from ..streaming.simulator import SessionConfig, SessionResult, simulate_session

__all__ = [
    "SystemSetup",
    "volut_system",
    "volut_discrete_system",
    "yuzu_sr_system",
    "vivo_system",
    "raw_system",
    "run_system",
]

#: Serialized size of one YuZu SR model.  Our stand-in MLP is ~0.6 MB per
#: ratio; YuZu's sparse-conv models are tens of MB — we charge 12 MB per
#: ratio so the data-usage accounting has the paper's proportions.
YUZU_MODEL_BYTES_PER_RATIO = 12 * 1024 * 1024
YUZU_N_MODELS = 5  # its discrete ratio options


@dataclass
class SystemSetup:
    """A runnable streaming-system configuration."""

    name: str
    controller: AbrController
    sr_latency: SRLatency
    quality_model: SRQualityModel
    config: SessionConfig
    qoe_weights: QoEWeights


def _default_weights() -> QoEWeights:
    return QoEWeights()


def volut_system(
    profile: DeviceProfile = DESKTOP_GPU,
    min_density: float = 1.0 / 8.0,
    chunk_seconds: float = 1.0,
    weights: QoEWeights | None = None,
) -> SystemSetup:
    """H1: VoLUT with continuous ABR and LUT-based SR."""
    w = weights or _default_weights()
    qm = SRQualityModel(max_ratio=1.0 / min_density)
    lat = DeviceSRLatency("volut", profile)
    ctrl = ContinuousMPC(qm, QoEModel(w), lat, min_density=min_density)
    return SystemSetup(
        name="volut",
        controller=ctrl,
        sr_latency=lat,
        quality_model=qm,
        config=SessionConfig(chunk_seconds=chunk_seconds),
        qoe_weights=w,
    )


def volut_discrete_system(
    profile: DeviceProfile = DESKTOP_GPU,
    chunk_seconds: float = 1.0,
    weights: QoEWeights | None = None,
) -> SystemSetup:
    """H2: VoLUT's SR speed but discrete quality levels (ratios ≤ 4)."""
    w = weights or _default_weights()
    qm = SRQualityModel(max_ratio=4.0)
    lat = DeviceSRLatency("volut", profile)
    ctrl = DiscreteMPC(qm, QoEModel(w), lat)
    return SystemSetup(
        name="volut-discrete",
        controller=ctrl,
        sr_latency=lat,
        quality_model=qm,
        config=SessionConfig(chunk_seconds=chunk_seconds),
        qoe_weights=w,
    )


def yuzu_sr_system(
    profile: DeviceProfile = DESKTOP_GPU,
    chunk_seconds: float = 1.0,
    weights: QoEWeights | None = None,
) -> SystemSetup:
    """H3 / YuZu-SR: discrete ABR + neural-SR latency + model downloads.

    Caching and delta coding are not modeled — the paper disables them for
    fairness.
    """
    w = weights or _default_weights()
    qm = SRQualityModel(max_ratio=4.0)
    lat = DeviceSRLatency("yuzu", profile)
    ctrl = DiscreteMPC(qm, QoEModel(w), lat)
    return SystemSetup(
        name="yuzu-sr",
        controller=ctrl,
        sr_latency=lat,
        quality_model=qm,
        config=SessionConfig(
            chunk_seconds=chunk_seconds,
            startup_bytes=YUZU_MODEL_BYTES_PER_RATIO * YUZU_N_MODELS,
        ),
        qoe_weights=w,
    )


def vivo_system(
    chunk_seconds: float = 1.0,
    visible_fraction: float = 0.55,
    prediction_accuracy: float = 0.75,
    weights: QoEWeights | None = None,
) -> SystemSetup:
    """ViVo: visibility-aware streaming, no SR.

    The client fetches full-density content but only for the predicted
    viewport (``visible_fraction`` of the bytes).  Mispredictions under
    motion surface as missing content in the actual viewport —
    ``prediction_accuracy`` multiplies delivered quality (paper §1: quality
    degrades 'under rapid viewer movement').

    Both defaults are typed stand-ins.  Frustum-and-z-buffer visibility
    measured on the synthetic longdress (3,000 points, orbit trace, 60
    frames, lookahead 30) gave, for seeds 0 / 1:

    ======================  =============  =======
    parameter               measured       default
    ======================  =============  =======
    visible fraction        0.338 / 0.357  0.55
    prediction accuracy     0.757 / 0.764  0.75
    ======================  =============  =======

    The measurement code was removed after commit 38d8208; to re-run it,
    check that commit out and run ``PYTHONPATH=src python -c "from
    repro.systems import measure_vivo_parameters as m; print(m(seed=0),
    m(seed=1))"``.
    """
    w = weights or _default_weights()
    qm = SRQualityModel(max_ratio=1.0)  # no SR: quality == density fetched
    # ViVo adapts density with its own optimizer (no SR to account for);
    # the planner prices downloads at the culled byte count.
    ctrl = ContinuousMPC(
        qm, QoEModel(w), ZERO_LATENCY, min_density=0.2,
        fetch_fraction=visible_fraction,
    )
    return SystemSetup(
        name="vivo",
        controller=ctrl,
        sr_latency=ZERO_LATENCY,
        quality_model=qm,
        config=SessionConfig(
            chunk_seconds=chunk_seconds,
            fetch_fraction=visible_fraction,
            quality_factor=prediction_accuracy,
        ),
        qoe_weights=w,
    )


def raw_system(
    chunk_seconds: float = 1.0, weights: QoEWeights | None = None
) -> SystemSetup:
    """Raw full-density streaming (the bandwidth-reduction reference)."""
    w = weights or _default_weights()
    qm = SRQualityModel(max_ratio=1.0)

    class _Full(AbrController):
        def decide(self, ctx):
            from ..streaming.abr import Decision

            return Decision(density=1.0, sr_ratio=1.0)

    return SystemSetup(
        name="raw",
        controller=_Full(),
        sr_latency=ZERO_LATENCY,
        quality_model=qm,
        config=SessionConfig(chunk_seconds=chunk_seconds),
        qoe_weights=w,
    )


def run_system(
    setup: SystemSetup, spec: VideoSpec, trace: NetworkTrace
) -> SessionResult:
    """Simulate a session for a configured system."""
    return simulate_session(
        spec,
        trace,
        setup.controller,
        sr_latency=setup.sr_latency,
        quality_model=setup.quality_model,
        config=setup.config,
        qoe_weights=setup.qoe_weights,
    )
