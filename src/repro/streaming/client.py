"""Full-fidelity streaming client (paper §3's receive pipeline as a class).

:class:`StreamingClient` drives a real session against a
:class:`repro.streaming.server.VideoServer` over a trace-driven link: it
asks its ABR controller for a {density, SR-ratio} decision, downloads and
decodes actual chunk payloads, super-resolves every frame with the
two-stage pipeline, and accounts QoE — the programmatic form of
``examples/end_to_end_client.py``, reusable by tests and applications.

This is the geometry-materializing counterpart of
:func:`repro.streaming.simulator.simulate_session` (which scales to
paper-length sessions by staying analytic, as a fleet of one).  Both time
downloads on :class:`~repro.net.topology.PathScheduler`; this client runs
its own decide → download → super-resolve loop with measured SR time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..metrics.qoe import ChunkRecord, QoEWeights, session_qoe
from ..net.estimator import HarmonicMeanEstimator
from ..net.link import Link
from ..net.traces import NetworkTrace
from ..pointcloud.cloud import PointCloud
from ..sr.pipeline import VolutUpsampler
from .abr import AbrContext, AbrController, SRQualityModel
from .buffer import PlaybackBuffer
from .server import VideoServer

__all__ = ["PlayedChunk", "ClientSession", "StreamingClient"]


@dataclass
class PlayedChunk:
    """One chunk's outcome, with the reconstructed frames."""

    index: int
    density: float
    sr_ratio: float
    bytes_downloaded: int
    download_seconds: float
    sr_seconds: float
    stall_seconds: float
    frames: list[PointCloud] = field(default_factory=list)


@dataclass
class ClientSession:
    """A finished playback session."""

    chunks: list[PlayedChunk]
    qoe: float
    total_bytes: int
    stall_seconds: float

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)


class StreamingClient:
    """Plays a served video end to end with real data."""

    def __init__(
        self,
        server: VideoServer,
        trace: NetworkTrace,
        controller: AbrController,
        upsampler: VolutUpsampler,
        quality_model: SRQualityModel | None = None,
        startup_buffer: float = 0.5,
        max_buffer: float = 10.0,
        keep_frames: bool = False,
        qoe_weights: QoEWeights | None = None,
    ):
        self.server = server
        self.link = Link(trace)
        self.controller = controller
        self.upsampler = upsampler
        self.quality_model = quality_model or SRQualityModel()
        self.keep_frames = keep_frames
        self.qoe_weights = qoe_weights
        self.startup_buffer = startup_buffer
        self.max_buffer = max_buffer

    def play(self, max_chunks: int | None = None) -> ClientSession:
        """Stream the whole video (or the first ``max_chunks`` chunks)."""
        manifest = self.server.manifest
        n = manifest.n_chunks if max_chunks is None else min(
            max_chunks, manifest.n_chunks
        )
        est = HarmonicMeanEstimator()
        # Per session, like the estimator: a second play() starts unbuffered.
        buffer = PlaybackBuffer(self.startup_buffer, self.max_buffer)
        specs = [self.server.chunk_spec(i) for i in range(n)]
        played: list[PlayedChunk] = []
        records: list[ChunkRecord] = []
        t = 0.0
        prev_q: float | None = None
        full = manifest.points_per_frame

        for i in range(n):
            ctx = AbrContext(
                throughput_bps=est.estimate(),
                buffer_level=buffer.level,
                prev_quality=prev_q,
                next_chunks=specs[i : i + 5],
            )
            decision = self.controller.decide(ctx)
            density = min(
                max(decision.density, manifest.min_density),
                manifest.max_density,
            )

            blob = self.server.get_chunk(i, density)
            dl = self.link.download_time(len(blob), t)
            t += dl
            est.observe(len(blob) * 8.0 / dl if dl > 0 else est.estimate())

            t0 = time.perf_counter()
            frames = VideoServer.decode_chunk_payload(
                blob, compressed=self.server.compressed
            )
            out_frames = []
            for f in frames:
                ratio = min(
                    decision.sr_ratio, max(1.0, full / max(len(f), 1))
                )
                out_frames.append(self.upsampler.upsample(f, ratio).cloud)
            sr_seconds = time.perf_counter() - t0

            stall = buffer.drain(dl + sr_seconds)
            buffer.add(specs[i].duration)

            q = self.quality_model.quality(density, decision.sr_ratio)
            records.append(
                ChunkRecord(quality=q, stall=stall, bytes_downloaded=len(blob))
            )
            played.append(
                PlayedChunk(
                    index=i,
                    density=density,
                    sr_ratio=decision.sr_ratio,
                    bytes_downloaded=len(blob),
                    download_seconds=dl,
                    sr_seconds=sr_seconds,
                    stall_seconds=stall,
                    frames=out_frames if self.keep_frames else [],
                )
            )
            prev_q = q

        scores = session_qoe(records, self.qoe_weights)
        return ClientSession(
            chunks=played,
            qoe=scores["qoe"],
            total_bytes=int(scores["bytes"]),
            stall_seconds=scores["stall_seconds"],
        )
