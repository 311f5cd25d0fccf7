"""Event-driven streaming-session simulator.

Replays a video spec over a bandwidth trace with a given ABR controller and
client SR latency model, producing the per-chunk records the QoE metrics
consume (paper §7.4/§7.5 protocol).

The client is modeled as the two-stage pipeline the paper implements
("optimized ... by leveraging multi-threading and system pipelining", §6):

* the **network stage** downloads chunks back to back (the next request is
  issued as soon as the previous download completes, subject to buffer
  headroom);
* the **compute stage** super-resolves each downloaded chunk; SR of chunk
  *i* overlaps the download of chunk *i+1*.  A chunk enters the playback
  buffer when its SR finishes.

Consequently a slow SR stage throttles the pipeline only when its
throughput drops below line rate — exactly the regime where the paper's H3
ablation shows YuZu-SR losing QoE — rather than adding serially to every
chunk.

Sessions are fully deterministic given (spec, trace, controller).

The per-session logic lives in :class:`SessionMachine`, a resumable state
machine that suspends at every network transfer (yielding a
:class:`DownloadRequest`) *and* at every ABR decision (yielding a
:class:`DecisionRequest`), and is advanced by a driver that owns the link.
Decision suspension is what lets the fleet scheduler gather every session
waiting on a decision at the same virtual instant and resolve them in one
``decide_batch`` call instead of N ``decide`` calls.
There is one driver, :func:`repro.streaming.fleet.simulate_fleet`, which
runs machines against shared links in virtual time;
:func:`simulate_session` is a fleet of one viewer on a private
one-edge CDN.

Sessions may churn: an :class:`AbandonPolicy` makes a viewer abandon the
session once rebuffering exceeds their patience, ending the machine early
with ``SessionResult.abandoned`` set — the behaviour trace-driven
population studies need.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass, field
from typing import NamedTuple

from ..metrics.qoe import ChunkRecord, QoEWeights, session_qoe
from ..net.estimator import HarmonicMeanEstimator
from ..net.traces import NetworkTrace
from .abr import AbrContext, AbrController, Decision, SRQualityModel
from .buffer import PlaybackBuffer
from .cdn import single_link_cdn
from .chunks import VideoSpec
from .latency import SRLatency, ZERO_LATENCY

__all__ = [
    "SessionConfig",
    "SessionResult",
    "DownloadRequest",
    "DecisionRequest",
    "AbandonPolicy",
    "FleetSession",
    "SessionMachine",
    "simulate_session",
]

#: seconds of content buffered before playback starts
STARTUP_BUFFER = 1.0
#: playback-buffer capacity in seconds: the next request waits for headroom
MAX_BUFFER = 10.0
#: the throughput estimate is the harmonic mean of this many last samples,
#: seeded with the initial estimate
ESTIMATOR_WINDOW = 5
INITIAL_THROUGHPUT_BPS = 20e6


@dataclass
class SessionConfig:
    """Streaming-session knobs."""

    chunk_seconds: float = 1.0
    #: bytes downloaded before playback (SR models, manifests) — YuZu's
    #: model downloads are charged here (paper §7.4 data-usage definition)
    startup_bytes: int = 0
    #: scales the byte size of every chunk (ViVo's visibility culling)
    fetch_fraction: float = 1.0
    #: multiplies the delivered quality (ViVo's viewport-prediction misses)
    quality_factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.chunk_seconds < math.inf:  # chained: NaN fails it
            raise ValueError(f"chunk_seconds must be finite and > 0, got {self.chunk_seconds!r}")
        if not isinstance(self.startup_bytes, int) or self.startup_bytes < 0:
            raise ValueError(
                "startup_bytes must be a non-negative integer, got "
                f"{self.startup_bytes!r}"
            )
        if not 0.0 < self.fetch_fraction <= 1.0:
            raise ValueError("fetch_fraction must be in (0, 1]")
        if not 0.0 < self.quality_factor <= 1.0:
            raise ValueError("quality_factor must be in (0, 1]")


@dataclass
class SessionResult:
    """Everything the evaluation section reports about one session."""

    records: list[ChunkRecord]
    #: virtual instant each record's chunk finished downloading, parallel
    #: to ``records`` (what :func:`~repro.obs.damage.fault_damage` folds)
    landed: list[float]
    qoe: float
    total_bytes: int
    stall_seconds: float
    startup_delay: float
    mean_quality: float
    decisions: list[float] = field(default_factory=list)
    #: content seconds actually fetched and played (sum of chunk durations)
    watched_seconds: float = 0.0
    #: True if the viewer churned out early (see :class:`AbandonPolicy`)
    abandoned: bool = False

    @property
    def n_chunks(self) -> int:
        return len(self.records)


class DownloadRequest(NamedTuple):
    """A suspended session asking its driver for one network transfer.

    ``start_time`` is the virtual time the request goes out; the driver
    answers with the transfer's total elapsed seconds (including RTT and
    any bandwidth contention it models).

    Content-chunk requests carry what they are fetching (``video``,
    ``chunk_index``, ``key_density``) so a CDN driver can key edge caches
    and the origin encode queue; a request with ``chunk_index=None``
    (the startup payload: manifest, SR models) is not a cacheable chunk
    and always travels the full origin path.  ``key_density`` is the
    fetch density rounded by the one rule that also keys the SR-result
    cache (:meth:`SessionMachine._run`), so planner float jitter splits
    neither cache.
    """

    start_time: float
    nbytes: int
    video: str | None = None
    chunk_index: int | None = None
    key_density: float | None = None


class DecisionRequest(NamedTuple):
    """A suspended session asking its driver for an ABR decision.

    The driver answers with a :class:`~repro.streaming.abr.Decision` for
    ``ctx`` — usually ``machine.controller.decide(ctx)``, but a fleet
    driver may park several of these and resolve them in one
    ``decide_batch`` call.  Decisions take no virtual time, so
    deferring them within an event step cannot change the simulation.
    """

    ctx: AbrContext


@dataclass(frozen=True)
class AbandonPolicy:
    """Viewer patience: when does a session abandon on rebuffering?

    The viewer churns out as soon as cumulative rebuffering exceeds
    ``max_total_stall`` seconds.  Checked after each chunk is played out,
    so an abandoning session still accounts for the chunk that broke its
    patience.
    """

    max_total_stall: float = 10.0

    def __post_init__(self) -> None:
        # ``not x > 0`` so NaN fails it: ``total > nan`` is always false,
        # so a NaN patience would never abandon (``inf`` is legal: never)
        if not self.max_total_stall > 0:
            raise ValueError(
                "AbandonPolicy.max_total_stall must be positive, got "
                f"{self.max_total_stall!r}"
            )

    def should_abandon(self, total_stall: float) -> bool:
        return total_stall > self.max_total_stall


@dataclass
class FleetSession:
    """One client in a fleet: content, controller, join time, patience.

    Controllers may be shared across sessions (the ABR classes are
    stateless between ``decide`` calls) or instantiated per session.
    Every session's downloads take an equal share of each link they
    cross; there is no per-session priority.
    """

    spec: VideoSpec
    controller: AbrController
    sr_latency: SRLatency = ZERO_LATENCY
    quality_model: SRQualityModel | None = None
    config: SessionConfig | None = None
    qoe_weights: QoEWeights | None = None
    join_time: float = 0.0
    #: viewer stall patience; None = never abandons
    churn: AbandonPolicy | None = None

    def __post_init__(self) -> None:
        # chained so NaN fails them (every comparison with NaN is false)
        if not 0 <= self.join_time < math.inf:
            raise ValueError("join_time must be finite and non-negative")


class SessionMachine:
    """One streaming session as a resumable state machine.

    The session logic (buffer headroom, ABR decisions, SR pipelining,
    stall accounting) runs inside a generator that suspends at every
    network transfer (yielding a :class:`DownloadRequest`, answered with
    elapsed seconds) and at every ABR decision (yielding a
    :class:`DecisionRequest`, answered with a
    :class:`~repro.streaming.abr.Decision`).  The fleet driver
    (:func:`repro.streaming.fleet.simulate_fleet`, of which
    :func:`simulate_session` is the one-viewer case) resolves each request
    and resumes the machine via :meth:`advance`.

    ``session`` states the viewer once — content, controller, SR model,
    join time (which staggers the session into a shared timeline) and
    churn patience (which ends it early when stalls exhaust it);
    ``sr_cache`` optionally shares SR results across co-watching sessions
    (see :class:`repro.streaming.fleet.SRResultCache`).
    """

    def __init__(self, session: FleetSession, *, sr_cache=None):
        self.spec = session.spec
        self.controller = session.controller
        self.sr_latency = session.sr_latency
        self.quality_model = session.quality_model or SRQualityModel()
        self.config = session.config or SessionConfig()
        self.qoe_weights = session.qoe_weights
        self.start_time = float(session.join_time)
        self.sr_cache = sr_cache
        self.churn = session.churn
        self.result: SessionResult | None = None
        # Live telemetry the fleet control plane samples mid-run (pure
        # counters — updating them cannot perturb the session arithmetic).
        self.live_chunks = 0
        self.live_quality_sum = 0.0
        self.live_stall = 0.0
        #: playback-buffer level after the last chunk entered it (the
        #: buffer itself is generator-local; the metrics sampler reads
        #: this mirror for the fleet's buffer-occupancy gauge)
        self.live_buffer_level = 0.0
        self._gen = self._run()
        try:
            self.pending: DownloadRequest | DecisionRequest | None = next(
                self._gen
            )
        except StopIteration:  # pragma: no cover - specs always have chunks
            self.pending = None

    @property
    def finished(self) -> bool:
        return self.result is not None

    def advance(
        self, answer: float | Decision
    ) -> DownloadRequest | DecisionRequest | None:
        """Resolve the pending request; returns the next one (or None).

        A pending :class:`DownloadRequest` is answered with the transfer's
        elapsed seconds; a pending :class:`DecisionRequest` with a
        :class:`~repro.streaming.abr.Decision`.
        """
        if self.pending is None:
            raise RuntimeError("session already finished")
        expects_decision = isinstance(self.pending, DecisionRequest)
        if expects_decision != isinstance(answer, Decision):
            raise TypeError(
                f"pending {type(self.pending).__name__} answered with "
                f"{type(answer).__name__}"
            )
        try:
            self.pending = self._gen.send(answer)
        except StopIteration:
            self.pending = None
        return self.pending

    # ------------------------------------------------------------------
    def _run(
        self,
    ) -> Generator[DownloadRequest | DecisionRequest, float | Decision, None]:
        cfg = self.config
        qm = self.quality_model
        est = HarmonicMeanEstimator(
            window=ESTIMATOR_WINDOW, initial_bps=INITIAL_THROUGHPUT_BPS
        )
        buf = PlaybackBuffer(startup_threshold=STARTUP_BUFFER, max_level=MAX_BUFFER)
        chunks = self.spec.chunks(cfg.chunk_seconds)
        records: list[ChunkRecord] = []
        landed: list[float] = []
        decisions: list[float] = []

        t_net = self.start_time    # network stage: time the link frees up
        cpu_free = self.start_time  # compute stage: time the SR worker frees up
        buffer_clock = self.start_time  # wall time the buffer is drained to

        # Startup payload (manifest + any SR models) before the first chunk.
        if cfg.startup_bytes > 0:
            t_net += yield DownloadRequest(t_net, cfg.startup_bytes)

        def advance_buffer(to_time: float) -> float:
            """Drain the buffer up to ``to_time``; returns stall incurred."""
            nonlocal buffer_clock
            if to_time <= buffer_clock:
                return 0.0
            stall = buf.drain(to_time - buffer_clock)
            buffer_clock = to_time
            return stall

        # Per-decision values, once per distinct decision and chunk length
        # of this session: the chunk quality, the cache keys' rounded
        # density and ratio (the one rounding rule of the edge-cache,
        # encode-queue and SR-cache keys), and the chunk's fetched bytes
        # and SR seconds.  Every chunk of the spec shares its points per
        # frame and bytes per point, and the latency model is a pure
        # function, so the frame count completes the key.  The SR seconds
        # are checked once, when their entry is filled.
        per_decision: dict[
            tuple[float, float, int], tuple[float, float, float, int, float]
        ] = {}
        prev_quality: float | None = None
        watched_seconds = 0.0
        total_stall = 0.0
        abandoned = False
        for i, chunk in enumerate(chunks):
            # Respect buffer headroom: delay the request until the chunk fits.
            advance_buffer(t_net)
            overflow = (buf.level + chunk.duration) - MAX_BUFFER
            if overflow > 0 and buf.playing:
                # The buffer drains in real time, so waiting `overflow` seconds
                # frees exactly that much headroom (no stall risk: buffer full).
                t_net += overflow
                advance_buffer(t_net)

            # every remaining chunk: each controller plans over its own horizon
            ctx = AbrContext(
                throughput_bps=est.estimate(),
                buffer_level=buf.level,
                prev_quality=prev_quality,
                next_chunks=chunks[i:],
            )
            decision = yield DecisionRequest(ctx)  # advance() checked its type
            density, sr_ratio = decision.density, decision.sr_ratio
            decisions.append(density)
            n_frames = chunk.n_frames
            per = per_decision.get((density, sr_ratio, n_frames))
            if per is None:
                sr_time = n_frames * self.sr_latency(chunk.points_at_density(density), sr_ratio)
                if not 0.0 <= sr_time < math.inf:  # chained: NaN fails it
                    raise ValueError(
                        f"SR seconds of a chunk must be finite and non-negative, "
                        f"got {sr_time!r} for chunk {chunk.index} at density {density:.6g}"
                    )
                per = per_decision[density, sr_ratio, n_frames] = (
                    qm.quality(density, sr_ratio) * cfg.quality_factor,
                    round(density, 3),
                    round(sr_ratio, 3),
                    int(chunk.bytes_at_density(density) * cfg.fetch_fraction),
                    sr_time,
                )
            q, key_density, key_ratio, nbytes, sr_time = per

            dl = yield DownloadRequest(
                t_net, nbytes, self.spec.name, chunk.index, key_density
            )
            dl_finish = t_net + dl
            t_net = dl_finish  # next request goes out immediately after

            sr_start = max(dl_finish, cpu_free)
            if self.sr_cache is not None and sr_time > 0.0:
                key = (self.spec.name, chunk.index, key_density, key_ratio)
                sr_time = self.sr_cache.acquire(key, sr_start, sr_time)
            ready = sr_start + sr_time
            cpu_free = ready

            # The chunk becomes playable at `ready`: drain (possibly stalling)
            # up to that instant, then enqueue — before the next decision, so
            # a chunk still in SR when the next request goes out is already
            # in the level that decision reads.
            stall = advance_buffer(ready)
            buf.add(chunk.duration)

            # A zero-byte chunk (density × fetch_fraction rounding to
            # nothing) yields no throughput sample — dl is pure RTT.
            est.observe(nbytes * 8.0 / dl if nbytes > 0 and dl > 0 else est.estimate())
            records.append(ChunkRecord(quality=q, stall=stall, bytes_downloaded=nbytes))
            landed.append(dl_finish)
            self.live_chunks += 1
            self.live_quality_sum += q
            self.live_stall += stall
            self.live_buffer_level = buf.level
            prev_quality = q
            watched_seconds += chunk.duration
            total_stall += stall
            if self.churn is not None and self.churn.should_abandon(total_stall):
                abandoned = True
                break

        scores = session_qoe(records, self.qoe_weights)
        self.result = SessionResult(
            records=records,
            landed=landed,
            qoe=scores["qoe"],
            total_bytes=int(scores["bytes"]) + cfg.startup_bytes,
            stall_seconds=scores["stall_seconds"],
            startup_delay=buf.startup_delay,
            mean_quality=scores["mean_quality"],
            decisions=decisions,
            watched_seconds=watched_seconds,
            abandoned=abandoned,
        )


def simulate_session(
    spec: VideoSpec,
    trace: NetworkTrace,
    controller: AbrController,
    sr_latency: SRLatency = ZERO_LATENCY,
    quality_model: SRQualityModel | None = None,
    config: SessionConfig | None = None,
    qoe_weights: QoEWeights | None = None,
) -> SessionResult:
    """Simulate one playback session end to end: a fleet of one viewer,
    alone from t = 0 on :func:`~repro.streaming.cdn.single_link_cdn`
    over ``trace``."""
    from .fleet import simulate_fleet  # fleet imports this module

    session = FleetSession(
        spec, controller, sr_latency, quality_model, config, qoe_weights
    )
    return simulate_fleet(
        [session], topology=single_link_cdn(trace)
    ).sessions[0]
