"""Client SR pipeline workloads: ``client-x2`` and ``client-x8``.

Timed loop per frame: ``decode_frame_compressed`` →
``VolutUpsampler(lut).upsample(cloud, ratio)`` — the paper's claim is
that this runs at a frame rate a phone can hold.

Every constant that shapes the work is pinned here, not imported from
``repro.experiments`` defaults, so a later change of an experiment
default cannot silently change the benchmark.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from scipy.spatial import cKDTree

from repro.metrics.chamfer import chamfer_distance
from repro.pointcloud.cloud import PointCloud
from repro.pointcloud.datasets import make_video
from repro.spatial.knn import get_backend
from repro.spatial.reuse import merge_and_prune
from repro.sr.colorize import colorize_by_parent
from repro.sr.encoding import PositionEncoder
from repro.sr.interpolation import interpolate
from repro.sr.lut import build_coarse_lut
from repro.sr.pipeline import VolutUpsampler
from repro.sr.training import build_refinement_dataset, train_refinement_net
from repro.streaming.encoder import decode_frame_compressed, encode_frame_compressed

from harness import Checks, Round, exact, repeat_for, stat
from spans import SpanRecorder

__all__ = ["ClientWorkload", "ClientSize", "X2", "X8", "X2_TOY", "X8_TOY"]

#: the paper's four evaluation videos (§7.1)
VIDEOS = ("longdress", "loot", "haggle", "lab")
FPS = 30
CODEC_DEPTH = 10
#: interpolation receptive field (Eq. 1) and kNN backend — the VoLUT path
K, DILATION, BACKEND = 4, 2, "octree"
#: offline phase (§7.1): GradPU-style net trained on Long Dress only,
#: distilled into one RF=4, b=128 LUT applied to all four videos
LUT_RF, LUT_BINS = 4, 128
LUT_TRAIN_POINTS, LUT_TRAIN_FRAMES = 3_000, 2
LUT_TRAIN_RATIOS, LUT_TRAIN_EPOCHS = (2.0, 4.0), 8
#: the LUT is an artifact of the program, not an input: its seed is
#: fixed so only the streamed content varies with ``--seed``
LUT_SEED = 0
#: ``VolutUpsampler``'s own default RNG seed, used by the composed path
UPSAMPLER_SEED = 0


@dataclass(frozen=True)
class ClientSize:
    ratio: float
    density: float
    points: int
    frames: int  # per video


# 4 videos x 2 (x2) / 3 (x8) frames keep a round under a second, so the
# reference kernel is interleaved finely; the per-frame regime (12,000
# points, kNN-bound at x2, refinement-bound at x8) is what matters.
X2 = ClientSize(ratio=2.0, density=0.5, points=12_000, frames=2)
X8 = ClientSize(ratio=8.0, density=0.125, points=12_000, frames=3)
X2_TOY = ClientSize(ratio=2.0, density=0.5, points=1_200, frames=1)
X8_TOY = ClientSize(ratio=8.0, density=0.125, points=1_200, frames=1)


def build_lut():
    """The offline phase, from public functions with pinned constants."""
    encoder = PositionEncoder(rf_size=LUT_RF, bins=LUT_BINS)
    video = make_video(
        "longdress", n_points=LUT_TRAIN_POINTS, n_frames=LUT_TRAIN_FRAMES
    )
    frames = [video.frame(i) for i in range(LUT_TRAIN_FRAMES)]
    dataset = build_refinement_dataset(
        frames, encoder, ratios=LUT_TRAIN_RATIOS, seed=LUT_SEED
    )
    net, _ = train_refinement_net(
        dataset, encoder, epochs=LUT_TRAIN_EPOCHS, seed=LUT_SEED
    )
    normalized = dataset.X.reshape(len(dataset), LUT_RF, 3)
    return build_coarse_lut(net, encoder, normalized)


@dataclass
class ClientInputs:
    lut: object
    truth: list[PointCloud]      # full-density ground-truth frames
    payloads: list[bytes]        # pre-encoded at the workload's density


def _digest_cloud(h, cloud: PointCloud) -> None:
    h.update(cloud.positions.tobytes())
    if cloud.has_colors:
        h.update(cloud.colors.tobytes())


class ClientWorkload:
    def __init__(self, name: str, size: ClientSize) -> None:
        self.name = name
        self.size = size

    # -- set-up ---------------------------------------------------------
    def setup(self, seed: int) -> ClientInputs:
        size = self.size
        truth, payloads = [], []
        for vi, name in enumerate(VIDEOS):
            video = make_video(
                name, n_points=size.points, n_frames=size.frames, seed=seed
            )
            for fi in range(size.frames):
                frame = video.frame(fi)
                truth.append(frame)
                payloads.append(
                    encode_frame_compressed(
                        frame, size.density, depth=CODEC_DEPTH,
                        seed=seed * 1000 + vi * 100 + fi,
                    )
                )
        return ClientInputs(lut=build_lut(), truth=truth, payloads=payloads)

    def warm_up(self, inputs: ClientInputs) -> None:
        up = VolutUpsampler(inputs.lut)
        up.upsample(decode_frame_compressed(inputs.payloads[0]), self.size.ratio)

    # -- one round ------------------------------------------------------
    def fresh(self, inputs: ClientInputs) -> VolutUpsampler:
        return VolutUpsampler(inputs.lut)

    def run(self, inputs: ClientInputs, up: VolutUpsampler, keep: bool) -> Round:
        ratio = self.size.ratio
        walls, n_in, n_out, finite = [], [], [], True
        decoded, outputs = [], []
        h = hashlib.blake2b(digest_size=16)
        for payload in inputs.payloads:
            t0 = perf_counter()
            cloud = decode_frame_compressed(payload)
            out = up.upsample(cloud, ratio).cloud
            walls.append(perf_counter() - t0)
            _digest_cloud(h, out)
            n_in.append(len(cloud))
            n_out.append(len(out))
            finite = finite and bool(np.isfinite(out.positions).all())
            if keep:
                decoded.append(cloud)
                outputs.append(out)
        return Round(
            op_walls=walls,
            digest=h.hexdigest(),
            detail={"n_in": n_in, "n_out": n_out, "finite": finite,
                    "decoded": decoded, "outputs": outputs},
        )

    # -- checks and end-to-end metrics ----------------------------------
    def _quality(self, inputs: ClientInputs, rounds: list[Round]) -> dict:
        """Chamfer distances of round 0's outputs to ground truth.

        ``sr`` per frame; ``spacing`` the ground truth's mean
        nearest-neighbour distance per frame (the natural length unit);
        ``lut`` / ``plain`` on the first frame of each video, with and
        without LUT refinement — refinement exists to move interpolated
        points toward the surface, so it must win.
        """
        d0 = rounds[0].detail
        if "quality" not in d0:
            first = range(0, len(inputs.truth), self.size.frames)
            plain = [
                VolutUpsampler(None, k=K, dilation=DILATION, backend=BACKEND)
                .upsample(d0["decoded"][i], self.size.ratio).cloud
                for i in first
            ]
            sr = [chamfer_distance(o, t) for o, t in zip(d0["outputs"], inputs.truth)]
            d0["quality"] = {
                "sr": sr,
                "spacing": [
                    float(cKDTree(t.positions).query(t.positions, k=2)[0][:, 1].mean())
                    for t in inputs.truth
                ],
                "lut": [sr[i] for i in first],
                "plain": [chamfer_distance(o, inputs.truth[i])
                          for o, i in zip(plain, first)],
            }
        return d0["quality"]

    def check(self, inputs: ClientInputs, rounds: list[Round], checks: Checks) -> None:
        ratio = self.size.ratio
        for r in rounds:
            checks.ops(len(r.op_walls))
            checks.require(r.digest == rounds[0].digest,
                           "SR output differs between rounds on equal inputs")
            checks.require(r.detail["finite"], "non-finite SR positions")
            for n, m in zip(r.detail["n_in"], r.detail["n_out"]):
                checks.require(
                    m == n + int(round((ratio - 1.0) * n)),
                    f"output count {m} != n + round((ratio-1)*n) for n={n}",
                )
        q = self._quality(inputs, rounds)
        checks.require(bool(np.isfinite(q["sr"]).all()), "non-finite Chamfer")
        checks.require(
            float(np.mean(q["lut"])) < float(np.mean(q["plain"])),
            "LUT refinement did not bring the output closer to ground truth",
        )
        checks.require(inputs.lut.stats.hit_rate > 0.0, "LUT never hit")

    def content_seconds(self, inputs: ClientInputs, rounds: list[Round]) -> float:
        return len(inputs.payloads) / FPS

    def end_to_end(self, inputs: ClientInputs, rounds: list[Round]) -> dict:
        n_frames = len(inputs.payloads)
        q = self._quality(inputs, rounds)
        total_bytes = sum(len(p) for p in inputs.payloads)
        return {
            "stream_mbps": exact(total_bytes * 8 * FPS / n_frames / 1e6, "Mbit/s"),
            # Chamfer(SR output, ground truth) in ground-truth point spacings
            "distortion": exact(
                float(np.mean(np.array(q["sr"]) / np.array(q["spacing"]))), "ratio"),
        }

    # -- traced rounds --------------------------------------------------
    def _traced_round(self, inputs: ClientInputs, rec: SpanRecorder) -> str:
        """The stages ``VolutUpsampler.upsample`` composes, one span each.

        Returns the digest of the composed outputs, which must equal an
        untraced round's.  The index-build / query split is measured by a
        probe *outside* the frame span (``interpolate`` owns its index),
        so the frame span stays comparable with an untraced frame.
        """
        ratio = self.size.ratio
        lut = inputs.lut
        encoder = lut.encoder
        rng = np.random.default_rng(UPSAMPLER_SEED)
        h = hashlib.blake2b(digest_size=16)
        for gi, payload in enumerate(inputs.payloads):
            with rec.span("client.frame", group=gi):
                with rec.span("compression.decode"):
                    cloud = decode_frame_compressed(payload)
                with rec.span("sr.interpolate") as si:
                    interp = interpolate(
                        cloud, ratio, k=K, dilation=DILATION,
                        backend=BACKEND, seed=rng,
                    )
                rec.add_child("spatial.knn", si, interp.knn_seconds)
                with rec.span("sr.colorize"):
                    colored = colorize_by_parent(cloud, interp)
                with rec.span("sr.refine"):
                    new_pos = interp.new_positions
                    with rec.span("sr.gather"):
                        with rec.span("spatial.reuse"):
                            idx, _ = merge_and_prune(
                                new_pos, cloud.positions, interp.parent_a,
                                interp.parent_b, interp.neighbor_idx,
                                encoder.rf_size - 1,
                            )
                        neighbors = cloud.positions[idx]
                    with rec.span("sr.encode"):
                        enc = encoder.encode(new_pos, neighbors)
                    with rec.span("sr.lut_lookup"):
                        offsets = lut.lookup_normalized(enc.normalized)
                    pos = colored.positions.copy()
                    pos[interp.n_source:] = new_pos + offsets * enc.radius[:, None]
                    out = PointCloud(pos, colored.colors)
            _digest_cloud(h, out)
            with rec.span("probe", group=gi):
                with rec.span("spatial.index_build"):
                    index = get_backend(BACKEND, cloud.positions)
                with rec.span("spatial.knn_query"):
                    index.query(cloud.positions, K * DILATION + 1)
        return h.hexdigest()

    def traced(self, inputs: ClientInputs, rounds: list[Round], seconds: float,
               checks: Checks) -> tuple[dict, SpanRecorder, dict]:
        n_frames = len(inputs.payloads)
        def once() -> SpanRecorder:
            rec = SpanRecorder()
            digest = self._traced_round(inputs, rec)
            checks.ops(n_frames)
            checks.require(digest == rounds[0].digest,
                           "composed stages differ from upsample() output")
            return rec

        recs = repeat_for(seconds, once)

        def per_frame_ms(name: str, self_time: bool = False) -> dict:
            return stat(
                [1e3 * r.totals(self_time).get(name, 0.0) / n_frames for r in recs],
                "ms",
            )

        frame_ms = [1e3 * w for r in rounds for w in r.op_walls]
        untraced_round = float(np.median([r.wall for r in rounds]))
        d0 = rounds[0].detail
        n_src = sum(d0["n_in"])
        n_new = sum(d0["n_out"]) - n_src
        total_bytes = sum(len(p) for p in inputs.payloads)
        sr = self._quality(inputs, rounds)["sr"]
        metrics = {
            "client.frames_per_s": stat([n_frames / r.wall for r in rounds], "1/s"),
            "client.frame_ms_p50": exact(np.percentile(frame_ms, 50), "ms"),
            # diagnostic: tails on a shared box do not repeat within a tenth
            "client.frame_ms_p95": exact(np.percentile(frame_ms, 95), "ms"),
            "client.traced_frame_ms": per_frame_ms("client.frame"),
            "client.traced_overhead_x": stat(
                [r.totals()["client.frame"] / untraced_round for r in recs], "x"),
            "compression.decode_ms": per_frame_ms("compression.decode"),
            "compression.bytes_per_point": exact(total_bytes / n_src, "B"),
            "compression.bytes_per_frame": exact(total_bytes / n_frames, "B"),
            "spatial.knn_ms": per_frame_ms("spatial.knn"),
            "spatial.index_build_ms": per_frame_ms("spatial.index_build"),
            "spatial.knn_query_ms": per_frame_ms("spatial.knn_query"),
            "spatial.knn_points": exact(n_src, "count"),
            "spatial.reuse_ms": per_frame_ms("spatial.reuse"),
            "sr.interpolate_ms": per_frame_ms("sr.interpolate"),
            "sr.interpolate_self_ms": per_frame_ms("sr.interpolate", self_time=True),
            "sr.colorize_ms": per_frame_ms("sr.colorize"),
            "sr.gather_ms": per_frame_ms("sr.gather"),
            "sr.encode_ms": per_frame_ms("sr.encode"),
            "sr.lut_lookup_ms": per_frame_ms("sr.lut_lookup"),
            "sr.refine_ms": per_frame_ms("sr.refine"),
            "sr.new_points": exact(n_new, "count"),
            "sr.lut_hit_rate": exact(inputs.lut.stats.hit_rate, "ratio"),
            "sr.lut_memory_mb": exact(inputs.lut.memory_bytes() / 2**20, "MiB"),
            "sr.chamfer_e3": exact(1e3 * float(np.mean(sr)), "1e-3"),
        }
        return metrics, recs[-1], {}
