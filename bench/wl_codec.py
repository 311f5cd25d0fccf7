"""``codec-roundtrip``: the only workload where ``compression`` does most
of the work (it is a few percent of a client frame).

Phase A encodes every frame at every density with
``encode_frame_compressed`` (``random_downsample_count`` +
``octree_encode``) — each request a cold miss, as under continuous ABR,
where densities are non-round and rarely repeat.  Phase B decodes the
same payloads.  The codec is used both ways, so a decode win that costs
encode time (or bytes) shows here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from scipy.spatial import cKDTree

from repro.compression import octree_decode, octree_encode
from repro.pointcloud.cloud import PointCloud
from repro.pointcloud.datasets import make_video
from repro.pointcloud.sampling import random_downsample_count
from repro.streaming.encoder import decode_frame_compressed, encode_frame_compressed

from harness import Checks, Round, exact, repeat_for, stat
from spans import SpanRecorder

__all__ = ["CodecWorkload", "CodecSize", "CODEC", "CODEC_TOY"]

VIDEOS = ("longdress", "loot", "haggle", "lab")
FPS = 30
CODEC_DEPTH = 10
#: non-round densities in [0.125, 1.0], as a continuous ABR requests them
DENSITIES = (0.125, 0.19, 0.27, 0.38, 0.51, 0.66, 0.83, 1.0)


@dataclass(frozen=True)
class CodecSize:
    points: int
    frames: int  # per video


# 4 videos x 1 frame x 8 densities = 32 encodes + 32 decodes a round.
CODEC = CodecSize(points=25_000, frames=1)
CODEC_TOY = CodecSize(points=2_500, frames=1)


@dataclass
class CodecInputs:
    #: (frame, density, downsample seed) per encode request
    requests: list[tuple[PointCloud, float, int]]


def _n_keep(frame: PointCloud, density: float) -> int:
    return max(1, int(round(len(frame) * density)))


class CodecWorkload:
    name = "codec-roundtrip"

    def __init__(self, size: CodecSize) -> None:
        self.size = size

    def setup(self, seed: int) -> CodecInputs:
        size = self.size
        requests = []
        for vi, name in enumerate(VIDEOS):
            video = make_video(
                name, n_points=size.points, n_frames=size.frames, seed=seed
            )
            for fi in range(size.frames):
                frame = video.frame(fi)
                for di, density in enumerate(DENSITIES):
                    requests.append(
                        (frame, density, seed * 10_000 + vi * 1000 + fi * 100 + di)
                    )
        return CodecInputs(requests=requests)

    def warm_up(self, inputs: CodecInputs) -> None:
        frame, density, s = inputs.requests[0]
        decode_frame_compressed(
            encode_frame_compressed(frame, density, depth=CODEC_DEPTH, seed=s)
        )

    def fresh(self, inputs: CodecInputs) -> None:
        return None  # the codec holds no state between calls

    def run(self, inputs: CodecInputs, state: None, keep: bool) -> Round:
        enc_walls, dec_walls, payloads, n_decoded = [], [], [], []
        decoded = []
        h = hashlib.blake2b(digest_size=16)
        for frame, density, s in inputs.requests:
            t0 = perf_counter()
            payload = encode_frame_compressed(
                frame, density, depth=CODEC_DEPTH, seed=s
            )
            enc_walls.append(perf_counter() - t0)
            payloads.append(payload)
            h.update(payload)
        for payload in payloads:
            t0 = perf_counter()
            cloud = decode_frame_compressed(payload)
            dec_walls.append(perf_counter() - t0)
            n_decoded.append(len(cloud))
            if keep:
                decoded.append(cloud)
        return Round(
            op_walls=enc_walls + dec_walls,
            digest=h.hexdigest(),
            detail={"encode_wall": sum(enc_walls), "decode_wall": sum(dec_walls),
                    "bytes": [len(p) for p in payloads],
                    "payloads": payloads if keep else [],
                    "n_decoded": n_decoded, "decoded": decoded},
        )

    # ------------------------------------------------------------------
    def _errors(self, inputs: CodecInputs, rounds: list[Round]):
        """Per request: (max, mean) distance from a decoded point to the
        nearest point of the source frame, in voxel diagonals."""
        d0 = rounds[0].detail
        if "errors" not in d0:
            trees: dict[int, tuple] = {}
            out = []
            for (frame, _, _), cloud in zip(inputs.requests, d0["decoded"]):
                if id(frame) not in trees:
                    lo, hi = frame.bounds()
                    trees[id(frame)] = (
                        cKDTree(frame.positions),
                        float(np.linalg.norm((hi - lo) / (1 << CODEC_DEPTH))),
                    )
                tree, diag = trees[id(frame)]
                dist, _ = tree.query(cloud.positions, k=1)
                out.append((float(dist.max()) / diag, float(dist.mean()) / diag))
            d0["errors"] = out
        return d0["errors"]

    def check(self, inputs: CodecInputs, rounds: list[Round], checks: Checks) -> None:
        for r in rounds:
            checks.ops(len(r.op_walls))
            checks.require(r.digest == rounds[0].digest,
                           "payload bytes differ between rounds")
            for (frame, density, _), n in zip(inputs.requests, r.detail["n_decoded"]):
                want = _n_keep(frame, density)
                # voxel dedup may merge co-located points, nothing else
                checks.require(
                    0.98 * want <= n <= want,
                    f"decoded {n} points for {want} kept at density {density}",
                )
        for worst, _ in self._errors(inputs, rounds):
            # the downsampled cloud's bounding box is inside the frame's,
            # so its voxels are no larger than the frame's
            checks.require(worst <= 1.0,
                           f"decoded point {worst:.2f} voxel diagonals from its source")

    def content_seconds(self, inputs: CodecInputs, rounds: list[Round]) -> float:
        # one frame variant through encode and decode is 1/FPS s of content
        return len(inputs.requests) / FPS

    def end_to_end(self, inputs: CodecInputs, rounds: list[Round]) -> dict:
        mean_bytes = float(np.mean(rounds[0].detail["bytes"]))
        mean_err = float(np.mean([m for _, m in self._errors(inputs, rounds)]))
        return {
            "stream_mbps": exact(mean_bytes * 8 * FPS / 1e6, "Mbit/s"),
            # mean snap error in voxel diagonals (a voxel-centre codec
            # cannot exceed 0.5; a finer grid lowers it and costs bytes)
            "distortion": exact(mean_err, "ratio"),
        }

    # ------------------------------------------------------------------
    def _traced_round(self, inputs: CodecInputs, rec: SpanRecorder) -> list[bytes]:
        payloads = []
        for gi, (frame, density, s) in enumerate(inputs.requests):
            with rec.span("codec.encode", group=gi):
                with rec.span("pointcloud.downsample"):
                    low = random_downsample_count(frame, _n_keep(frame, density), seed=s)
                with rec.span("compression.encode"):
                    payloads.append(octree_encode(low, depth=CODEC_DEPTH).payload)
        for gi, payload in enumerate(payloads):
            with rec.span("codec.decode", group=gi):
                with rec.span("compression.decode"):
                    octree_decode(payload)
        return payloads

    def traced(self, inputs: CodecInputs, rounds: list[Round], seconds: float,
               checks: Checks) -> tuple[dict, SpanRecorder, dict]:
        n = len(inputs.requests)
        def once() -> SpanRecorder:
            rec = SpanRecorder()
            payloads = self._traced_round(inputs, rec)
            checks.ops(2 * n)
            checks.require(payloads == rounds[0].detail["payloads"],
                           "composed payload differs from encode_frame_compressed's")
            return rec

        recs = repeat_for(seconds, once)

        def per_op_ms(name: str) -> dict:
            return stat([1e3 * r.totals().get(name, 0.0) / n for r in recs], "ms")

        d0 = rounds[0].detail
        in_pts = sum(len(frame) for frame, _, _ in inputs.requests)
        out_pts = sum(d0["n_decoded"])
        metrics = {
            "codec.encode_mpts_per_s": stat(
                [in_pts / r.detail["encode_wall"] / 1e6 for r in rounds], "Mpts/s"),
            "codec.decode_mpts_per_s": stat(
                [out_pts / r.detail["decode_wall"] / 1e6 for r in rounds], "Mpts/s"),
            "pointcloud.downsample_ms": per_op_ms("pointcloud.downsample"),
            "compression.encode_ms": per_op_ms("compression.encode"),
            "compression.decode_ms": per_op_ms("compression.decode"),
            "compression.bytes_per_point": exact(sum(d0["bytes"]) / out_pts, "B"),
            "compression.bytes_per_frame": exact(float(np.mean(d0["bytes"])), "B"),
        }
        return metrics, recs[-1], {}
