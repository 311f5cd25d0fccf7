#!/usr/bin/env python
"""Full-fidelity client loop: real codec, real SR, real quality metrics.

Unlike ``streaming_session.py`` (which simulates byte flows analytically at
paper scale), this example pushes actual geometry through the whole stack
for a short clip:

  server:  frame → random downsample at the MPC-chosen density
           → octree-codec encode            (repro.compression)
  network: trace-driven download time       (repro.net)
  client:  decode → dilated interpolation + LUT refinement
           (repro.sr) → render + PSNR/Chamfer vs ground truth

Every byte charged to the session corresponds to a payload that really
exists, and every displayed frame is a real reconstruction.

Run:  python examples/end_to_end_client.py [--frames 10]
"""

import argparse
import time

from repro.experiments import SMOKE, get_artifacts
from repro.metrics import QoEModel, ChunkRecord, chamfer_distance, image_psnr
from repro.net import Link, lte_trace
from repro.pointcloud import make_video
from repro.render import render, viewport_trace
from repro.sr import VolutUpsampler
from repro.streaming import (
    ContinuousMPC,
    SRQualityModel,
    VideoSpec,
    ZERO_LATENCY,
    decode_frame_compressed,
    encode_frame_compressed,
)
from repro.streaming.abr import AbrContext


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=10)
    args = parser.parse_args()

    art = get_artifacts(SMOKE)
    video = make_video("loot", n_points=SMOKE.points_per_frame, n_frames=args.frames)
    # A tight link relative to the clip's bitrate, so the ABR has to work.
    trace = lte_trace(1.0, 0.4, duration=120, seed=2)
    link = Link(trace)
    qm = SRQualityModel()
    mpc = ContinuousMPC(qm, QoEModel(), ZERO_LATENCY)
    upsampler = VolutUpsampler(lut=art.lut, k=4, dilation=2)
    spec = VideoSpec(
        name=video.name, n_frames=args.frames, fps=video.fps,
        points_per_frame=SMOKE.points_per_frame,
    )
    chunks = spec.chunks(1.0 / video.fps)  # one frame per chunk here

    cam = viewport_trace(
        "static", 1, center=tuple(video.frame(0).centroid()), radius=2.2,
        width=SMOKE.image_size, height=SMOKE.image_size,
    )[0]

    t_net = 0.0
    buffer = 0.2  # seconds of pre-rolled content
    records = []
    raw_bytes = 0  # what the clip weighs uncompressed at full density
    print(f"{'frame':>5s} {'density':>8s} {'KB':>7s} {'dl ms':>7s} {'sr ms':>7s} "
          f"{'chamfer':>9s} {'psnr':>6s}")
    for i in range(args.frames):
        gt = video.frame(i)
        raw_bytes += gt.nbytes()
        ctx = AbrContext(
            throughput_bps=trace.bandwidth_at(t_net),
            buffer_level=buffer,
            prev_quality=records[-1].quality if records else None,
            next_chunks=chunks[i:],
        )
        decision = mpc.decide(ctx)

        payload = encode_frame_compressed(gt, decision.density, seed=i)
        dl = link.download_time(len(payload), t_net)
        t_net += dl
        # Buffer drains in real time while downloading, fills per frame.
        buffer = max(buffer - dl, 0.0) + 1.0 / video.fps

        received = decode_frame_compressed(payload)
        actual_ratio = max(1.0, len(gt) / max(len(received), 1))
        t0 = time.perf_counter()
        out = upsampler.upsample(received, min(actual_ratio, 8.0))
        sr_ms = (time.perf_counter() - t0) * 1e3

        cd = chamfer_distance(out.cloud, gt)
        psnr = image_psnr(render(out.cloud, cam), render(gt, cam))
        records.append(
            ChunkRecord(quality=qm.quality(decision.density),
                        bytes_downloaded=len(payload))
        )
        print(f"{i:5d} {decision.density:8.3f} {len(payload) / 1024:7.1f} "
              f"{dl * 1e3:7.1f} {sr_ms:7.1f} {cd:9.5f} {min(psnr, 99):6.2f}")

    total_kb = sum(r.bytes_downloaded for r in records) / 1024
    raw_kb = raw_bytes / 1024
    print(f"\ntotal downloaded: {total_kb:.0f} KB "
          f"({100 * total_kb / raw_kb:.1f}% of raw {raw_kb:.0f} KB)")


if __name__ == "__main__":
    main()
