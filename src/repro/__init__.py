"""VoLUT reproduction — LUT-based point-cloud super-resolution for
volumetric video streaming (MLSys 2025).

Package layout:

* :mod:`repro.pointcloud` — containers, sampling, procedural datasets
* :mod:`repro.spatial` — kNN backends, two-layer octree, neighbor reuse
* :mod:`repro.nn` — NumPy MLP substrate (training the refinement network)
* :mod:`repro.sr` — the paper's contribution: dilated interpolation,
  position encoding, LUT construction/refinement, baselines
* :mod:`repro.compression` — the octree codec chunks ship in
* :mod:`repro.metrics` — Chamfer, PSNR, uniformity, QoE
* :mod:`repro.render` — camera, rasterizer, 6DoF viewport traces
* :mod:`repro.net` — bandwidth traces, links, multi-hop paths and their
  scheduler, throughput estimation
* :mod:`repro.streaming` — chunks, ABR (continuous MPC), session and
  fleet simulators, CDN, faults, control plane
* :mod:`repro.systems` — VoLUT / YuZu-SR / ViVo / raw system configs
* :mod:`repro.obs` — fleet telemetry: tracing, metrics, phase profiling
* :mod:`repro.devices` — device profiles and the op-count latency model
* :mod:`repro.experiments` — one module per paper table/figure
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
