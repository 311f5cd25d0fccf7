"""Figures 12–13 — end-to-end streaming: normalized QoE and data usage.

Systems: VoLUT, YuZu-SR (caching/delta-coding disabled), ViVo, and raw
full-density streaming as the data-usage reference.  Conditions: a stable
50 Mbps wired link and the LTE trace family (§7.1).

Reported, per the paper's conventions:

* ``norm_qoe`` — session QoE normalized so VoLUT = 100 on each trace;
* ``data_pct`` — bytes downloaded as a percentage of raw streaming.
"""

from __future__ import annotations

import numpy as np

from ..net.traces import PAPER_LTE_PROFILES, lte_trace, stable_trace
from ..streaming.chunks import VideoSpec
from ..systems.factory import (
    raw_system,
    run_system,
    vivo_system,
    volut_system,
    yuzu_sr_system,
)
from .common import SMOKE, ResultTable, Scale

__all__ = ["run_streaming_eval", "default_spec"]


def default_spec(scale: Scale, points_per_frame: int | None = None) -> VideoSpec:
    """The Long Dress streaming workload at a given scale."""
    pts = points_per_frame or scale.device_points
    return VideoSpec(
        name="longdress",
        n_frames=scale.stream_seconds * 30,
        fps=30,
        points_per_frame=pts,
    )


def _make_systems():
    return {
        "volut": volut_system(),
        "yuzu-sr": yuzu_sr_system(),
        "vivo": vivo_system(),
        "raw": raw_system(),
    }


def run_streaming_eval(
    scale: Scale = SMOKE,
    stable_mbps: tuple[float, ...] = (50.0,),
    lte_profiles: tuple[tuple[float, float], ...] = PAPER_LTE_PROFILES,
    seed: int = 0,
) -> ResultTable:
    """QoE + data usage per (condition, system)."""
    spec = default_spec(scale)
    conditions = [
        (f"stable-{int(m)}", stable_trace(m, duration=scale.stream_seconds))
        for m in stable_mbps
    ]
    # The paper aggregates over its LTE trace set; we do the same and also
    # keep the lowest-bandwidth trace as its own condition (it is called
    # out separately in §7.4).
    lte_set = [
        lte_trace(mean, std, duration=scale.stream_seconds, seed=seed + int(mean))
        for mean, std in lte_profiles
    ]
    table = ResultTable(
        title="Figs 12-13: normalized QoE and data usage",
        columns=["condition", "system", "qoe", "norm_qoe", "data_mb", "data_pct", "stall_s"],
        notes="norm_qoe: VoLUT=100 per condition; data_pct: relative to raw streaming.",
    )
    systems = _make_systems()

    def run_condition(cond_name: str, traces: list) -> None:
        agg: dict[str, list] = {name: [] for name in systems}
        for trace in traces:
            for name, setup in systems.items():
                r = run_system(setup, spec, trace)
                agg[name].append(r)
        base_qoe = float(np.mean([r.qoe for r in agg["volut"]]))
        raw_bytes = float(np.mean([r.total_bytes for r in agg["raw"]]))
        for name in systems:
            qoe = float(np.mean([r.qoe for r in agg[name]]))
            nbytes = float(np.mean([r.total_bytes for r in agg[name]]))
            stall = float(np.mean([r.stall_seconds for r in agg[name]]))
            table.add(
                condition=cond_name,
                system=name,
                qoe=round(qoe, 2),
                norm_qoe=round(100.0 * qoe / base_qoe, 1) if base_qoe else 0.0,
                data_mb=round(nbytes / 1e6, 1),
                data_pct=round(100.0 * nbytes / raw_bytes, 1),
                stall_s=round(stall, 2),
            )

    for cond_name, trace in conditions:
        run_condition(cond_name, [trace])
    run_condition("lte-all", lte_set)
    run_condition("lte-low", [lte_set[0]])
    return table
