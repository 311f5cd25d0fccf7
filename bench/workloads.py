"""The workload registry and the one procedure every workload runs under."""

from __future__ import annotations

from itertools import count

from harness import (
    Checks,
    exact,
    measure_setup,
    peak_rss_mb,
    speed,
    stat,
    timed_rounds,
)
from wl_client import X2, X2_TOY, X8, X8_TOY, ClientWorkload
from wl_codec import CODEC, CODEC_TOY, CodecWorkload
from wl_fleet import FleetWorkload

__all__ = ["make", "NAMES", "run_workload"]

_FACTORIES = {
    "client-x2": lambda toy: ClientWorkload("client-x2", X2_TOY if toy else X2),
    "client-x8": lambda toy: ClientWorkload("client-x8", X8_TOY if toy else X8),
    "codec-roundtrip": lambda toy: CodecWorkload(CODEC_TOY if toy else CODEC),
    "fleet-diurnal": lambda toy: FleetWorkload("diurnal", toy),
    "fleet-flashcrowd": lambda toy: FleetWorkload("flashcrowd", toy),
    "fleet-chaos": lambda toy: FleetWorkload("chaos", toy),
}
NAMES = tuple(_FACTORIES)


def make(name: str, toy: bool = False):
    """The workload ``name`` at benchmark size (``toy``: the self-tests')."""
    return _FACTORIES[name](toy)


def run_workload(wl, seed: int, seconds: float, trace: bool,
                 per_layer: dict[str, str]) -> dict:
    """Set up, run rounds, check outputs, and collect the metrics.

    With ``trace`` off the metrics are the end-to-end ones; with it on,
    half of ``seconds`` goes to untraced rounds (the base the tracing
    overhead is a ratio of), the rest to traced rounds, and the metrics
    are every name of ``per_layer`` (name → unit) — zero where the
    workload never enters that layer.
    """
    checks = Checks()
    inputs, setup_record = measure_setup(lambda: wl.setup(seed), wl.warm_up)

    index = count()

    def run(state):
        # only the first round keeps its outputs for the quality checks
        return wl.run(inputs, state, keep=next(index) == 0)

    budget = seconds / 2 if trace else seconds
    rounds, ref = timed_rounds(lambda: wl.fresh(inputs), run, budget)
    wl.check(inputs, rounds, checks)
    content_s = wl.content_seconds(inputs, rounds)  # per round

    spans, extra = None, {}
    if trace:
        layer, spans, extra = wl.traced(inputs, rounds, seconds - budget, checks)
        unknown = sorted(set(layer) - set(per_layer))
        if unknown:
            raise KeyError(f"per-layer metrics not declared in BENCHMARK.json: {unknown}")
        metrics = {
            name: layer.get(name) or exact(0.0, unit)
            for name, unit in per_layer.items()
        }
        metrics["bench.rounds"] = exact(len(rounds), "count")
        metrics["bench.raw_content_s_per_wall_s"] = stat(
            [content_s / r.wall for r in rounds], "s/s")
        metrics["bench.ref_slowdown_x"] = exact(ref.slowdown(), "x")
    else:
        metrics = wl.end_to_end(inputs, rounds)
        metrics["content_s_per_ref_s"] = speed(content_s, rounds, ref, "s/s")
        metrics["setup_s"] = setup_record
        metrics["peak_rss_mb"] = exact(peak_rss_mb(), "MiB")
    return {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "messages": checks.messages,
        "metrics": metrics,
        "spans": spans,
        "trace_extra": extra,
    }
