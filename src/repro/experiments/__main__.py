"""CLI experiment runner: ``python -m repro.experiments name [name ...]``.

Runs the named experiments at the chosen scale and prints each
regenerated table/figure.  ``--list`` enumerates what is available;
``--all`` runs everything.  Called with no or unknown names, it lists the
available experiments and exits 2 instead of guessing.  A raising
experiment no longer aborts the rest of the list: its traceback is
printed, the remaining experiments still run, a per-experiment pass/fail
summary closes the output, and the exit status is 1 — so a nightly
``--all`` sweep reports every failure at once and still fails the build.
A flag reaches only the experiments whose runner takes its parameter,
and each pass/fail line echoes exactly what its experiment took.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
import time
import traceback

from . import (
    PAPER,
    SMOKE,
    run_ablation,
    run_bins_sweep,
    run_breakdown_device,
    run_breakdown_measured,
    run_compression_rd,
    run_dilation_sweep,
    run_downsampling_ablation,
    run_fig4,
    run_fig11_device,
    run_fig11_measured,
    run_fig17_device,
    run_fig17_measured,
    run_fig18_device,
    run_fleet_cdn,
    run_fleet_chaos,
    run_fleet_obs,
    run_fleet_policies,
    run_fleet_scaling,
    run_memory_usage,
    run_population_fleet,
    run_multivideo_eval,
    run_octree_depth_sweep,
    run_sr_quality,
    run_streaming_eval,
    run_table1,
)

REGISTRY = {
    "table1": lambda scale: run_table1(),
    "fig4": run_fig4,
    "fig7-10": run_sr_quality,
    "fig11-measured": run_fig11_measured,
    "fig11-device": lambda scale: run_fig11_device(),
    "fig12-13": run_streaming_eval,
    "fig14": run_ablation,
    "fig15": lambda scale: run_memory_usage(),
    "fig16-device": lambda scale: run_breakdown_device(),
    "fig16-measured": run_breakdown_measured,
    "fig17-device": lambda scale: run_fig17_device(),
    "fig17-measured": run_fig17_measured,
    "fig18": lambda scale: run_fig18_device(),
    "ablate-dilation": run_dilation_sweep,
    "ablate-bins": run_bins_sweep,
    "ablate-downsampling": run_downsampling_ablation,
    "ablate-octree-depth": run_octree_depth_sweep,
    "compression-rd": run_compression_rd,
    "multivideo": run_multivideo_eval,
    "fleet": run_fleet_scaling,
    "fleet-population": run_population_fleet,
    "fleet-cdn": run_fleet_cdn,
    "fleet-chaos": run_fleet_chaos,
    "fleet-obs": run_fleet_obs,
    "fleet-policies": run_fleet_policies,
}


#: CLI flag (argparse dest) -> the runner parameter it sets; a runner
#: without that parameter does not take the flag
FLAGS = {
    "sessions": "n_sessions",
    "days": "days",
    "control_interval": "control_interval",
    "abr": "abr",
    "diurnal": "diurnal",
    "regional": "regional",
    "trace_out": "trace_out",
    "metrics_out": "metrics_out",
}


def _list_experiments(stream) -> None:
    print("available experiments:", file=stream)
    for name in REGISTRY:
        print(f"  {name}", file=stream)


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    # chained so NaN fails it (every comparison with NaN is false)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and positive, got {text}"
        )
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__
    )
    parser.add_argument("names", nargs="*", help="experiments to run")
    parser.add_argument("--scale", choices=["smoke", "paper"], default="smoke")
    parser.add_argument("--list", action="store_true", help="list experiment names")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument(
        "--diurnal", action="store_true",
        help="use the 24h diurnal arrival curve for the population experiments",
    )
    parser.add_argument(
        "--sessions", type=_count, default=None, metavar="N",
        help="viewer count (>= 1) for experiments that take one (fleet-cdn, "
        "fleet-population, fleet-chaos, ...); default: each experiment's own",
    )
    parser.add_argument(
        "--abr", metavar="NAME", default=None,
        help="ABR controller for experiments that build a viewer "
        "population (fleet, fleet-population, fleet-cdn, fleet-chaos, "
        "fleet-obs): a repro.streaming.policies registry name; "
        "default: each experiment's own (continuous-mpc)",
    )
    parser.add_argument(
        "--days", type=_count, default=None, metavar="N",
        help="virtual days (>= 1) for multi-day diurnal experiments "
        "(fleet-cdn); default: 1",
    )
    parser.add_argument(
        "--control-interval", type=_seconds, default=None, metavar="S",
        help="virtual seconds (finite, > 0) between control-plane ticks for "
        "experiments that run one (fleet-chaos, fleet-obs); default: 5",
    )
    parser.add_argument(
        "--regional", action="store_true",
        help="run the correlated regional-fault scenario only, for "
        "experiments that host one (fleet-chaos: cascade generator + "
        "gray failure + client retries under graceful degradation)",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write a structured event trace for experiments that record "
        "one (fleet-chaos, fleet-obs): Chrome trace-event JSON by "
        "default, JSONL event log with a .jsonl suffix",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write a Prometheus-style text dump of the metrics registry "
        "for experiments that keep one (fleet-obs)",
    )
    parser.add_argument(
        "--report", metavar="FILE", default=None,
        help="also write the rendered tables to a markdown file",
    )
    return parser


def _taken(fn, args) -> dict[str, object]:
    """The flags ``fn`` takes: ``{flag dest: value}`` for every flag set
    on the command line whose parameter ``fn``'s runner has."""
    params = inspect.signature(fn).parameters
    return {
        flag: getattr(args, flag) for flag, param in FLAGS.items()
        if getattr(args, flag) not in (None, False) and param in params
    }


def _echo(taken: dict[str, object]) -> str:
    """`` (sessions=1000, diurnal)`` — empty when nothing was taken."""
    bits = [
        flag if value is True
        else f"{flag}={value:g}" if isinstance(value, float)
        else f"{flag}={value}"
        for flag, value in taken.items()
    ]
    return f" ({', '.join(bits)})" if bits else ""


def _usage_error(args, parser) -> int:
    """Exit status 2 with a message when the names or ``--abr`` are
    wrong, else 0."""
    if args.names and args.all:
        print(
            f"--all runs every experiment; drop it or the names {args.names}",
            file=sys.stderr,
        )
        return 2
    if not args.names and not args.all:
        parser.print_usage(sys.stderr)
        _list_experiments(sys.stderr)
        return 2
    unknown = [n for n in args.names if n not in REGISTRY]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        _list_experiments(sys.stderr)
        return 2
    if args.abr is not None:
        from ..streaming.policies import available_policies

        if args.abr not in available_policies():
            print(f"unknown ABR policy: {args.abr!r}", file=sys.stderr)
            print("available policies:", file=sys.stderr)
            for name in available_policies():
                print(f"  {name}", file=sys.stderr)
            return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.list:
        for name in REGISTRY:
            print(name)
        return 0
    status = _usage_error(args, parser)
    if status:
        return status
    names = list(REGISTRY) if args.all else args.names

    scale = PAPER if args.scale == "paper" else SMOKE
    sections: list[str] = []
    outcomes: list[tuple[str, bool, float]] = []
    # every flag at least one experiment took, echoed on the summary
    taken_by_any: set[str] = set()
    for name in names:
        fn = REGISTRY[name]
        taken = _taken(fn, args)
        taken_by_any.update(taken)
        # Echoed on every pass/fail line so a nightly log names the
        # failing configuration, not just the experiment.
        cfg = _echo(taken)
        t0 = time.time()
        try:
            rendered = fn(scale, **{FLAGS[f]: v for f, v in taken.items()}).render()
        except Exception:
            traceback.print_exc()
            outcomes.append((name, False, time.time() - t0))
            print(
                f"[{name}: FAILED, {time.time() - t0:.1f}s]{cfg}\n",
                file=sys.stderr,
            )
            continue
        outcomes.append((name, True, time.time() - t0))
        print(rendered)
        print(f"[{name}: {time.time() - t0:.1f}s]{cfg}\n")
        sections.append(f"## {name}\n\n```\n{rendered}\n```\n")
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(f"# VoLUT reproduction — experiment report ({scale.name} scale)\n\n")
            fh.write("\n".join(sections))
        print(f"report written to {args.report}")
    failed = [name for name, ok, _ in outcomes if not ok]
    if len(outcomes) > 1 or failed:
        width = max(len(name) for name, _, _ in outcomes)
        summary = {f: getattr(args, f) for f in FLAGS if f in taken_by_any}
        print(f"experiment summary{_echo(summary)}:")
        for name, ok, dt in outcomes:
            status = "ok  " if ok else "FAIL"
            print(f"  {name:<{width}}  {status}  {dt:.1f}s")
        print(f"{len(outcomes) - len(failed)}/{len(outcomes)} experiments passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
