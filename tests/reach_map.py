"""Reach map: which functions under ``src/`` the production entry points call.

Each entry point of :data:`ENTRY_POINTS` runs in its own subprocess with a
profile hook that records the first call of every code object defined
under ``src/`` (its file and first line).  The hook is a
``sitecustomize`` module put first on ``PYTHONPATH``, so the Python
processes an entry point starts (``bench/run.py``'s workers) are mapped
too.  Every ``def`` under ``src/`` that no entry point reached is printed;
the script exits 1 if one of them is not on :data:`ALLOW_LIST`, or if an
entry there is stale (its function is gone or was reached), and 2 if an
entry point fails.  An extension that nothing measured uses pays no rent:
it leaves, or it names here why it stays.

    python tests/reach_map.py   # ≈ 3.5 min on 2 cores

Entry points run one per core at a time.  Stdlib only.  Run from
anywhere; the paths are the repo's.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: name -> argv after ``python``; ``{tmp}`` is a scratch directory.  The
#: experiments CLI with the flags README and the nightly CI lane use
#: (smaller), every example (``tests/test_examples.py`` runs the
#: ``examples/…`` entries as they stand here) and README's chaos command,
#: the paper-figure lane, and the repo benchmark plain and traced, with
#: its own tests.
ENTRY_POINTS: dict[str, list[str]] = {
    "experiments --all": ["-m", "repro.experiments", "--all"],
    "experiments fleet-chaos --regional": [
        "-m", "repro.experiments", "fleet-chaos", "--regional", "--control-interval", "2.5",
    ],
    "experiments fleet-obs --trace-out": [
        "-m", "repro.experiments", "fleet-obs",
        "--trace-out", "{tmp}/t.json", "--metrics-out", "{tmp}/m.prom",
    ],
    "experiments fleet-chaos --sessions --trace-out .jsonl": [
        "-m", "repro.experiments", "fleet-chaos",
        "--sessions", "60", "--trace-out", "{tmp}/chaos.jsonl",
    ],
    "examples/quickstart.py": ["examples/quickstart.py"],
    "examples/streaming_session.py": ["examples/streaming_session.py", "--seconds", "20"],
    "examples/reproduce_paper.py": ["examples/reproduce_paper.py", "--only", "table1"],
    "examples/fleet_demo.py": [
        "examples/fleet_demo.py", "--sessions", "40", "--seconds", "10",
        "--trace-out", "{tmp}/fleet-trace.json",
    ],
    "examples/chaos_demo.py": [
        "examples/chaos_demo.py", "--sessions", "30", "--trace-out", "{tmp}/chaos-trace.jsonl",
    ],
    "examples/chaos_demo.py --trace-out .json": [
        "examples/chaos_demo.py", "--sessions", "120", "--trace-out", "{tmp}/trace.json",
    ],
    "examples/policy_zoo_demo.py": ["examples/policy_zoo_demo.py", "--sessions", "30"],
    "examples/population_demo.py": [
        "examples/population_demo.py", "--sessions", "30", "--seconds", "8",
    ],
    "examples/cdn_demo.py": ["examples/cdn_demo.py", "--sessions", "30", "--seconds", "8"],
    "examples/end_to_end_client.py": ["examples/end_to_end_client.py", "--frames", "3"],
    "examples/render_viewports.py": [
        "examples/render_viewports.py", "--views", "2", "--save-dir", "{tmp}",
    ],
    "examples/lut_tradeoffs.py": ["examples/lut_tradeoffs.py"],
    "benchmarks -m 'not slow'": [
        "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks", "-m", "not slow",
    ],
    "bench/run.py --seconds 2": ["bench/run.py", "--seconds", "2"],
    "bench/run.py --seconds 2 --trace": ["bench/run.py", "--seconds", "2", "--trace", "1"],
    "bench/tests": ["-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/tests"],
}

#: why an unreached function stays
KINDS = (
    "error path",        # runs only when something has gone wrong
    "protocol method",   # the base of a method every subclass overrides
    "dunder",            # Python calls it for repr(), len(), iteration, truth
    "shipped table",     # the paper's platform-neutral LUT file
    "oracle seam",       # production state exposed for a test's == oracle
    "test seam",         # a fact no public reading carries; names its test
)

#: ``path under src/repro::qualname`` -> (kind, why)
ALLOW_LIST: dict[str, tuple[str, str]] = {
    "streaming/fleet.py::_FleetRun._stall_dump":
        ("error path", "the message of the event loop's no-progress RuntimeError"),
    "net/topology.py::PathScheduler.n_flows":
        ("error path", "the flow count _stall_dump prints"),
    "experiments/__main__.py::_list_experiments":
        ("error path", "lists the registry after a missing or unknown name (exit 2)"),
    "streaming/abr.py::AbrController.decide":
        ("protocol method", "every controller overrides it"),
    "nn/layers.py::Layer.forward": ("protocol method", "every layer overrides it"),
    "nn/layers.py::Layer.backward": ("protocol method", "every layer overrides it"),
    "spatial/knn.py::KnnBackend.query": ("protocol method", "every backend overrides it"),
    "streaming/policies.py::_GridPolicy._indices":
        ("protocol method", "BOLA and the throughput rule override it"),
    "streaming/policies.py::_GridPolicy.decide":
        ("protocol method", "BOLA and the throughput rule override it"),
    "obs/events.py::TraceEvent.__repr__": ("dunder", "repr()"),
    "obs/events.py::Tracer.__len__": ("dunder", "len()"),
    "pointcloud/cloud.py::PointCloud.__repr__": ("dunder", "repr()"),
    "pointcloud/datasets.py::VolumetricVideo.__iter__": ("dunder", "iteration"),
    "pointcloud/datasets.py::VolumetricVideo.__len__": ("dunder", "len()"),
    "streaming/cdn.py::EdgeChunkCache.__len__": ("dunder", "len()"),
    "streaming/control.py::ControlActions.__bool__": ("dunder", "truth of a tick's actions"),
    "streaming/fleet.py::SRResultCache.__len__": ("dunder", "len()"),
    "sr/lut.py::HashedLUT.save":
        ("shipped table", "writes the platform-neutral table a client loads"),
    "sr/lut.py::HashedLUT.load":
        ("shipped table", "reads that table and refuses a malformed file"),
    "streaming/abr.py::_MPCBase.plan_values":
        ("oracle seam", "the planner's values, == the tests' tensor planner"),
    "net/topology.py::PathScheduler.has_flow":
        ("oracle seam", "flow membership, == the tests' reference schedulers"),
    "obs/metrics.py::TimeSeries.items": (
        "test seam",
        "the retained samples, which nothing else exposes; read by "
        "tests/streaming/test_obs.py::TestMetrics::test_timeseries_ring_wraps "
        "and ::TestMetricsWiring, test_control.py::…::test_view_and_registry_agree "
        "and test_simulator.py::TestConfig::test_max_buffer_limits_prefetch",
    ),
}

#: the profile hook, installed in every Python process of an entry point
_HOOK = '''\
import atexit, os, sys, threading

def _install(prefix, out):
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                reached.add((code.co_filename, code.co_firstlineno))

    def dump():
        sys.setprofile(None)
        with open(os.path.join(out, f"{os.getpid()}.reach"), "w") as fh:
            fh.writelines(f"{f}\\t{n}\\n" for f, n in reached)

    atexit.register(dump)
    threading.setprofile(profile)
    sys.setprofile(profile)

_install(os.environ["REACH_MAP_PREFIX"], os.environ["REACH_MAP_OUT"])
'''


def functions() -> dict[tuple[str, int], tuple[str, int]]:
    """Every ``def`` under ``src/``: ``(file, first line)`` — the first
    decorator's line for a decorated one, as its code object has it — to
    ``(label, lines from the def to its end)``."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                label = f"{path.relative_to(PACKAGE).as_posix()}::{prefix}{child.name}"
                out[(str(path), first)] = (label, child.end_lineno - child.lineno + 1)
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return out


def command(argv: list[str], tmp: str) -> list[str]:
    """``python`` followed by an entry point's ``argv``, ``{tmp}`` filled in."""
    return [sys.executable, *(a.replace("{tmp}", tmp) for a in argv)]


def run_entry(name: str, argv: list[str], hook_dir: str, work: str) -> tuple[str, int, float]:
    """Run one entry point under the hook; its records land in ``work``."""
    out = os.path.join(work, name.replace("/", "_").replace(" ", "_").replace("'", ""))
    os.makedirs(out)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [hook_dir, str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REACH_MAP_PREFIX"] = str(SRC) + os.sep
    env["REACH_MAP_OUT"] = out
    t0 = time.perf_counter()
    proc = subprocess.run(
        command(argv, out),
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
    return name, proc.returncode, time.perf_counter() - t0


def reached_lines(work: str) -> set[tuple[str, int]]:
    """``(real path, first line)`` of every code object the runs recorded."""
    reached = set()
    for path in Path(work).rglob("*.reach"):
        for line in path.read_text().splitlines():
            file, first = line.split("\t")
            reached.add((os.path.realpath(file), int(first)))
    return reached


def main() -> int:
    defs = functions()
    with tempfile.TemporaryDirectory(prefix="reach-map-") as work:
        hook_dir = os.path.join(work, "hook")
        os.makedirs(hook_dir)
        Path(hook_dir, "sitecustomize.py").write_text(_HOOK)
        with ThreadPoolExecutor(min(len(ENTRY_POINTS), os.cpu_count() or 1)) as pool:
            runs = list(pool.map(
                lambda item: run_entry(*item, hook_dir, work), ENTRY_POINTS.items()
            ))
        reached = reached_lines(work) & defs.keys()

    for name, status, seconds in runs:
        print(f"{'ok' if status == 0 else f'FAILED ({status})':>12}  {seconds:6.1f}s  {name}")
    unreached = dict(sorted(defs[key] for key in defs.keys() - reached))
    print(f"\nreached {len(reached)} of {len(defs)} functions under src/; "
          f"{len(unreached)} unreached ({sum(unreached.values())} lines):")
    for label, n in unreached.items():
        kind, why = ALLOW_LIST.get(label, ("NOT ALLOWED", ""))
        print(f"  {label}  ({n} lines)  {kind}{': ' + why if why else ''}")

    # an entry is stale when its function is gone or was reached
    stale = sorted(set(ALLOW_LIST) - unreached.keys())
    for entry in stale:
        print(f"stale allow-list entry (gone or reached): {entry}")
    if any(status != 0 for _, status, _ in runs):
        return 2
    return 1 if unreached.keys() - ALLOW_LIST.keys() or stale else 0


if __name__ == "__main__":
    sys.exit(main())
