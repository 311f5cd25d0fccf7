"""Code shape: no function under streaming/, net/, spatial/, sr/, compression/
or pointcloud/ grows back into a monolith, rewritten kernels leave no
second path behind, and no public name lives only for its tests."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MAX_BODY_LINES = 150


def body_lines(fn) -> int:
    """Source lines of a function's body, docstring excluded."""
    body = fn.body
    if ast.get_docstring(fn, clean=False) is not None:
        body = body[1:]
    return body[-1].end_lineno - body[0].lineno + 1 if body else 0


def test_no_function_body_over_150_lines():
    too_long = []
    for package in ("streaming", "net", "spatial", "sr", "compression", "pointcloud"):
        for path in sorted((SRC / package).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    n = body_lines(node)
                    if n > MAX_BODY_LINES:
                        too_long.append(f"{path.name}::{node.name} {n}")
    assert not too_long, too_long


def test_fleet_spec_has_eight_fields_and_no_engine_knob():
    import dataclasses

    from repro.streaming import FleetSpec

    names = [f.name for f in dataclasses.fields(FleetSpec)]
    assert len(names) == 8, names
    assert not [n for n in names if "engine" in n]
    assert not {"trace", "policy"} & set(names)


def test_one_serving_model():
    """A bare link is ``single_link_cdn``: the fleet driver and the cost
    model have no topology-less branch."""
    fleet = (SRC / "streaming" / "fleet.py").read_text()
    assert "base_path" not in fleet
    assert "topology is None" not in fleet
    assert "topology is not None" not in fleet
    assert "topology is not None" not in (SRC / "streaming" / "cost.py").read_text()


def test_stage_code_has_no_tracer_branches():
    """Emission sites call ``tracer.emit`` unconditionally (a run without
    a tracer binds ``NULL_TRACER``)."""
    offenders = [
        f"{name}:{i}"
        for name in ("fleet.py", "cdn.py", "control.py")
        for i, line in enumerate(
            (SRC / "streaming" / name).read_text().splitlines(), 1
        )
        if "tracer is not None" in line or "tracer is None" in line
    ]
    assert not offenders, offenders


def test_shared_link_moves_no_bits():
    """One fluid-sharing engine (``PathScheduler``); its per-flow
    reference lives in ``tests/net/reference_scheduler.py``."""
    from repro.net import SharedLink

    assert not hasattr(SharedLink, "add_flow")


def test_merge_and_prune_has_one_path_and_no_switch():
    """Its sort-based predecessor lives in ``tests/spatial/reference_reuse.py``."""
    import inspect

    from repro.spatial import reuse

    assert list(inspect.signature(reuse.merge_and_prune).parameters) == [
        "new_points", "points", "parent_a", "parent_b", "neighbor_idx", "k",
    ]
    assert reuse.__all__ == ["merge_and_prune"]


def test_codec_has_no_per_byte_loop():
    """The zero-RLE runs at array speed both ways and occupancy bytes fold
    with ``reduceat``; the byte loops and ``bitwise_or.at`` live in
    ``tests/compression/reference_codec.py``."""
    text = (SRC / "compression" / "octree_codec.py").read_text()
    functions = {
        node.name: node
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.FunctionDef)
    }
    for name in ("_zero_rle_encode", "_zero_rle_decode"):
        loops = [
            n for n in ast.walk(functions[name])
            if isinstance(n, (ast.While, ast.For, ast.comprehension))
        ]
        assert not loops, (name, [n.lineno for n in loops])
    assert ".at(" not in text


def test_planner_evaluates_every_row_and_has_no_scalar_twin():
    """One ``decide_batch`` body per planner in ``src/``; the scalar MPC
    reference is ``tests/streaming/reference_planner.py``."""
    import inspect

    from repro.metrics import QoEModel
    from repro.streaming import ContinuousMPC, DiscreteMPC
    from repro.streaming.abr import _MPCBase
    from repro.streaming.policies import _GridPolicy

    for name in ("abr.py", "policies.py", "__init__.py"):
        text = (SRC / "streaming" / name).read_text()
        assert "dedup" not in text and "memo" not in text, name
    assert not hasattr(_MPCBase, "_plan_value")
    assert not hasattr(_GridPolicy, "_index")
    assert not hasattr(QoEModel, "plan_value")
    assert list(inspect.signature(ContinuousMPC).parameters) == [
        "quality_model", "qoe_model", "sr_latency", "min_density", "n_grid",
        "horizon", "safety", "fetch_fraction",
    ]
    assert list(inspect.signature(DiscreteMPC).parameters) == [
        "quality_model", "qoe_model", "sr_latency", "levels", "horizon", "safety",
    ]


def called_names(node) -> set[str]:
    """Names of everything called under ``node``: ``f(...)`` and ``x.f(...)``."""
    return {
        call.func.attr if isinstance(call.func, ast.Attribute) else call.func.id
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, (ast.Attribute, ast.Name))
    }


def functions(path, name):
    """Every ``def name`` in the file, at any depth."""
    return [
        node for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]


def test_a_fleet_step_pays_for_arithmetic_not_for_dispatch():
    """The two bodies a fleet step lives in keep their array-call diet:
    the planner shapes its tensors where it caches them (no per-call
    ``broadcast_*`` / ``stack``), ``QoEModel`` plans through one
    ``plan_values`` with one quality per plan, and the scheduler counts
    active flows per link at the life-cycle transitions (no ``bincount``
    per step)."""
    import inspect

    from repro.metrics import QoEModel

    (batch,) = functions(SRC / "streaming" / "abr.py", "_batch_plan_values")
    (plan,) = functions(SRC / "metrics" / "qoe.py", "plan_values")
    for fn in (batch, plan):
        slow = called_names(fn) & {"broadcast_arrays", "broadcast_to", "stack", "zeros"}
        assert not slow, (fn.name, slow)
    assert list(inspect.signature(QoEModel.plan_values).parameters) == [
        "self", "qualities", "stalls", "prev_quality",
    ]
    topology = ast.parse((SRC / "net" / "topology.py").read_text())
    assert "bincount" not in called_names(topology)
    (alloc,) = functions(SRC / "net" / "topology.py", "_vec_alloc")
    assert not called_names(alloc) & {"ravel", "astype", "tolist", "nonzero"}


def test_the_scheduler_keeps_its_active_flows_in_one_packed_block():
    """Active flows fill columns ``0 … n-1`` (swap-remove on the way out),
    so there is no slot array to grow, scan or gather through."""
    import dataclasses

    from repro.net.topology import _PathFlow, _VectorState

    assert not hasattr(_VectorState, "_grow_rows")
    assert "slot" not in [f.name for f in dataclasses.fields(_PathFlow)]


def test_a_fleet_step_rebuilds_nothing_fixed_for_the_run():
    """A spec builds its chunk table once per instance and length — an
    equal but separate spec builds its own, so no cache outlives the specs
    of a run — and ``decide_batch`` hands out the controller's own
    per-candidate ``Decision`` objects."""
    from repro.metrics import QoEModel
    from repro.streaming import (
        ZERO_LATENCY, AbrContext, ContinuousMPC, SRQualityModel, VideoSpec,
    )

    spec = VideoSpec("v", n_frames=90, fps=30, points_per_frame=1000)
    table = spec.chunks(1.0)
    assert isinstance(table, tuple) and spec.chunks(1.0) is table
    assert spec.chunks(0.5) is not table
    twin = VideoSpec("v", n_frames=90, fps=30, points_per_frame=1000)
    assert twin == spec and twin.chunks(1.0) == table
    assert twin.chunks(1.0) is not table

    mpc = ContinuousMPC(SRQualityModel(), QoEModel(), ZERO_LATENCY, n_grid=8)
    ctxs = [AbrContext(tput, 1.0, None, table) for tput in (1e5, 1e7, 1e9)]
    own = {id(d) for d in mpc._decisions}
    assert {id(d) for d in mpc.decide_batch(ctxs)} <= own
    assert id(mpc.decide(ctxs[0])) in own


def test_one_sharing_rule():
    """Every link is fair processor sharing, ``cap / n_active``: no link
    takes a sharing policy, no session or flow carries a weight, the
    scheduler keeps no per-link flow registry, and no ``"weighted"``
    literal is left under ``net/`` or ``streaming/`` to select one."""
    import dataclasses
    import inspect

    import repro.net
    from repro.net import PathScheduler, SharedLink
    from repro.streaming import FleetSession

    assert list(inspect.signature(SharedLink).parameters) == ["trace"]
    assert "SHARING_POLICIES" not in dir(repro.net)
    assert "weight" not in [f.name for f in dataclasses.fields(FleetSession)]
    assert "weight" not in inspect.signature(PathScheduler.add_flow).parameters
    assert not hasattr(PathScheduler(), "_link_flows")
    literals = [
        f"{path.relative_to(SRC).as_posix()}:{node.lineno}"
        for top in ("net", "streaming")
        for path in sorted((SRC / top).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and node.value == "weighted"
    ]
    assert literals == []


def test_one_transfer_integrator():
    """``PathScheduler`` times every transfer: ``Link`` runs one flow
    through it and ``simulate_session`` is a fleet of one.  So outside
    ``net/topology.py`` only the ``DegradedTrace`` wrapper reads a trace's
    rate schedule, and there is no solo closed form nor the ``sync`` that
    banked its progress."""
    import repro.net
    from repro.net import PathScheduler

    readers = {
        f"{path.relative_to(SRC).as_posix()}::{getattr(node, 'name', node.lineno)}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.parse(path.read_text()).body
        if called_names(node) & {"bandwidth_at", "time_to_next_change"}
    }
    assert {r for r in readers if not r.startswith("net/topology.py::")} == {
        "streaming/faults.py::DegradedTrace"
    }, sorted(readers)
    assert not hasattr(PathScheduler, "sync")
    assert "path_download_time" not in dir(repro.net)


def test_octree_selects_by_argmin_passes_through_one_kernel():
    """The partition kernel lives in ``tests/spatial/reference_octree.py``,
    which takes nothing from production but ``KnnBackend``; ``octree.py``
    keeps one ``_block_knn`` / ``_ring_runs`` / ``query`` and its constants."""
    import inspect

    from repro.spatial import TwoLayerOctree

    octree = SRC / "spatial" / "octree.py"
    assert "argpartition" not in called_names(ast.parse(octree.read_text()))
    (block,), (_,), (_,) = (functions(octree, n) for n in ("_block_knn", "_ring_runs", "query"))
    assert "argsort" not in called_names(block) and "argmin" in called_names(block)
    assert list(inspect.signature(TwoLayerOctree).parameters) == ["points", "levels"]
    assert (TwoLayerOctree.BLOCK_PAIRS, TwoLayerOctree.TARGET_OCCUPANCY) == (1 << 15, 8)
    assert (TwoLayerOctree.MAX_RING, TwoLayerOctree.MAX_AUTO_LEVELS) == (3, 7)
    assert len(octree.read_text().splitlines()) < 320

    oracle = ast.parse(
        (Path(__file__).resolve().parent / "spatial" / "reference_octree.py").read_text()
    )
    from_repro = {
        (node.module, alias.name)
        for node in ast.walk(oracle)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("repro")
        for alias in node.names
    }
    assert from_repro == {("repro.spatial.knn", "KnnBackend")}
    assert "argpartition" in called_names(oracle)


def test_the_client_searches_one_index_under_one_tie_rule():
    """``interpolate``, ``VolutUpsampler`` and the GradPU / YuZu baselines
    default to ``CLIENT_BACKEND`` (fig17 compares architectures, not search
    substrates), and ``interpolate``'s one self-query goes through the
    (distance, index) contract, not a backend's raw ``query``."""
    from repro.spatial.knn import CLIENT_BACKEND

    assert CLIENT_BACKEND == "kdtree"

    def default(fn, name):
        args = fn.args.args
        return dict(zip([a.arg for a in args[len(args) - len(fn.args.defaults):]],
                        fn.args.defaults))[name]

    def class_body(path, name):
        (cls,) = [
            node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef) and node.name == name
        ]
        return cls.body

    sr = SRC / "sr"
    (interp,) = functions(sr / "interpolation.py", "interpolate")
    (volut_init,) = [
        fn for fn in class_body(sr / "pipeline.py", "VolutUpsampler")
        if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
    ]
    (gradpu,) = [
        node.value for node in class_body(sr / "gradpu.py", "GradPUUpsampler")
        if isinstance(node, ast.AnnAssign) and node.target.id == "backend"
    ]
    (yuzu,) = [
        node.value for node in ast.walk(ast.parse((sr / "yuzu.py").read_text()))
        if isinstance(node, ast.Assign)
        and ast.unparse(node.targets[0]) == "self.backend"
    ]
    for value in (default(interp, "backend"), default(volut_init, "backend"), gradpu, yuzu):
        assert isinstance(value, ast.Name) and value.id == "CLIENT_BACKEND", ast.unparse(value)
    assert "self_neighbors" in called_names(interp)
    assert "query" not in called_names(interp)


def test_sr_tail_reuses_the_prunes_distances():
    """``encode`` and ``colorize`` sum squares per axis (the ``linalg.norm``
    formulas are ``tests/sr/reference_distances.py``), and
    ``VolutUpsampler.upsample`` hands ``merge_and_prune``'s distances to
    ``encode`` as Eq. 3's radius instead of letting it measure them again."""
    for name in ("encoding.py", "colorize.py"):
        assert "norm" not in called_names(ast.parse((SRC / "sr" / name).read_text())), name

    (upsample,) = [
        fn
        for cls in ast.walk(ast.parse((SRC / "sr" / "pipeline.py").read_text()))
        if isinstance(cls, ast.ClassDef) and cls.name == "VolutUpsampler"
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "upsample"
    ]
    (prune,) = [
        node for node in ast.walk(upsample)
        if isinstance(node, ast.Assign) and "merge_and_prune" in called_names(node.value)
    ]
    _, distances = prune.targets[0].elts
    (encode,) = [
        node for node in ast.walk(upsample)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "encode"
    ]
    (radius,) = [kw.value for kw in encode.keywords if kw.arg == "radius"]
    read = {n.id for n in ast.walk(radius) if isinstance(n, ast.Name)}
    assert distances.id in read, ast.unparse(radius)


def test_reference_planner_shares_nothing_with_the_array_path():
    """Identifiers only — its docstrings may name what it is compared to."""
    path = Path(__file__).resolve().parent / "streaming" / "reference_planner.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
            names.add(getattr(node, "module", None) or "")
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert "sr_ratio_for" in names
    assert not [n for n in names if "batch" in n or "plan_values" in n]


def test_one_refinement_table_one_lookup_entry():
    """``HashedLUT`` serves both keyings (``per_point``) through
    ``lookup_normalized``; the miss policy is a constant."""
    import dataclasses
    import inspect
    import re

    from repro.experiments.artifacts import get_artifacts
    from repro.sr import lut
    from repro.sr.training import RefinementDataset

    assert lut.__all__ == [
        "lut_entries", "lut_entries_full", "lut_memory_bytes",
        "HashedLUT", "EnsembleLUT", "build_lut", "build_coarse_lut",
    ]
    classes = re.findall(r"^class (\w*LUT\w*)", (SRC / "sr" / "lut.py").read_text(), re.M)
    assert sorted(classes) == ["EnsembleLUT", "HashedLUT", "LUTStats"]
    for table in (lut.HashedLUT, lut.EnsembleLUT):
        assert not hasattr(table, "lookup")
    keying = inspect.signature(lut.HashedLUT).parameters["per_point"]
    assert list(inspect.signature(lut.HashedLUT).parameters) == ["encoder", "per_point"]
    assert keying.kind is keying.KEYWORD_ONLY and keying.default is keying.empty
    assert list(inspect.signature(lut.HashedLUT.load).parameters) == ["path"]
    assert list(inspect.signature(get_artifacts).parameters) == [
        "scale", "rf_size", "bins", "seed",
    ]
    assert [f.name for f in dataclasses.fields(RefinementDataset)] == ["X", "Y"]
    paths = [*sorted((SRC / "sr").glob("*.py")), SRC / "experiments" / "artifacts.py"]
    for path in paths:
        text = path.read_text()
        for word in ("fallback", "hasattr", "lut_kind"):
            assert word not in text, (path.name, word)


#: Public names whose only callers are tests, and why each stays.
CALLERLESS = {
    "StreamingClient": "the materialized client the twin experiment will drive",
}


def test_every_public_name_has_a_production_caller():
    """Every top-level public ``def`` / ``class`` under ``src/repro/`` is
    used by name (``ast.Name`` / ``ast.Attribute``) somewhere under
    ``src/``, ``examples/``, ``bench/`` or ``benchmarks/``, or imported by a
    file there that is not an ``__init__.py`` — ``__all__`` strings and
    package re-exports do not count."""
    root = SRC.parents[1]
    defined, used = {}, set()
    for top in ("src", "examples", "bench", "benchmarks"):
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            if path.is_relative_to(SRC):
                for node in tree.body:
                    if (
                        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")
                    ):
                        defined[node.name] = path.relative_to(SRC).as_posix()
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                    used.update(alias.name for alias in node.names)
    unused = sorted(f"{defined[n]}::{n}" for n in set(defined) - used - set(CALLERLESS))
    assert not unused, unused
    assert set(CALLERLESS) <= set(defined) - used, "an allow-listed name found a caller"


def test_one_benchmark_ledger():
    """``bench/`` + ``BENCHMARK.json`` hold every performance number;
    ``benchmarks/`` is the paper's figures at smoke scale as plain tests."""
    root = SRC.parents[1]
    assert [p.name for p in root.glob("BENCH*.json")] == ["BENCHMARK.json"]
    assert not (root / "scripts").exists()
    gone = (
        "BENCH_FLOOR_SCALE", "BENCH_PHASES_OUT", "BENCH_OVERHEADS_OUT",
        "pytest_benchmark", "pytest-benchmark",
    )
    this = Path(__file__).resolve()
    offenders = []
    for top in root.iterdir():
        if top.name == "bench" or (top.name.startswith(".") and top.name != ".github"):
            continue
        for path in (top, *top.rglob("*")):
            if path.suffix in (".py", ".yml", ".toml") and path != this:
                text = path.read_text()
                offenders += [f"{path}: {word}" for word in gone if word in text]
    assert not offenders, offenders
    for path in sorted((root / "benchmarks").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                assert "benchmark" not in [a.arg for a in args], (path.name, node.name)


def test_fleet_runs_in_one_process():
    """Process-parallel sharding left on its measured speed-up (below its
    1.5x bar at two workers): a fleet is one ``simulate_fleet`` run, and
    nothing under ``src/repro/`` spawns processes or speaks of shards."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.name}: import {m}" for m in modules
                if m.split(".")[0] in ("multiprocessing", "concurrent")
            ]
        if "shard" in text.lower():
            offenders.append(f"{path.name}: shard")
    assert not offenders, offenders
