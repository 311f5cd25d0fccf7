"""Code shape: no function under streaming/, net/, spatial/, sr/, compression/
or pointcloud/ grows back into a monolith, rewritten kernels leave no
second path behind, and no public name or knob lives only for its tests."""

import ast
from pathlib import Path

import pytest

from .golden import recorded_rows

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MAX_BODY_LINES = 150


def body_lines(fn) -> int:
    """Source lines of a function's body, docstring excluded."""
    body = fn.body
    if ast.get_docstring(fn, clean=False) is not None:
        body = body[1:]
    return body[-1].end_lineno - body[0].lineno + 1 if body else 0


#: an experiment is its rows, its columns and its own post-processing
MAX_EXPERIMENT_BODY_LINES = 80


def test_no_experiment_function_over_80_lines():
    """Fleet experiments are rows of one scenario table, and the CLI maps
    flags to parameters through one table, so no runner or ``main``
    grows back a hand-built scenario."""
    too_long = [
        f"{path.name}::{node.name} {body_lines(node)}"
        for path in sorted((SRC / "experiments").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and body_lines(node) > MAX_EXPERIMENT_BODY_LINES
    ]
    assert not too_long, too_long


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


def test_fleet_spec_has_seven_fields_and_no_engine_knob():
    import dataclasses

    from repro.streaming import FleetSpec

    names = [f.name for f in dataclasses.fields(FleetSpec)]
    assert len(names) == 7, names
    assert not [n for n in names if "engine" in n]
    assert not {"trace", "policy", "cost_model"} & set(names)


def test_one_serving_model():
    """A bare link is ``single_link_cdn``: the fleet driver and the cost
    model have no topology-less branch."""
    fleet = (SRC / "streaming" / "fleet.py").read_text()
    assert "base_path" not in fleet
    assert "topology is None" not in fleet
    assert "topology is not None" not in fleet
    assert "topology is not None" not in (SRC / "streaming" / "cost.py").read_text()


def test_stage_code_has_no_tracer_branches():
    """Emission sites never test for a missing tracer (a run without one
    binds ``NULL_TRACER``); per-request sites skip building a payload by
    identity with it."""
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


def test_planner_plans_each_distinct_row_of_a_call_once_and_has_no_scalar_twin(
    monkeypatch,
):
    """One planner body per controller family in ``src/``: the MPC's
    one-pass float loop and the rule-based zoo's ``decide_batch``.  The
    scalar MPC reference and the ``(H, N, C)`` tensor planner it replaced
    are the tests' oracles in ``tests/streaming/reference_planner.py``.

    A call of n rows with k distinct keys (chunk window, throughput,
    buffer, previous quality) runs ``_plan`` exactly k times, and the
    same call again runs it k times again: rows are planned once per
    call, and no planned row survives the call."""
    import inspect

    from repro.metrics import QoEModel
    from repro.streaming import AbrContext, ContinuousMPC, DiscreteMPC, SRQualityModel, VideoSpec
    from repro.streaming.abr import _MPCBase
    from repro.streaming.latency import MeasuredSRLatency
    from repro.streaming.policies import _GridPolicy

    assert not hasattr(_MPCBase, "_plan_value")
    assert not hasattr(_GridPolicy, "_index")
    assert not hasattr(QoEModel, "plan_value")
    assert list(inspect.signature(ContinuousMPC).parameters) == [
        "quality_model", "qoe_model", "sr_latency", "min_density", "n_grid",
        "horizon", "fetch_fraction",
    ]
    assert list(inspect.signature(DiscreteMPC).parameters) == [
        "quality_model", "qoe_model", "sr_latency", "horizon",
    ]

    plans = []
    plan = _MPCBase._plan

    def counted(self, window, *scalars):
        plans.append((id(window), *scalars))  # the controller keeps its windows
        return plan(self, window, *scalars)

    monkeypatch.setattr(_MPCBase, "_plan", counted)

    def ctx(tput, buffer, prev, start, points=100_000):
        """Fresh chunk and context objects on every call."""
        video = VideoSpec("v", n_frames=300, fps=30, points_per_frame=points)
        return AbrContext(tput, buffer, prev, video.chunks(1.0)[start:])

    # 12 rows, 6 keys: one key four times, equal scalars under three
    # windows, and each scalar moved once under the first window
    rows = [
        ctx(25e6, 2.5, 0.5, 0), ctx(25e6, 2.5, 0.5, 0), ctx(25e6, 2.5, 0.5, 4),
        ctx(25e6, 2.5, 0.5, 0, points=40_000), ctx(3e6, 2.5, 0.5, 0),
        ctx(25e6, 2.5, 0.5, 0), ctx(25e6, 0.0, 0.5, 0), ctx(25e6, 2.5, None, 0),
        ctx(25e6, 2.5, 0.5, 4), ctx(25e6, 2.5, 0.5, 0), ctx(3e6, 2.5, 0.5, 0),
        ctx(25e6, 0.0, 0.5, 0),
    ]
    for mpc in (
        ContinuousMPC(SRQualityModel(), QoEModel(), MeasuredSRLatency(0.001, 1e-8, 2e-8),
                      n_grid=16, horizon=3),
        DiscreteMPC(SRQualityModel(), QoEModel(), MeasuredSRLatency(0.001, 1e-8, 2e-8)),
    ):
        for call in range(3):
            plans.clear()
            mpc.decide_batch(rows)
            assert len(plans) == len(set(plans)) == 6, (call, plans)
        assert (mpc.decide_rows, mpc.decide_unique) == (3 * 12, 3 * 6)


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


def test_a_fleet_step_pays_for_arithmetic_not_for_dispatch(monkeypatch):
    """A fleet step plans about one row per call, so the planner's
    per-decision body (``_plan``, ``decide``, ``decide_batch``) makes no
    NumPy call: NumPy builds the two caches it reads — the chunk window's
    floats and the first-chunk row per previous quality — and
    ``plan_values`` wraps the loop's list for its callers; nothing else in
    ``_MPCBase`` names it.  Checked twice: by name in the source, and by
    running warm decisions with NumPy taken away from the planner and
    ``QoEModel``.  ``QoEModel`` keeps only the first-chunk row of Eq. 10's
    split; the stall sum is the loop's (its tensor form is the tests'
    oracle).  And the scheduler counts active flows per link at the
    life-cycle transitions (no ``bincount`` per step)."""
    import inspect

    import repro.metrics.qoe as qoe
    import repro.streaming.abr as abr
    from repro.metrics import QoEModel
    from repro.streaming import AbrContext, ContinuousMPC, DiscreteMPC, SRQualityModel, VideoSpec
    from repro.streaming.latency import MeasuredSRLatency

    (mpc_base,) = [
        node for node in ast.parse((SRC / "streaming" / "abr.py").read_text()).body
        if isinstance(node, ast.ClassDef) and node.name == "_MPCBase"
    ]
    uses_numpy = {
        fn.name
        for fn in mpc_base.body
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(n, ast.Name) and n.id == "np" for n in ast.walk(fn))
    }
    assert uses_numpy <= {"__init__", "_window", "_first_row", "plan_values"}, uses_numpy
    assert list(inspect.signature(QoEModel.first_chunk_values).parameters) == [
        "self", "qualities", "prev_quality",
    ]
    assert not hasattr(QoEModel, "plan_values")

    lat = MeasuredSRLatency(0.001, 1e-8, 2e-8)
    chunks = VideoSpec("v", n_frames=300, fps=30, points_per_frame=100_000).chunks(1.0)
    ctxs = [
        AbrContext(tput, buf, prev, chunks[start:])
        for tput, buf, prev, start in [
            (25e6, 2.5, None, 0), (3e6, 0.0, 0.5, 8), (float("inf"), 1.0, 0.5, 9),
        ]
    ]
    planners = [
        ContinuousMPC(SRQualityModel(), QoEModel(), lat, n_grid=16, horizon=3),
        DiscreteMPC(SRQualityModel(), QoEModel(), lat),
    ]
    expected = [mpc.decide_batch(ctxs) for mpc in planners]  # warms both caches
    for mpc in planners:
        for window in mpc._horizon_cache.values():
            assert all(
                type(x) is float for bits, sr, d in window for x in (*bits, *sr, d)
            )
        assert all(type(x) is float for row in mpc._first_rows.values() for x in row)

    class NoNumPy:
        def __getattr__(self, name):
            raise AssertionError(f"the per-decision body called np.{name}")

    monkeypatch.setattr(abr, "np", NoNumPy())
    monkeypatch.setattr(qoe, "np", NoNumPy())
    for mpc, want in zip(planners, expected):
        assert mpc.decide_batch(ctxs) == want
        assert [mpc.decide(c) for c in ctxs] == want
    with pytest.raises(AssertionError, match="per-decision body called np"):
        planners[0].decide(AbrContext(25e6, 2.5, 0.25, chunks[3:]))  # cold caches

    topology = ast.parse((SRC / "net" / "topology.py").read_text())
    assert "bincount" not in called_names(topology)


def test_a_scheduler_step_touches_only_the_groups_whose_rate_can_change(
    monkeypatch,
):
    """A step re-rates only the groups on links whose sharer count or
    capacity changed, and a re-rated group whose rate did not change
    keeps its epoch.  Pool: an access link shared by a hit group (access
    only) and a miss group (a 10 Mbit/s backhaul, then the access), and
    a third group on a link of its own.  One more hit flow activates: the
    hit and miss groups are re-rated (they cross the access), the miss
    group's rate is still the backhaul's 10 Mbit/s so it keeps its epoch,
    and the third group is not re-rated at all."""
    from repro.net import NetworkPath, PathScheduler, SharedLink, stable_trace
    from repro.net.topology import _Group

    access, backhaul, side = (
        SharedLink(stable_trace(mbps, rtt=0.0)) for mbps in (100.0, 10.0, 30.0)
    )
    hit, miss = NetworkPath((access,)), NetworkPath((backhaul, access))
    alone = NetworkPath((side,))
    sched = PathScheduler()
    sched.add_flow(0, 40_000_000, 0.0, hit)
    sched.add_flow(1, 40_000_000, 0.0, miss)
    sched.add_flow(2, 40_000_000, 0.0, alone)
    sched.add_flow(3, 40_000_000, 0.0, hit, extra_delay=0.5)
    assert sched.next_event(0.0) == 0.5
    assert sched.advance(0.0, 0.5) == []
    groups = sched._pool.groups
    g_hit, g_miss, g_alone = (groups[k] for k in ((0,), (1, 0), (2,)))
    before = {id(g): (g.epoch, g.rate, list(g.bits)) for g in groups.values()}
    rerated = []
    real = _Group.rerate

    def counting(self, *args):
        rerated.append(self)
        return real(self, *args)

    monkeypatch.setattr(_Group, "rerate", counting)
    sched.next_event(0.5)                    # flow 3's gate opens here
    assert sorted(map(id, rerated)) == sorted(map(id, (g_hit, g_miss)))
    assert g_miss.rate == 10e6 and (g_miss.epoch, g_miss.rate, g_miss.bits) == before[id(g_miss)]
    assert (g_alone.epoch, g_alone.rate, g_alone.bits) == before[id(g_alone)]
    assert g_hit.epoch == 0.5 and g_hit.rate == 100e6 / 3


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


def test_a_warm_row_hashes_no_chunk_spec(monkeypatch):
    """A row whose chunk table the controller has seen finds its window
    by the identity of its first chunk: a warm ``decide_batch`` over rows
    from eight videos of value-equal chunks — a fleet catalog's shape —
    calls no ``ChunkSpec.__hash__`` or ``__eq__``.  A cold controller
    does call them (the value-keyed cache shares one window between the
    videos), which shows the counters count."""
    from collections import Counter

    from repro.metrics import QoEModel
    from repro.streaming import AbrContext, ChunkSpec, ContinuousMPC, SRQualityModel, VideoSpec
    from repro.streaming.latency import MeasuredSRLatency

    def planner():
        lat = MeasuredSRLatency(0.001, 1e-8, 2e-8)
        return ContinuousMPC(SRQualityModel(), QoEModel(), lat, n_grid=16, horizon=3)

    tables = [
        VideoSpec(f"v{k}", n_frames=300, fps=30, points_per_frame=100_000).chunks(1.0)
        for k in range(8)
    ]
    ctxs = [
        AbrContext(tput, buf, prev, table[start:])
        for table in tables
        for tput, buf, prev, start in [
            (25e6, 2.5, None, 0), (3e6, 0.0, 0.5, 4), (25e6, 2.5, 0.5, 9),
        ]
    ]
    mpc = planner()
    expected = mpc.decide_batch(ctxs)  # warms both maps
    assert len(mpc._horizon_cache) == 3 and len(mpc._window_ids) == 3 * len(tables)

    calls = Counter()
    for name in ("__hash__", "__eq__"):
        def counting(self, *args, _name=name, _real=getattr(ChunkSpec, name)):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(ChunkSpec, name, counting)
    for _ in range(2):
        assert mpc.decide_batch(ctxs) == expected
    assert not calls, calls
    assert planner().decide_batch(ctxs) == expected
    assert calls["__hash__"] > 0 and calls["__eq__"] > 0


def test_a_chunk_prices_its_decision_once_per_session():
    """A session looks a decision's chunk quality (and SR-cache key) up in
    a table of its own: over a multi-session fleet run,
    ``SRQualityModel.quality`` runs at most once per distinct (session,
    density, SR ratio, frames per chunk), not once per chunk — here every
    chunk is whole, so once per (session, density, SR ratio).  Each
    session holds its own model, so the model identifies the session; the
    controller plans with a model of its own."""
    from collections import Counter

    from repro.metrics import QoEModel
    from repro.streaming import (
        ContinuousMPC, FleetSession, SRQualityModel, VideoSpec, ZERO_LATENCY,
        simulate_fleet, uniform_cdn,
    )

    calls = Counter()

    class Counting(SRQualityModel):
        def quality(self, density, sr_ratio=None):
            calls[id(self), density, sr_ratio] += 1
            return super().quality(density, sr_ratio)

    mpc = ContinuousMPC(SRQualityModel(), QoEModel(), ZERO_LATENCY, n_grid=8)
    spec = VideoSpec("v", n_frames=20 * 30, fps=30, points_per_frame=100_000)
    models = [Counting() for _ in range(4)]
    sessions = [
        FleetSession(spec, mpc, quality_model=m, join_time=0.5 * i)
        for i, m in enumerate(models)
    ]
    topology = uniform_cdn(2, access_mbps=150.0, backhaul_mbps=75.0)
    result = simulate_fleet(sessions, topology=topology)
    for m, r in zip(models, result.sessions):
        mine = {key[1:] for key in calls if key[0] == id(m)}
        # several decisions per session, each repeated over its chunks
        assert 1 < len(mine) == len(set(r.decisions)) < r.n_chunks
    assert max(calls.values()) == 1


def test_the_control_plane_keeps_no_books():
    """A plane is configuration: ``tick`` is a function of its view and
    writes nothing back, and a plane holds only its policy and the
    optional cross-run autoscaler; the run hands ``tick`` its tracer.
    The run keeps the one record of what it did."""
    from repro.streaming import ControlPlane

    path = SRC / "streaming" / "control.py"
    (tick,) = functions(path, "tick")
    writes = [
        f"line {node.lineno}"
        for node in ast.walk(tick)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for sub in ast.walk(target)
        if isinstance(sub, ast.Attribute)
        and isinstance(sub.value, ast.Name)
        and sub.value.id == "self"
    ]
    assert writes == [], writes
    assert "self.log" not in path.read_text()
    assert set(vars(ControlPlane())) == {"policy", "autoscaler"}


def test_a_viewer_is_stated_once():
    """``FleetSession`` is the one statement of a viewer, next to the
    machine that runs it; the machine takes it whole."""
    import inspect

    import repro.streaming.fleet as fleet
    from repro.streaming import FleetSession, SessionMachine

    assert FleetSession.__module__ == "repro.streaming.simulator"
    assert "FleetSession" not in fleet.__all__
    params = inspect.signature(SessionMachine).parameters
    assert list(params) == ["session", "sr_cache"]
    assert params["sr_cache"].kind is inspect.Parameter.KEYWORD_ONLY


def test_a_fleet_scenario_is_stated_once():
    """Every fleet experiment and example runs a ``Scenario`` row through
    ``run_scenario``, the one ``simulate_fleet`` call outside the library
    and its tests; the per-experiment builders are gone."""
    root = SRC.parents[1]
    calls = [
        f"{path.relative_to(root)}:{i}"
        for path in (
            *sorted((SRC / "experiments").glob("*.py")),
            *sorted((root / "examples").glob("*.py")),
        )
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "simulate_fleet(" in line
    ]
    assert calls == ["src/repro/experiments/scenario.py:" + calls[0].split(":")[1]]
    import repro.experiments as experiments

    for gone in ("make_population", "make_cdn", "make_fleet", "volut_client"):
        assert not hasattr(experiments, gone), gone
    assert not (SRC / "experiments" / "workloads.py").exists()


def _scenario_keywords(tree: ast.AST) -> list[ast.keyword]:
    """The keywords a module's rows are built with: those of every
    ``Scenario(...)`` call, and of every ``replace(name, ...)`` whose
    ``name`` holds rows — it is bound to an expression that makes a
    ``Scenario`` or reads another name that holds rows."""

    def callee(node):
        return isinstance(node, ast.Call) and getattr(
            node.func, "id", getattr(node.func, "attr", None)
        )

    def is_row(node, rows):
        return callee(node) == "Scenario" or (
            callee(node) == "replace" and node.args
            and isinstance(node.args[0], ast.Name) and node.args[0].id in rows
        )

    def holds_rows(value, rows):
        return any(
            callee(n) == "Scenario" or (isinstance(n, ast.Name) and n.id in rows)
            for n in ast.walk(value)
        )

    rows: set[str] = set()
    while True:
        bound = {
            t.id
            for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and holds_rows(node.value, rows)
            for t in node.targets if isinstance(t, ast.Name)
        }
        if bound <= rows:
            break
        rows |= bound
    return [
        k for node in ast.walk(tree) if is_row(node, rows)
        for k in node.keywords
    ]


def test_every_scenario_field_is_set_by_some_row():
    """A ``Scenario`` field exists only where rows differ: each one but
    the audience is set away from its default, by keyword to
    ``Scenario`` or to ``replace`` on a row, somewhere under ``src/`` or
    ``examples/`` (a CLI flag's value counts; a test's row does not)."""
    import dataclasses

    from repro.experiments import Scenario

    root = SRC.parents[1]
    defaults = {f.name: f.default for f in dataclasses.fields(Scenario)}
    varied = set()
    for top in ("src", "examples"):
        for path in sorted((root / top).rglob("*.py")):
            for k in _scenario_keywords(ast.parse(path.read_text())):
                literal = isinstance(k.value, ast.Constant)
                if not (literal and k.value.value == defaults[k.arg]):
                    varied.add(k.arg)
    fields = list(defaults)
    assert fields[0] == "n_sessions"
    assert [f for f in fields[1:] if f not in varied] == []
    # a test-only row does not keep a field alive, nor does a keyword
    # passed to ``replace`` on something that is not a row
    probe = ast.parse(
        "base = Scenario(4, edges=0)\nrow = replace(base, cache=False)\n"
        "rows = {a: replace(row, abr=a) for a in 'xy'}\n"
        "first = rows['x']\nother = replace(first, days=2)\n"
        "scale = replace(SMOKE, skew=2)"
    )
    assert sorted(k.arg for k in _scenario_keywords(probe)) == [
        "abr", "cache", "days", "edges",
    ]


def test_pricing_is_applied_to_a_finished_run():
    """A run carries no cost model and its report no bill:
    ``price(result)`` is the one way to a ``CostReport``."""
    import dataclasses

    import repro.streaming as streaming
    from repro.streaming import FleetReport

    assert "cost" not in [f.name for f in dataclasses.fields(FleetReport)]
    assert not hasattr(streaming, "attach_cost")
    (run,) = functions(SRC / "streaming" / "fleet.py", "simulate_fleet")
    assert "price" not in called_names(run)


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
        if called_names(node) & {"bandwidth_at", "time_to_next_change", "segment"}
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
    # GradPU names its search index at every call: each ``backend=`` and
    # ``get_backend`` argument
    gradpu = [
        arg
        for call in ast.walk(ast.parse((sr / "gradpu.py").read_text()))
        if isinstance(call, ast.Call)
        for arg in (
            [kw.value for kw in call.keywords if kw.arg == "backend"]
            + (call.args[:1] if ast.unparse(call.func) == "get_backend" else [])
        )
    ]
    assert len(gradpu) == 3
    (yuzu,) = [
        node.value for node in ast.walk(ast.parse((sr / "yuzu.py").read_text()))
        if isinstance(node, ast.Assign)
        and ast.unparse(node.targets[0]) == "self.backend"
    ]
    for value in (default(interp, "backend"), default(volut_init, "backend"), *gradpu, yuzu):
        assert isinstance(value, ast.Name) and value.id == "CLIENT_BACKEND", ast.unparse(value)
    assert "self_neighbors" in called_names(interp)
    assert "query" not in called_names(interp)


def gathers_rows(node, index):
    """``node`` gathers rows by the name ``index``: ``x[index]``,
    ``np.take(x, index, …)`` or ``x.take(index, …)``."""
    if isinstance(node, ast.Subscript):
        return ast.unparse(node.slice) == index
    if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "take"):
        return False
    owner = node.func.value
    args = node.args[1:] if isinstance(owner, ast.Name) and owner.id == "np" else node.args
    return bool(args) and ast.unparse(args[0]) == index


def test_sr_tail_reuses_the_prunes_distances():
    """``encode`` and ``colorize`` sum squares per axis (the ``linalg.norm``
    formulas are ``tests/sr/reference_distances.py``), and
    ``VolutUpsampler.upsample`` hands ``merge_and_prune``'s distances to
    ``encode`` as Eq. 3's radius instead of letting it measure them again.

    ``upsample`` calls the prune, ``encode`` and ``lookup_normalized`` once
    each, and the prune's targets and parents are the rows ``np.unique``
    picked out of the ``(parent_a, parent_b)`` keys, so the tail runs once
    per distinct pair and its step goes back through the inverse."""
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

    calls = [
        getattr(node.func, "attr", None) or getattr(node.func, "id", None)
        for node in ast.walk(upsample) if isinstance(node, ast.Call)
    ]
    for stage in ("merge_and_prune", "encode", "lookup_normalized", "unique"):
        assert calls.count(stage) == 1, stage
    (dedup,) = [
        node for node in ast.walk(upsample)
        if isinstance(node, ast.Assign) and "unique" in called_names(node.value)
    ]
    _, rows, inverse = dedup.targets[0].elts
    narrowed = {
        target.id
        for node in ast.walk(upsample) if isinstance(node, ast.Assign)
        for target, value in zip(
            getattr(node.targets[0], "elts", [node.targets[0]]),
            getattr(node.value, "elts", [node.value]),
        )
        if gathers_rows(value, rows.id)
    }
    new, _, a, b = prune.value.args[:4]
    assert {new.id, a.id, b.id} <= narrowed, ast.unparse(prune.value)
    scattered = [
        node for node in ast.walk(upsample) if gathers_rows(node, inverse.id)
    ]
    assert scattered, "the distinct rows' step is not scattered back"


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


def test_each_streaming_model_is_stated_once():
    """Chunk size, SR latency and quality Q have one scalar form each; the
    planners build their per-candidate caches from those leaves, so no
    batched twin is left to drift from them.  Identifiers and exported
    strings only — prose may name what left."""
    gone = {"batch", "latency_batch", "sr_ratios_for", "qualities"}
    twins = []
    for path in sorted((SRC / "streaming").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.alias)):
                name = node.name
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name in gone or name.endswith("_at_densities") or name.startswith("batched_"):
                twins.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    assert not twins, twins


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


def public_names(node) -> list[str]:
    """Public names a top-level statement defines: a ``def`` / ``class``,
    or an UPPER_CASE constant (``NAME = …`` / ``NAME: T = …``)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [] if node.name.startswith("_") else [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [
        t.id for t in targets
        if isinstance(t, ast.Name) and t.id.isupper() and not t.id.startswith("_")
    ]


def production_trees():
    """Every ``.py`` file under ``src/``, ``examples/``, ``bench/`` and
    ``benchmarks/`` — the code outside ``tests/`` — parsed."""
    root = SRC.parents[1]
    for top in ("src", "examples", "bench", "benchmarks"):
        for path in sorted((root / top).rglob("*.py")):
            yield path, ast.parse(path.read_text())


def test_every_public_name_has_a_production_caller():
    """Every top-level public ``def`` / ``class`` / UPPER_CASE constant
    under ``src/repro/`` is used by name (``ast.Name`` / ``ast.Attribute``)
    somewhere under ``src/``, ``examples/``, ``bench/`` or ``benchmarks/``,
    or imported by a file there that is not an ``__init__.py`` —
    ``__all__`` strings, package re-exports and the defining assignment do
    not count."""
    defined, used = {}, set()
    for path, tree in production_trees():
        if path.is_relative_to(SRC):
            for node in tree.body:
                for name in public_names(node):
                    defined[name] = path.relative_to(SRC).as_posix()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                used.update(alias.name for alias in node.names)
    unused = sorted(f"{defined[n]}::{n}" for n in set(defined) - used)
    assert not unused, unused


KNOB_PACKAGES = ("streaming", "net", "obs", "sr")


def _signature(fn, skip: int) -> tuple[list[str], list[str]]:
    """``(positional names, defaulted names)`` of a ``def``, dropping the
    first ``skip`` positional names (``self`` / ``cls``)."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional[skip:], defaulted


def _dataclass_signature(cls) -> tuple[list[str], list[str]] | None:
    """The generated ``__init__``'s signature, or None for a plain class."""
    decorators = [
        d for d in cls.decorator_list
        if ast.unparse(getattr(d, "func", d)) in ("dataclass", "dataclasses.dataclass")
    ]
    if not decorators:
        return None
    fields = [
        node for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        and "ClassVar" not in ast.unparse(node.annotation)
    ]
    kw_only = any(
        k.arg == "kw_only" and ast.unparse(k.value) == "True"
        for k in getattr(decorators[0], "keywords", ())
    )
    return (
        [] if kw_only else [f.target.id for f in fields],
        [f.target.id for f in fields if f.value is not None],
    )


def knob_signatures(tree) -> list[tuple[str, str, list[str], list[str], bool]]:
    """``(label, call name, positional names, defaulted names, is dataclass)``
    for each public top-level function, public class (its ``__init__``, or
    the one ``@dataclass`` generates) and public method of a public class."""
    out = []
    for node in tree.body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            out.append((node.name, node.name, *_signature(node, 0), False))
        elif isinstance(node, ast.ClassDef):
            generated = _dataclass_signature(node)
            if generated is not None:
                out.append((node.name, node.name, *generated, True))
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = "staticmethod" in [ast.unparse(d) for d in fn.decorator_list]
                if fn.name == "__init__" and generated is None:
                    out.append((node.name, node.name, *_signature(fn, 1), False))
                elif not fn.name.startswith("_"):
                    out.append((f"{node.name}.{fn.name}", fn.name,
                                *_signature(fn, 0 if static else 1), False))
    return out


def knob_setters(trees, signatures, factories) -> set:
    """What the code in ``trees`` sets: ``(call name, parameter)`` pairs.

    A call sets a parameter by keyword, by position, or through ``**`` of
    a module-level dict (``{…}`` or ``dict(…)``); a keyword handed to
    ``get_policy`` reaches every registered factory in ``factories``.  A
    ``dataclasses.replace`` keyword or an ``obj.k = …`` store sets field
    ``k`` of the dataclasses its module names (``Name``, ``Attribute`` or
    import) — the only objects the module can hold that way."""
    positions, dataclasses = {}, set()
    for _, name, positional, _, is_dataclass in signatures:
        positions.setdefault(name, []).append(positional)
        if is_dataclass:
            dataclasses.add(name)
    named = set()
    for tree in trees:
        literals, replaces = {}, {"dataclasses.replace"}
        mentioned, stored = set(), set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                value = node.value
                if isinstance(value, ast.Dict):
                    keys = [k.value for k in value.keys if isinstance(k, ast.Constant)]
                elif isinstance(value, ast.Call) and ast.unparse(value.func) == "dict":
                    keys = [k.arg for k in value.keywords if k.arg]
                else:
                    continue
                literals[node.targets[0].id] = keys
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                mentioned.update(a.name for a in node.names)
                if node.module == "dataclasses":
                    replaces.update(a.asname or a.name for a in node.names if a.name == "replace")
            elif isinstance(node, ast.Name):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
                if isinstance(node.ctx, ast.Store) and ast.unparse(node.value) not in (
                    "self", "cls"
                ):
                    stored.add(node.attr)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            keywords = set()
            for kw in call.keywords:
                if kw.arg is not None:
                    keywords.add(kw.arg)
                elif isinstance(kw.value, ast.Name):
                    keywords.update(literals.get(kw.value.id, ()))
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if ast.unparse(func) in replaces:
                stored |= keywords
                continue
            if name == "get_policy":
                named |= {(factory, k) for factory in factories for k in keywords}
            for positional in positions.get(name, ()):
                for arg, param in zip(call.args, positional):
                    if isinstance(arg, ast.Starred):
                        break
                    named.add((name, param))
            named |= {(name, k) for k in keywords}
        named |= {(cls, k) for cls in dataclasses & mentioned for k in stored}
    return named


def unset_knobs(modules, trees, factories) -> tuple[int, list[str]]:
    """``(number of knobs, labels of the knobs nothing in trees sets)``
    over ``modules`` (label prefix -> parsed module); a knob is a
    defaulted parameter or dataclass field of :func:`knob_signatures`."""
    signatures = {
        prefix: knob_signatures(tree) for prefix, tree in modules.items()
    }
    named = knob_setters(
        trees, [s for sigs in signatures.values() for s in sigs], factories
    )
    total, unset = 0, []
    for prefix, sigs in signatures.items():
        for label, name, _, defaulted, _ in sigs:
            total += len(defaulted)
            unset += [f"{prefix}::{label}.{k}" for k in defaulted if (name, k) not in named]
    return total, sorted(unset)


#: knobs no code outside ``tests/`` sets, each with why it stays.  An
#: output record is one entry for the whole class.
KNOB_ALLOW_LIST: dict[str, str] = {
    "streaming/control.py::ControlActions":
        "output record: a tick's actions, filled in by the control plane",
    "streaming/spec.py::FleetSpec.assignment":
        "test-only edge layout; leaves with the generated-scenario work",
}


def test_every_knob_has_a_production_setter():
    """Every defaulted parameter and dataclass field of a public name under
    ``src/repro/{streaming,net,obs,sr}/`` is set by some code outside
    ``tests/`` (see :func:`knob_setters` for what counts), or is on
    ``KNOB_ALLOW_LIST`` with its reason.  A knob no caller sets is a
    constant: one value in use doubles the configurations to cover for
    nothing."""
    from repro.streaming.policies import _REGISTRY

    modules = {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text())
        for package in KNOB_PACKAGES
        for path in sorted((SRC / package).glob("*.py"))
    }
    factories = {factory.__name__ for factory in _REGISTRY.values()}
    total, unset = unset_knobs(modules, [t for _, t in production_trees()], factories)
    print(f"{total} settable values, {len(KNOB_ALLOW_LIST)} allow-list entries")

    def covers(entry, label):
        return label == entry or label.startswith(entry + ".")

    assert [k for k in unset if not any(covers(e, k) for e in KNOB_ALLOW_LIST)] == []
    stale = [e for e in KNOB_ALLOW_LIST if not any(covers(e, k) for k in unset)]
    assert stale == [], stale


#: a module of knobs for the pin's own tests: f.b, f.c, Policy.y, Spec.m
KNOB_DEFINITIONS = """
from dataclasses import dataclass

def f(a, b=1, *, c=2): ...

class Policy:
    def __init__(self, x, y=0.5): ...

@dataclass
class Spec:
    n: int
    m: int = 3
"""


@pytest.mark.parametrize(
    "caller, knob",
    [
        ("f(0, 5)", "f.b"),
        ("f(0, c=3)", "f.c"),
        ("OPTS = dict(c=3)\nf(0, **OPTS)", "f.c"),
        ("OPTS = {'y': 0.1}\nPolicy(1, **OPTS)", "Policy.y"),
        ("get_policy('p', y=0.1)", "Policy.y"),
        ("import dataclasses\nfrom m import Spec\ndataclasses.replace(s, m=4)", "Spec.m"),
        ("from dataclasses import replace as r\ns: Spec\nr(s, m=4)", "Spec.m"),
        ("import m\nspec: m.Spec\nspec.m = 4", "Spec.m"),
        ("import dataclasses, m\nspec: m.Spec\ndataclasses.replace(spec, m=4)", "Spec.m"),
        ("Spec(1, 2)", "Spec.m"),
    ],
    ids=[
        "positional", "keyword", "dict-call", "dict-literal", "get_policy",
        "replace", "replace-alias", "attribute", "replace-attribute",
        "dataclass-positional",
    ],
)
def test_the_knob_pin_sees_every_setter_form(caller, knob):
    total, unset = unset_knobs(
        {"m.py": ast.parse(KNOB_DEFINITIONS)}, [ast.parse(caller)], {"Policy"}
    )
    assert total == 4
    assert f"m.py::{knob}" not in unset
    assert len(unset) == 3


def test_the_knob_pin_reports_a_knob_nothing_sets():
    """Calls that pass only required arguments, ``self.m = …`` inside a
    class, a ``**`` of a dict built in a function, a ``get_policy``
    keyword with no registered factory taking it, and an ``obj.b = …``
    store or ``replace(…, c=…)`` naming a function's parameter (only a
    dataclass field is reached that way) set nothing."""
    caller = """
from dataclasses import replace
f(0)
Policy(1)
Spec(1)
class Other:
    def __init__(self):
        self.m = 4
def build():
    opts = {"c": 3}
    f(0, **opts)
get_policy("p", b=2)
obj.b = 1
obj.y = 0.1
replace(s, c=3)
"""
    _, unset = unset_knobs(
        {"m.py": ast.parse(KNOB_DEFINITIONS)}, [ast.parse(caller)], {"Policy"}
    )
    assert unset == ["m.py::Policy.y", "m.py::Spec.m", "m.py::f.b", "m.py::f.c"]


def test_the_knob_pin_reads_a_replace_against_the_classes_its_module_names():
    """``replace(row, m=4)`` and ``row.m = 4`` in a module that names only
    ``Row`` set no ``Spec.m``, though ``Spec`` has a field ``m``."""
    caller = """
from dataclasses import replace
from rows import Row
row = replace(Row(1), m=4)
row.m = 4
"""
    _, unset = unset_knobs(
        {"m.py": ast.parse(KNOB_DEFINITIONS)}, [ast.parse(caller)], {"Policy"}
    )
    assert "m.py::Spec.m" in unset


#: NumPy calls whose float result is the kernel's: transcendentals (the
#: AVX2 and AVX-512 kernels differ in the last bit) and float reductions
#: (the kernel fixes the summation order)
FLOAT_CALLS = frozenset({
    "log", "log2", "log10", "log1p", "exp", "exp2", "expm1", "power",
    "float_power", "geomspace", "logspace", "mean", "median", "average",
    "sum", "nansum", "prod", "std", "var", "cumsum", "cumprod", "dot",
    "matmul", "einsum",
})


def float_calls(prefix: str, tree: ast.AST) -> list[str]:
    """``prefix::qualname::name`` of every ``<expr>.name(...)`` call with a
    name in ``FLOAT_CALLS`` (``math.*`` excepted: one libm value per
    argument) and every ``**`` with a NumPy call in an operand (an array
    power is ``np.power``)."""
    found = []

    def numpy_call(node):
        return any(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and isinstance(n.func.value, ast.Name) and n.func.value.id == "np"
            for n in ast.walk(node)
        )

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            where = f"{prefix}::{'.'.join(inner) or '<module>'}"
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in FLOAT_CALLS
                and not (isinstance(child.func.value, ast.Name) and child.func.value.id == "math")
            ):
                found.append(f"{where}::{child.func.attr}")
            elif (
                isinstance(child, ast.BinOp) and isinstance(child.op, ast.Pow)
                and (numpy_call(child.left) or numpy_call(child.right))
            ):
                found.append(f"{where}::**")
            visit(child, inner)

    visit(tree, [])
    return found


#: every ``FLOAT_CALLS`` call under ``streaming/`` and ``net/``, with why
#: its value is the same on every CPU
FLOAT_CALL_ALLOW_LIST: dict[str, str] = {
    "net/traces.py::NetworkTrace.__post_init__::median":
        "fixes the period ``_duration`` every segment bound derives from: "
        "a sort picks the middle and an even count averages two floats "
        "(one add, one halving)",
    "net/traces.py::lte_trace::sum": "counts the fade mask: an integer sum",
    "streaming/policies.py::_rate_indices::sum":
        "counts each row's feasible candidates (a boolean mask): an integer sum",
    "streaming/population.py::ContentCatalog.popularity::sum":
        "the Zipf normaliser: NumPy's pairwise sum, whose order the length "
        "fixes (bit-equal with AVX2 and AVX-512 dispatch off)",
    "streaming/population.py::ContentCatalog._cdf::cumsum":
        "the inverse-CDF table: one add per element, in order",
}


def test_every_float_call_on_the_decision_path_names_why_it_is_exact():
    """Under ``streaming/`` and ``net/`` (the fleet's decisions, scores and
    link model) every NumPy transcendental or float reduction is on
    ``FLOAT_CALL_ALLOW_LIST`` with why its value does not depend on the
    CPU's SIMD kernels; a new one is written in ``math`` or gets a reason.
    A stale entry fails too."""
    found = {
        call
        for top in ("streaming", "net")
        for path in sorted((SRC / top).rglob("*.py"))
        for call in float_calls(path.relative_to(SRC).as_posix(), ast.parse(path.read_text()))
    }
    assert sorted(found - FLOAT_CALL_ALLOW_LIST.keys()) == []
    assert sorted(FLOAT_CALL_ALLOW_LIST.keys() - found) == []


def test_the_float_call_pin_sees_every_form():
    """A NumPy call, an array method, an array ``**`` and a nested scope
    are found; ``math`` calls, builtin ``sum`` and a scalar ``**`` are not."""
    module = """
import math
import numpy as np
LEVELS = np.geomspace(1.0, 8.0, 4)
def utility(x):
    return np.log(x) + math.log(2.0) + sum([1.0, 2.0]) + 2.0 ** 3
class Planner:
    def score(self, a):
        def inner():
            return a.mean()
        return inner() * np.arange(3.0) ** 0.5
"""
    assert sorted(float_calls("m.py", ast.parse(module))) == [
        "m.py::<module>::geomspace",
        "m.py::Planner.score.inner::mean",
        "m.py::Planner.score::**",
        "m.py::utility::log",
    ]


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


def test_one_golden_mechanism():
    """``tests/golden.py`` alone stores, compares and reports pinned
    results: no other file under ``tests/`` hashes, names a golden file
    or keeps a table of digests."""
    tests = Path(__file__).resolve().parent
    offenders = []
    for path in sorted(tests.rglob("*.py")):
        if path.parent == tests and path.name == "golden.py":
            continue
        where = path.relative_to(tests).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            offenders += [f"{where}: import {m}" for m in modules if m == "hashlib"]
            if isinstance(node, ast.Name) and (
                node.id.endswith("_DIGESTS") or "GOLDEN" in node.id
            ):
                offenders.append(f"{where}: {node.id}")
            if isinstance(node, (ast.Call, ast.BinOp)):
                offenders += [
                    f"{where}: {arg.value!r}"
                    for arg in ast.walk(node)
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                    and "golden" in arg.value.lower()
                ]
    assert not offenders, offenders


#: the marker CI's AVX-off step selects (``pytest -m golden``)
MARKER = "golden"


def test_every_golden_comparison_carries_the_marker():
    """CI reruns the golden tests with NumPy's AVX2 and AVX-512 dispatch
    off by marker, not by a hand-kept list: every test that calls
    ``assert_golden`` — itself or through a helper of its module — carries
    the marker (on itself or its class), and every marked test does."""
    root = SRC.parents[1]
    tests = root / "tests"
    assert f"{MARKER}:" in (root / "pyproject.toml").read_text()
    assert f"-m {MARKER}" in (root / ".github" / "workflows" / "ci.yml").read_text()

    def marked(node) -> bool:
        return any(
            isinstance(d, ast.Attribute) and d.attr == MARKER
            and ast.unparse(d.value) == "pytest.mark"
            for d in node.decorator_list
        )

    unmarked, idle, seen = [], [], []
    for path in sorted(tests.rglob("test_*.py")):
        tree = ast.parse(path.read_text())
        defs = [(fn, None) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        defs += [
            (fn, cls)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
        ]
        compares = {"assert_golden"}
        grew = True
        while grew:  # module helpers that reach the comparison
            helpers = {
                fn.name for fn, cls in defs
                if cls is None and called_names(fn) & compares
            }
            grew = not helpers <= compares
            compares |= helpers
        for fn, cls in defs:
            if not fn.name.startswith("test_"):
                continue
            where = "::".join(
                [path.relative_to(tests).as_posix(), *([cls.name] if cls else []), fn.name]
            )
            is_marked = marked(fn) or (cls is not None and marked(cls))
            does_compare = bool(called_names(fn) & compares)
            if does_compare:
                seen.append(where)
            if does_compare and not is_marked:
                unmarked.append(where)
            if is_marked and not does_compare:
                idle.append(where)
    assert not unmarked and not idle, (unmarked, idle)
    assert "experiments/test_fleet_rows.py::test_scenario_rows_are_pinned" in seen
    assert len(seen) >= 7, seen


def test_each_paper_band_is_stated_once():
    """A paper band lives in the reproduction ledger alone: outside its
    test, no ordering comparison under ``tests/`` or ``benchmarks/`` holds
    both ends of a two-sided band of ``reproduction.json``, and no ``==`` /
    ``in`` holds an exact one's value.  (One-sided bands end at 0, 1,
    100…, which comparisons hold for other reasons.)"""
    root = SRC.parents[1]
    bands = [row["band"] for row in recorded_rows("reproduction") if None not in row["band"]]
    offenders = set()
    for path in [*(root / "tests").rglob("*.py"), *(root / "benchmarks").rglob("*.py")]:
        if path.name == "test_reproduction.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            ordered = any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)
            held = {c.value for c in ast.walk(node) if isinstance(c, ast.Constant)}
            offenders |= {
                f"{path.relative_to(root)}:{node.lineno} {band}"
                for band in bands if (band[0] != band[1]) == ordered and set(band) <= held
            }
    assert not offenders, sorted(offenders)
