"""The reach map's own checks (the map itself runs nightly: ``python
tests/reach_map.py``)."""

import pytest

from tests import reach_map
from tests.reach_map import ALLOW_LIST, KINDS, _HOOK, functions, reached_lines, run_entry


def test_every_exemption_names_a_function_and_a_kind():
    """A deleted function takes its allow-list entry with it, and every
    entry says which kind of reason keeps it."""
    labels = {label for label, _ in functions().values()}
    assert sorted(set(ALLOW_LIST) - labels) == []
    assert [e for e, (kind, why) in ALLOW_LIST.items() if kind not in KINDS or not why] == []


def test_the_hook_records_what_a_child_process_calls(tmp_path):
    """An entry point's records name the functions it called — its child
    Python processes' included — and not the ones it only imported."""
    hook = tmp_path / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(_HOOK)
    child = "import subprocess, sys; subprocess.run([sys.executable, '-c', {!r}], check=True)"
    code = "from repro.net import stable_trace; stable_trace(10.0)"
    name, status, _ = run_entry("probe", ["-c", child.format(code)], str(hook), str(tmp_path))
    assert (name, status) == ("probe", 0)
    reached = reached_lines(str(tmp_path))
    called = {label for key, (label, _) in functions().items() if key in reached}
    assert "net/traces.py::stable_trace" in called
    assert "net/traces.py::lte_trace" not in called


def test_an_entry_points_tmp_is_its_own_output_directory(tmp_path):
    """``{tmp}`` in an entry point's arguments is the directory its
    records go to, named after the entry point, so two entry points'
    trace files never collide."""
    write = "import sys; open(sys.argv[1], 'w').write('x')"
    _, status, _ = run_entry("a b/c", ["-c", write, "{tmp}/f.txt"], str(tmp_path), str(tmp_path))
    assert status == 0
    assert (tmp_path / "a_b_c" / "f.txt").read_text() == "x"


def test_a_def_is_keyed_as_its_code_object_is(tmp_path, monkeypatch):
    """Methods and nested functions get dotted labels, and a decorated
    function's key is its first decorator's line — the line its code
    object reports — so the hook's records match it."""
    source = (
        "import functools\n"
        "\n"
        "class Box:\n"
        "    @staticmethod\n"
        "    @functools.cache\n"
        "    def make(n):\n"
        "        def inner():\n"
        "            return n\n"
        "        return inner\n"
    )
    (tmp_path / "box.py").write_text(source)
    monkeypatch.setattr(reach_map, "PACKAGE", tmp_path)
    defs = reach_map.functions()
    assert sorted(defs.values()) == [
        ("box.py::Box.make", 4), ("box.py::Box.make.<locals>.inner", 2),
    ]
    namespace = {}
    exec(compile(source, str(tmp_path / "box.py"), "exec"), namespace)
    make = namespace["Box"].make.__wrapped__
    keys = {label: key for key, (label, _) in defs.items()}
    assert keys["box.py::Box.make"] == (str(tmp_path / "box.py"), make.__code__.co_firstlineno)
    assert keys["box.py::Box.make.<locals>.inner"][1] == make(1).__code__.co_firstlineno


#: one entry point that calls ``stable_trace`` and not ``lte_trace``
PROBE = {"probe": ["-c", "from repro.net import stable_trace; stable_trace(10.0)"]}


@pytest.fixture
def two_traces(monkeypatch):
    """The map narrowed to ``stable_trace`` and ``lte_trace``, run over
    :data:`PROBE`; call it with an allow-list to get the exit status."""
    defs = {
        key: value
        for key, value in reach_map.functions().items()
        if value[0] in ("net/traces.py::stable_trace", "net/traces.py::lte_trace")
    }
    assert len(defs) == 2
    monkeypatch.setattr(reach_map, "functions", lambda: defs)
    monkeypatch.setattr(reach_map, "ENTRY_POINTS", PROBE)

    def run(allow):
        monkeypatch.setattr(reach_map, "ALLOW_LIST", allow)
        return reach_map.main()

    return run


LTE = {"net/traces.py::lte_trace": ("test seam", "a probe")}


def test_an_allowed_unreached_function_passes(two_traces, capsys):
    assert two_traces(LTE) == 0
    out = capsys.readouterr().out
    assert "reached 1 of 2 functions" in out
    assert "net/traces.py::lte_trace" in out and "test seam: a probe" in out


def test_an_unreached_function_off_the_list_fails(two_traces, capsys):
    assert two_traces({}) == 1
    assert "net/traces.py::lte_trace" in capsys.readouterr().out


def test_an_entry_for_a_reached_function_is_stale(two_traces, capsys):
    allow = {**LTE, "net/traces.py::stable_trace": ("test seam", "a probe")}
    assert two_traces(allow) == 1
    assert "stale allow-list entry (gone or reached): net/traces.py::stable_trace" in (
        capsys.readouterr().out
    )


def test_an_entry_for_a_gone_function_is_stale(two_traces, capsys):
    allow = {**LTE, "net/traces.py::gone": ("test seam", "a probe")}
    assert two_traces(allow) == 1
    assert "stale allow-list entry (gone or reached): net/traces.py::gone" in (
        capsys.readouterr().out
    )


def test_a_failing_entry_point_exits_2(two_traces, monkeypatch, capsys):
    monkeypatch.setattr(reach_map, "ENTRY_POINTS", {"boom": ["-c", "raise SystemExit(3)"]})
    assert two_traces(LTE) == 2
    assert "FAILED (3)" in capsys.readouterr().out
