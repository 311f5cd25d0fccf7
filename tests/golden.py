"""The one golden-file mechanism: how a pinned result is stored, compared
and reported.

A pinned result is a list of flat rows — dicts of JSON scalars or short
lists — in ``tests/golden/<name>.json``, one field per line, so the git
diff of a re-recording says which field of which row moved.  Python's
``json`` round-trips floats exactly (``Infinity`` included), and values
are compared by their JSON text, so ``0.0`` and ``-0.0`` differ as they
do bit for bit; the one exception is a row's ``value`` when the recorded
row states a ``tolerance`` (a number known to depend on the CPU's SIMD
kernels), which may move by that much.  A field too long to store
readably (a session's chunk records, a codec payload) is stored as
:func:`digest`.

There is no option.  A missing file is written and the test fails once;
a deliberate move deletes the file and reruns the test, and the diff of
the JSON is what gets reviewed.  A test of one case passes ``where`` and
compares only that case's recorded rows; the file's whole-file test
records it and names missing or extra rows.  A key field a row lacks
reads as ``null``, so a file can gain rows of a new kind, keyed by a new
field, and leave its recorded rows as they are.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).with_name("golden")


def digest(obj) -> str:
    """Short stable hash: of the bytes themselves, else of ``repr(obj)``."""
    data = obj if isinstance(obj, bytes) else repr(obj).encode()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _text(row: dict, field: str) -> str:
    return json.dumps(row[field]) if field in row else "<absent>"


def _differs(old: dict, new: dict, field: str) -> bool:
    if field == "value" and "tolerance" in old and field in new:
        return not abs(new[field] - old[field]) <= old["tolerance"]
    return _text(old, field) != _text(new, field)


def _first_field(old: dict, new: dict) -> str | None:
    """The first field whose value differs between two rows, else None."""
    return next((f for f in {**old, **new} if _differs(old, new, f)), None)


def _dump(rows: list[dict]) -> str:
    """One field per line, lists inline."""
    return "[\n" + ",\n".join(
        "{\n" + ",\n".join(f" {json.dumps(f)}: {_text(row, f)}" for f in row)
        + "\n}"
        for row in rows
    ) + "\n]\n"


def _index(rows: list[dict], key: tuple[str, ...], shown: Path) -> dict:
    index = {tuple(row.get(f) for f in key): row for row in rows}
    assert len(index) == len(rows), f"{shown}: two rows share a key {key}"
    return index


def recorded_rows(name: str) -> list[dict]:
    """The rows ``tests/golden/<name>.json`` holds, for a test that shows
    them in another form (a document's table)."""
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def assert_golden(
    name: str, rows: list[dict], key: tuple[str, ...], where: dict | None = None
) -> None:
    """Compare ``rows`` with ``tests/golden/<name>.json``, each row
    identified by its ``key`` fields; fail naming the first differing
    row and field, both values, and how many rows differ.  With
    ``where``, only the recorded rows whose fields equal it are compared,
    and a missing file is left to the whole-file test to record."""
    path = GOLDEN_DIR / f"{name}.json"
    shown = path.relative_to(GOLDEN_DIR.parents[1])
    text = _dump(rows)
    rows = json.loads(text)  # tuples become lists, as stored
    if not path.exists():
        if where is not None:
            pytest.fail(f"{shown}: not recorded — run its whole-file test")
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
        pytest.fail(f"{shown}: recorded — review the diff and commit")
    recorded = json.loads(path.read_text())
    if where is not None:
        where = json.loads(json.dumps(where))
        recorded = [
            r for r in recorded
            if all(r.get(f) == v for f, v in where.items())
        ]
    got = _index(rows, key, shown)
    want = _index(recorded, key, shown)
    problems = []
    if missing := sorted(want.keys() - got, key=str):
        problems.append(f"recorded rows not produced: {missing}")
    if extra := sorted(got.keys() - want, key=str):
        problems.append(f"rows not recorded: {extra}")
    differ = {
        k: f for k in want
        if k in got and (f := _first_field(want[k], got[k])) is not None
    }
    if differ:
        k, f = next(iter(differ.items()))
        problems.append(
            f"{len(differ)} of {len(want)} rows differ; first {k}, field "
            f"{f!r}: recorded {_text(want[k], f)}, now {_text(got[k], f)}"
        )
    assert not problems, f"{shown}: " + "; ".join(problems)
