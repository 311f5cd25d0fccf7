"""Code shape: no function under streaming/ or net/ grows back into a monolith."""

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
    for package in ("streaming", "net"):
        for path in sorted((SRC / package).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    n = body_lines(node)
                    if n > MAX_BODY_LINES:
                        too_long.append(f"{path.name}::{node.name} {n}")
    assert not too_long, too_long
