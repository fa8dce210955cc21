"""Rules on the package source, checked by parsing it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "krobust"


def test_no_assert_statements():
    # `python -O` strips asserts; internal invariants raise
    # InvariantViolation instead
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    hits = [f"{path.name}:{node.lineno}"
            for path in sources
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)]
    assert hits == []
