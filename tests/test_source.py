"""Rules on the package source, checked by parsing it."""

import ast
import importlib
import inspect
import types
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


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree) -> set[str]:
    """Names read anywhere, including inside quoted annotations."""
    trees = [tree]
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {node.id for t in trees for node in ast.walk(t)
            if isinstance(node, ast.Name)}


def test_no_unused_imports():
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert sources
    hits = []
    for path in sources:
        tree = ast.parse(path.read_text())
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        hits.append(f"{path.name}:{node.lineno} {name}")
    assert hits == []


def _tracer():
    """perfbench/tracer.py, executed from its source without writing a
    bytecode cache next to it."""
    path = PACKAGE.parents[1] / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_traced_names_exist_with_matching_keyers():
    # the benchmark's --trace 1 rebinds these names by string; the suite
    # is the only place that notices a rename
    tracer = _tracer()
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"krobust.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for qualified, keyer in tracer.DISTINCT.items():
        layer, _, name = qualified.partition(".")
        fn = getattr(importlib.import_module(f"krobust.{layer}"), name)
        assert (list(inspect.signature(keyer).parameters)
                == list(inspect.signature(fn).parameters)), qualified
