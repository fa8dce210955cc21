"""Rules on the package source, checked by parsing it."""

import ast
import importlib
import inspect
import types
from dataclasses import replace
from pathlib import Path

import pytest

from krobust import graphcore
from krobust.fixtures import gen_random
from krobust.model import (KINDS, MINCUT, PROBLEM_KINDS, SETCOVER,
                           STEINERFOREST, STEINERTREE, solve_thrifty)
from krobust.oracle import _Game

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
    # the tests and the package, but for __init__ (its imports re-export)
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    sources += sorted(Path(__file__).parent.glob("*.py"))
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
                        hits.append(f"{path.parent.name}/{path.name}:"
                                    f"{node.lineno} {name}")
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


# the solve entry and the plan builder the tracer times for each kind
TRACED_SOLVE = {SETCOVER: ("setcover.solve", "setcover.thrifty_plan"),
                MINCUT: ("mincut.solve", "mincut.thrifty_plan"),
                STEINERTREE: ("steiner.solve_tree", "steiner.thrifty_tree_plan"),
                STEINERFOREST: ("steiner.solve_forest",
                                "steiner.thrifty_forest_plan")}


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_kind_records_reach_the_traced_names(kind):
    # the tracer rebinds module attributes, so a Kind field that holds a
    # traced function itself, not a lambda that looks it up, goes unseen
    tracer = _tracer()
    spec, inst = KINDS[kind], gen_random(kind, 6, 12, 2, 1)
    names = TRACED_SOLVE[kind]
    recorder = tracer.Recorder()
    with tracer.traced(recorder):
        spec.solve(inst.payload, inst.schedule)
        if kind != SETCOVER:
            spec.solve(inst.payload, inst.schedule, None, True)
            names += ("graphcore.preprocess_cost_scaling",)
    assert all(recorder.calls[name] > 0 for name in names), recorder.calls


@pytest.mark.parametrize("kind", [MINCUT, STEINERTREE, STEINERFOREST])
def test_scaled_graphs_inherit_as_much_under_the_tracer(monkeypatch, kind):
    # the tracer rebinds the memoised primitives to its wrappers, so a
    # scaled graph that looked for the instance's results by function
    # identity would find none of them when traced
    tracer, original = _tracer(), graphcore.preprocess_cost_scaling
    inst, inherited = gen_random(kind, 16, 48, 3, 2), []

    def scale(g, *args):
        pre = original(g, *args)
        inherited.append(len(pre.graph._memo) if pre.graph is not g else 0)
        return pre

    monkeypatch.setattr(graphcore, "preprocess_cost_scaling", scale)
    solve_thrifty(kind, replace(inst.payload), inst.schedule, None, True)
    plain = inherited[:]
    inherited.clear()
    recorder = tracer.Recorder()
    with tracer.traced(recorder):
        solve_thrifty(kind, replace(inst.payload), inst.schedule, None, True)
    assert inherited == plain and sum(plain) > 0, (inherited, plain)
    assert recorder.calls["graphcore.preprocess_cost_scaling"] == len(plain)


KIND_NAMES = {"SETCOVER", "MINCUT", "STEINERTREE", "STEINERFOREST"}
# only the document schema and the random generator tell the kinds apart by
# name; everything else asks KINDS with the kind it was given
KIND_CHECKS_ALLOWED = ("cli.parse_instance", "cli.serialize_instance",
                       "fixtures.gen_random")


def _is_kind_name(node) -> bool:
    return isinstance(node, ast.Name) and node.id in KIND_NAMES


def _kind_checks(node, scope):
    """(scope, line) of every comparison with a problem-kind constant and
    every read of KINDS[<kind constant>]; a registration stores, so it is
    not a check."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Compare) and any(
                map(_is_kind_name, (child.left, *child.comparators))):
            yield scope, child.lineno
        if (isinstance(child, ast.Subscript)
                and isinstance(child.ctx, ast.Load)
                and isinstance(child.value, ast.Name)
                and child.value.id == "KINDS"
                and _is_kind_name(child.slice)):
            yield scope, child.lineno
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        yield from _kind_checks(child, inner)


def test_kind_checks_only_where_allowed():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    hits = [f"{scope}:{line}"
            for path in sources
            for scope, line in _kind_checks(ast.parse(path.read_text()),
                                            path.stem)
            if not any(scope == ok or scope.startswith(ok + ".")
                       for ok in KIND_CHECKS_ALLOWED)]
    assert hits == []


def test_memo_sharing_only_in_graphcore():
    # what a cost-scaled graph inherits has one owner: the keep and entries
    # of a memoised primitive are called in graphcore and nowhere else
    calls = [f"{path.stem}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("keep", "entries")]
    assert calls and all(c.startswith("graphcore:") for c in calls), calls


def test_solver_modules_leave_cost_scaling_to_the_driver():
    # solve_thrifty calls graphcore.preprocess_cost_scaling for every
    # graph kind, so no solver module names it, not even to register it
    names = [f"{module}:{node.lineno}"
             for module in ("setcover", "mincut", "steiner")
             for node in ast.walk(ast.parse(
                 (PACKAGE / f"{module}.py").read_text()))
             if "preprocess_cost_scaling" in (
                 getattr(node, "id", None), getattr(node, "attr", None),
                 getattr(node, "name", None))]
    assert names == [], names


def test_oracle_money_scaling_has_one_owner(tiny_batches):
    # the game prices in the ints the driver ranks on: action costs of the
    # payload's integral() and inflations of schedule.priced, scaled nowhere
    # else
    names = [f"oracle:{node.lineno}"
             for node in ast.walk(ast.parse(
                 (PACKAGE / "oracle.py").read_text()))
             if "scaled_to_ints" in (getattr(node, "id", None),
                                     getattr(node, "attr", None))]
    assert names == [], names
    for insts in tiny_batches.values():
        for inst in insts:
            game, (scale, work) = _Game(inst), inst.payload.integral()
            assert game.costs == tuple(cost for _, cost in work.actions())
            assert game.money_scale == scale * inst.schedule.priced[0]
