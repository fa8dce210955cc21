"""A seeded fuzzer of the library's constructors.  Each case builds a
Schedule, a WeightedGraph or SetSystem and an UncertaintySpec with one
field swapped for a value of a wrong type, then calls every library entry
point on the result.  Each call either succeeds or raises a KRobustError,
and a FieldError names the swapped field (or, for a member of a part, the
part that holds it); an AttributeError or TypeError from inside is a
fault of the constructor that owns the rule."""

import random
import re
from fractions import Fraction

import pytest

from krobust.errors import FieldError, KRobustError
from krobust.graphcore import WeightedGraph, preprocess_cost_scaling
from krobust.model import (CARDINALITY, MINCUT, PROBLEM_KINDS, SETCOVER,
                           STEINERFOREST, STEINERTREE, SUBSET, ProblemInstance,
                           Schedule, UncertaintySpec, solve_thrifty)
from krobust.oracle import exhaustive_robcov, minimax_opt, opt_bounds
from krobust.setcover import SetSystem

F = Fraction
_EDGES = [[0, 1, 1], [1, 2, F(1, 2)], [0, 2, 2], [2, 3, 1]]


def _base(kind):
    """A small valid instance of the kind as nested lists, field name ->
    value, with its paths spelt as FieldError spells them."""
    doc = {"T": 2, "lambda": [1, 2, F(7, 2)]}
    if kind == SETCOVER:
        doc.update(universe_size=3, k=[3, 2, 1], sets=[
            {"members": [1, 2], "cost": 1}, {"members": [3], "cost": F(1, 2)},
            {"members": [1, 2, 3], "cost": 2}])
        units = [1, 2, 3]
    else:
        doc.update(n=4, edges=[list(e) for e in _EDGES])
        units = {MINCUT: [1, 2, 3], STEINERTREE: [0, 1, 2, 3],
                 STEINERFOREST: [1, 2]}[kind]
        doc["k"] = {MINCUT: [3, 2, 1], STEINERTREE: [4, 3, 2],
                    STEINERFOREST: [2, 1, 1]}[kind]
        if kind == MINCUT:
            doc["root"] = 0
        if kind == STEINERFOREST:
            doc["pairs"] = [[0, 3], [1, 2]]
    doc["kind"] = SUBSET
    doc["parts"] = [units[:-1], units[-1:]]
    return doc


def _leaves(value, path=""):
    """(path, value) for each scalar below value, and for each part: list
    items as [i], a set's fields as .name, top-level fields by name."""
    if isinstance(value, dict):
        for name, item in value.items():
            yield from _leaves(item, f"{path}.{name}" if path else name)
    elif isinstance(value, list):
        if path.startswith("parts["):   # a part is a field of its own
            yield path, value
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _swapped(doc, path, wrong):
    """A copy of doc with the field at path replaced by wrong."""
    def walk(value, keys):
        if not keys:
            return wrong
        out = type(value)(value)
        out[keys[0]] = walk(value[keys[0]], keys[1:])
        return out
    return walk(doc, [int(key[1:-1]) if key[0] == "[" else key
                      for key in re.findall(r"\[\d+\]|\w+", path)])


def _wrong_values(value):
    """Values of types the field does not take: for a number, its float
    (integral or not), a bool, its digits as a string and None; for a part,
    a tuple, a number and None."""
    if isinstance(value, list):
        return [tuple(value), len(value), None]
    if isinstance(value, str):
        return [1, None, [value]]
    return [float(value), float(value) + 0.5, True, str(value), None]


def _build(kind, doc):
    """The payload, schedule and uncertainty that the doc describes; the
    payload's constructor may raise."""
    schedule = Schedule(doc["T"], tuple(doc["k"]), tuple(doc["lambda"]))
    parts = tuple(frozenset(p) if isinstance(p, list) else p
                  for p in doc["parts"])
    uncertainty = (UncertaintySpec(doc["kind"], parts)
                   if doc["kind"] != CARDINALITY
                   else UncertaintySpec(CARDINALITY))
    if kind == SETCOVER:
        payload = SetSystem.build(doc["universe_size"], [
            (s["members"], s["cost"]) for s in doc["sets"]])
    else:
        payload = WeightedGraph.build(doc["n"], doc["edges"],
                                      root=doc.get("root"),
                                      pairs=doc.get("pairs", ()))
    return payload, schedule, uncertainty


def _expect(faults, what, path, wrong, call):
    """call's result, or None if it raised a KRobustError.  Adds a line to
    faults for any other error, and for a FieldError that names neither
    path nor the part that holds it."""
    try:
        return call()
    except FieldError as exc:
        if exc.field != path and not path.startswith(exc.field + "["):
            faults.append(f"{what} with {path} = {wrong!r} names "
                          f"{exc.field}: {exc}")
    except KRobustError:
        pass
    except Exception as exc:   # the fault under test
        faults.append(f"{what} with {path} = {wrong!r}: "
                      f"{type(exc).__name__}: {exc}")
    return None


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_library_calls_refuse_a_wrong_type_by_name(kind):
    # every field of the kind's base instance, each with every wrong value,
    # in a seeded order; the fields outside the uncertainty model draw the
    # subset model or the cardinality one per case
    rng = random.Random(f"library-fuzz:{kind}")
    doc = _base(kind)
    cases = [(path, wrong) for path, value in _leaves(doc)
             for wrong in _wrong_values(value)]
    rng.shuffle(cases)
    payload, schedule, _ = _build(kind, doc)
    plan, _ = solve_thrifty(kind, payload, schedule)
    faults, called = [], 0
    for path, wrong in cases:
        case = _swapped(doc, path, wrong)
        if path != "kind" and not path.startswith("parts") and rng.random() < .5:
            case["kind"] = CARDINALITY
        built = _expect(faults, "constructor", path, wrong,
                        lambda: _build(kind, case))
        if built is None:
            continue
        payload, schedule, uncertainty = built
        inst = ProblemInstance(kind, payload, schedule, uncertainty)
        calls = {
            "solve_thrifty": lambda: solve_thrifty(kind, payload, schedule),
            "minimax_opt": lambda: minimax_opt(inst, with_trace=False),
            "exhaustive_robcov": lambda: exhaustive_robcov(inst, plan),
            "opt_bounds": lambda: opt_bounds(inst),
        }
        if kind != SETCOVER:
            calls["preprocess_cost_scaling"] = (
                lambda: preprocess_cost_scaling(payload, schedule, 0))
        for name, call in calls.items():
            _expect(faults, name, path, wrong, call)
        called += 1
    assert not faults, "\n".join(faults)
    assert called > len(cases) // 2
