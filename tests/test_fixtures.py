"""Instance generators: adversarial families and the seeded random source."""

from fractions import Fraction

import pytest

from krobust.errors import BadParameters
from krobust.fixtures import (
    gen_lowerbound_allstages,
    gen_random,
    gen_subset_krobust_bad,
)
from krobust.graphcore import shortest_paths
from krobust.model import (
    CARDINALITY,
    MINCUT,
    PROBLEM_KINDS,
    SETCOVER,
    STEINERFOREST,
    STEINERTREE,
    SUBSET,
    validate_schedule,
)
from conftest import set_pairs

F = Fraction


def test_lowerbound_family_structure():
    inst = gen_lowerbound_allstages(2, F(2, 5))
    assert inst.schedule.k == (3, 2, 1)
    assert inst.schedule.lam == (F(1), F(7, 5), F(49, 25))
    sets = set_pairs(inst.payload)
    assert [(sorted(m), c) for m, c in sets] == [
        ([1, 3], F(7, 5)), ([1, 2], F(7, 5)), ([2], 1), ([3], 1)]
    assert inst.uncertainty.kind == CARDINALITY


def test_lowerbound_family_horizons():
    one = gen_lowerbound_allstages(1, F(1, 2))
    assert one.payload.universe_size == 2
    assert [(sorted(m), c) for m, c in set_pairs(one.payload)] == [([1], 1), ([2], 1)]
    three = gen_lowerbound_allstages(3, F(1, 5))
    # 3 day-1 sets, 2 day-2 sets, 2 singletons
    assert len(set_pairs(three.payload)) == 7
    assert three.schedule.lam[3] == F(216, 125)
    costs = [c for _, c in set_pairs(three.payload)]
    assert costs == [F(36, 25)] * 3 + [F(6, 5)] * 2 + [1, 1]


@pytest.mark.parametrize("T,eps", [(0, "1/5"), (2, 0), (2, -1), (2, 1), (2, "1/2")])
def test_lowerbound_family_rejects(T, eps):
    with pytest.raises(BadParameters):
        gen_lowerbound_allstages(T, eps)


def test_subset_family_structure():
    inst = gen_subset_krobust_bad(2, 3)
    assert inst.uncertainty.kind == SUBSET
    parts = inst.uncertainty.parts
    assert [len(p) for p in parts] == [9, 27]
    assert parts[0] == frozenset(range(1, 10))
    assert parts[1] == frozenset(range(10, 37))
    assert inst.schedule.k == (36, 1, 1)
    assert inst.schedule.lam == (1, 3, 9)
    by_elem = {next(iter(m)): c for m, c in set_pairs(inst.payload)}
    assert all(by_elem[e] == F(1, 3) for e in parts[0])
    assert all(by_elem[e] == F(1, 9) for e in parts[1])


@pytest.mark.parametrize("T,lam", [(0, 2), (1, 1), (1, True), (1, 2.0), (1, "2")])
def test_subset_family_rejects(T, lam):
    with pytest.raises(BadParameters):
        gen_subset_krobust_bad(T, lam)


def test_gen_random_deterministic():
    for kind in PROBLEM_KINDS:
        a = gen_random(kind, 5, 7, 2, 42)
        b = gen_random(kind, 5, 7, 2, 42)
        assert a == b
        c = gen_random(kind, 5, 7, 2, 43)
        assert c != a


def test_gen_random_valid_instances():
    for kind in PROBLEM_KINDS:
        for seed in range(25):
            inst = gen_random(kind, 3 + seed % 4, 6 + seed % 4, 1 + seed % 3, seed)
            validate_schedule(inst.schedule, len(inst.units()))
            lam = inst.schedule.lam
            assert all(lam[i + 1] / lam[i] in (2, 3) for i in range(len(lam) - 1))
            if kind == SETCOVER:
                assert inst.payload.universe_size == inst.schedule.k[0]
            else:
                g = inst.payload
                dist, _ = shortest_paths(g, [0])
                assert len(dist) == g.n  # connected by construction
            if kind == MINCUT:
                assert inst.payload.root == 0
            if kind == STEINERTREE:
                assert min(inst.schedule.k) >= 2
            if kind == STEINERFOREST:
                assert inst.payload.pairs
                assert all(p.s != p.t for p in inst.payload.pairs)


@pytest.mark.parametrize("kind,n,actions,horizon", [
    ("parity", 4, 5, 1),
    (SETCOVER, 1, 3, 1),
    (SETCOVER, 4, 0, 1),
    (MINCUT, 4, 2, 1),
    (STEINERTREE, 4, 5, 0),
])
def test_gen_random_rejects(kind, n, actions, horizon):
    with pytest.raises(BadParameters):
        gen_random(kind, n, actions, horizon, 0)
