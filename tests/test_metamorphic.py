"""Metamorphic checks: transformed instances whose answers are known from
the original's."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from krobust.fixtures import gen_random
from krobust.graphcore import WeightedGraph
from krobust.model import KINDS, MINCUT, PROBLEM_KINDS, SETCOVER
from krobust.oracle import exhaustive_robcov, minimax_opt
from krobust.setcover import SetSystem
from conftest import set_pairs

F = Fraction


def _rebuilt(inst, c=1, order=None):
    """The instance with every set or edge cost multiplied by c and the sets
    or edges listed in order, a permutation of their ids."""
    p = inst.payload
    actions = set_pairs(p) if inst.kind == SETCOVER else p.edges
    actions = [actions[i] for i in order or range(len(actions))]
    if inst.kind == SETCOVER:
        payload = SetSystem.build(p.universe_size,
                                  [(members, c * cost) for members, cost in actions])
    else:
        payload = WeightedGraph.build(
            p.n, [(e.u, e.v, c * e.cost) for e in actions], root=p.root,
            pairs=[(q.s, q.t) for q in p.pairs])
    return replace(inst, payload=payload)


def _batch(kind):
    """Twelve seeded instances with n <= 5."""
    out = []
    for seed in range(12):
        n = 3 + seed % 3
        out.append(gen_random(kind, n, max(n - 1, 4 + seed % 4), 1 + seed % 2,
                              seed))
    return out


@pytest.mark.parametrize("c", [F(3), F(1, 7)])
@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_scaling_costs_scales_robcov_and_opt(kind, c):
    # the guess grid, the thresholds and the cost-scaling bands are all
    # relative to the costs, so every value scales exactly
    solve = KINDS[kind].solve
    for inst in _batch(kind):
        big = _rebuilt(inst, c)
        for preprocess in (False, True) if kind != SETCOVER else (False,):
            plan, report = solve(inst.payload, inst.schedule, None, preprocess)
            big_plan, scaled = solve(big.payload, big.schedule, None, preprocess)
            assert scaled.robcov == c * report.robcov
            assert (exhaustive_robcov(big, big_plan)
                    == c * exhaustive_robcov(inst, plan))
        assert minimax_opt(big)[0] == c * minimax_opt(inst)[0]


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_reordering_actions_keeps_opt(kind):
    # set and edge ids only break ties, so the adaptive optimum ignores them
    rng = random.Random(kind)
    for inst in _batch(kind):
        order = list(range(len(inst.payload.actions())))
        rng.shuffle(order)
        assert minimax_opt(_rebuilt(inst, order=order))[0] == minimax_opt(inst)[0]


def _with_action(inst, rng, price):
    """The instance with one more set or edge: a copy of a random one at
    price(its cost), and for a set with a random subset of its members."""
    p = inst.payload
    if inst.kind == SETCOVER:
        members, cost = rng.choice(set_pairs(p))
        kept = frozenset(m for m in members if rng.random() < 0.6)
        payload = SetSystem.build(p.universe_size,
                                  list(set_pairs(p)) + [(kept, price(cost))])
    else:
        e = rng.choice(p.edges)
        payload = WeightedGraph.build(
            p.n, [(d.u, d.v, d.cost) for d in p.edges]
            + [(e.u, e.v, price(e.cost))],
            root=p.root, pairs=[(q.s, q.t) for q in p.pairs])
    return replace(inst, payload=payload)


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_dominated_action_keeps_opt(kind):
    # a subset of a set at a cost at least as high, or a parallel edge that
    # costs at least as much, is never worth buying in its place.  A cut
    # must cut every parallel edge, so there the dominated edge is a free
    # one, and a pricier one can only raise opt
    rng = random.Random(f"dominated:{kind}")
    for inst in _batch(kind):
        opt = minimax_opt(inst)[0]
        for extra in (F(0), F(1, 3), F(2)):
            pricier = _with_action(inst, rng, lambda c: c + extra)
            if kind == MINCUT:
                assert minimax_opt(pricier)[0] >= opt
                free = _with_action(inst, rng, lambda c: 0 * c)
                assert minimax_opt(free)[0] == opt
            else:
                assert minimax_opt(pricier)[0] == opt
