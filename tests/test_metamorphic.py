"""Metamorphic checks: transformed instances whose answers are known from
the original's."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from krobust.fixtures import gen_random
from krobust.graphcore import WeightedGraph
from krobust.model import KINDS, PROBLEM_KINDS, SETCOVER
from krobust.oracle import exhaustive_robcov, minimax_opt
from krobust.setcover import SetSystem

F = Fraction


def _rebuilt(inst, c=1, order=None):
    """The instance with every set or edge cost multiplied by c and the sets
    or edges listed in order, a permutation of their ids."""
    p = inst.payload
    actions = p.sets if inst.kind == SETCOVER else p.edges
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
