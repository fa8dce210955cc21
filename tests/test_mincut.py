"""Thrifty multistage min-cut solver."""

from fractions import Fraction

import pytest

from krobust.errors import Infeasible
from krobust.graphcore import WeightedGraph, preprocess_cost_scaling
from krobust.mincut import (
    build_net,
    solve,
    thrifty_plan,
    units_of,
)
from krobust.model import MINCUT, ProblemInstance, Schedule, scaled_candidates
from krobust.oracle import exhaustive_robcov, minimax_opt

F = Fraction


def _triangle():
    return WeightedGraph.build(3, [(0, 1, 1), (0, 2, 2), (1, 2, 10)], root=0)


def test_units_exclude_root():
    assert units_of(_triangle()) == (1, 2)
    with pytest.raises(ValueError):
        solve(WeightedGraph.build(2, [(0, 1, 1)]), Schedule.of([1, 1], [1, 2]))


def test_build_net_strict_threshold():
    g = _triangle()
    # both single-vertex cuts cost exactly 3
    assert build_net(g, 0, F(3)) == frozenset()
    assert build_net(g, 0, F(29, 10)) == frozenset({1, 2})


def test_thrifty_plan_values():
    g = _triangle()
    sched = Schedule.of([2, 1], [1, 3])
    plan = thrifty_plan(g, sched, F(3))
    assert plan.net == frozenset() and plan.day0_cost == 0
    assert plan.residuals == {1: 3, 2: 3}
    assert plan.residual_actions == {1: (0, 1), 2: (0, 1)}
    assert plan.conservative
    assert plan.critical_day == 0


def test_solve_default_and_sharp_beta():
    g = _triangle()
    sched = Schedule.of([2, 1], [1, 3])
    plan, report = solve(g, sched)
    # residual cuts share both edges, so the evaluation double-charges them
    assert report.robcov == 6
    assert report.conservative
    # a tiny beta pulls both vertices into the net and day 0 buys the joint cut
    plan2, report2 = solve(g, sched, beta=F(1, 100))
    assert report2.robcov == 3
    assert plan2.day0_purchase == (0, 1)
    assert plan2.residuals == {1: 0, 2: 0}


def test_solve_trivial_and_free():
    g = _triangle()
    plan, report = solve(g, Schedule.of([2, 0], [1, 2]))
    assert report.robcov == 0
    zg = WeightedGraph.build(3, [(0, 1, 0), (0, 2, 0)], root=0)
    plan2, report2 = solve(zg, Schedule.of([2, 1], [1, 2]))
    assert report2.robcov == 0
    assert set(plan2.day0_purchase) == {0, 1}


def test_preprocess_guess_can_be_infeasible():
    g = WeightedGraph.build(3, [(0, 1, 100), (1, 2, 1)], root=0)
    sched = Schedule.of([2, 1], [1, 2])
    # guessing the cheap edge as costliest contracts vertex 1 into the root
    with pytest.raises(Infeasible, match="separable"):
        scaled_candidates(MINCUT, g, sched, 1, F(50), 2)
    plans = scaled_candidates(MINCUT, g, sched, 0, F(50), 2)
    assert len(plans) == 1
    assert plans[0].preprocess_f == 0
    # the cheap edge is prepaid into day 0
    assert plans[0].day0_purchase == (1,)
    assert plans[0].day0_cost == 1


def test_solve_with_preprocess_matches_plain():
    g = WeightedGraph.build(3, [(0, 1, 100), (1, 2, 1)], root=0)
    sched = Schedule.of([2, 1], [1, 2])
    _, plain = solve(g, sched)
    plan, report = solve(g, sched, preprocess=True, merge_r=2)
    assert plain.robcov == 101
    assert report.robcov == 101
    assert plan.preprocess_f == 0


def test_preprocess_contraction_moves_the_root():
    g = WeightedGraph.build(3, [(1, 0, 100), (1, 2, 1)], root=0)
    sched = Schedule.of([2, 1], [1, 2])
    # contracting the pricey edge merges the root into vertex 1
    assert preprocess_cost_scaling(g, sched, 1, 2).graph.root == 1
    with pytest.raises(Infeasible, match="vertex 1 is only separable"):
        scaled_candidates(MINCUT, g, sched, 1, F(50), 2)
    plan, report = solve(g, sched, preprocess=True)
    assert report.robcov == 101
    assert plan.preprocess_f == 0


def test_preprocess_free_plan_pays_prepaid_edges():
    # guessing the pricey edge prepays both cheap edges, after which the
    # scaled graph cuts for free; day 0 still pays for the prepaid edges
    g = WeightedGraph.build(3, [(0, 1, 1), (1, 2, 100), (0, 2, 1)], root=0)
    sched = Schedule.of([2, 1], [1, 2])
    plan, report = solve(g, sched, preprocess=True)
    inst = ProblemInstance(MINCUT, g, sched)
    opt, _ = minimax_opt(inst)
    assert report.robcov == 2
    assert opt == 2
    assert exhaustive_robcov(inst, plan) == 2


def test_plan_invariants_on_random_batch(solved_batches):
    for inst, plan, report in solved_batches[MINCUT]:
        g = inst.payload
        assert plan.conservative or report.robcov == 0
        for v in units_of(g):
            acts = plan.residual_actions[v]
            assert plan.residuals[v] == sum(
                (g.edge_by_id(e).cost for e in acts), F(0))
        assert tuple(sorted(plan.day0_purchase)) == plan.day0_purchase
