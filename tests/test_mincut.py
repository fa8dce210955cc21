"""Thrifty multistage min-cut solver."""

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from krobust import mincut
from krobust.cli import main, serialize_instance
from krobust.errors import Infeasible
from krobust.fixtures import gen_random
from krobust.graphcore import (WeightedGraph, delete_or_contract,
                               preprocess_cost_scaling)
from krobust.mincut import (
    _reps,
    build_net,
    solve,
    thrifty_plan,
    units_of,
)
from krobust.model import (KINDS, MINCUT, ProblemInstance, Schedule,
                           scaled_candidates)
from krobust.oracle import exhaustive_robcov, minimax_opt

from conftest import check_floor, cost_guesses, floor_cases

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


def test_build_net_at_a_fractional_threshold():
    # root cuts 7/3 and 5/2, compared as cut * q > p at each cut and 1/100
    # to either side, on the graph and on its int-cost copy (costs times 6)
    g = WeightedGraph.build(3, [(0, 1, F(7, 3)), (0, 2, F(5, 2))], root=0)
    cuts = {1: F(7, 3), 2: F(5, 2)}
    for scale, h in ((1, g), g.integral()):
        for cut in cuts.values():
            for threshold in (cut - F(1, 100), cut, cut + F(1, 100)):
                want = {v for v, c in cuts.items() if c > threshold}
                assert build_net(h, 0, threshold * scale) == want, threshold


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
    # guessing the cheap edge as costliest contracts vertex 1 into the root,
    # so the root's costliest edge is the floor
    assert g.scaling_floor() == 100
    with pytest.raises(Infeasible, match="edge 1 leaves a unit uncoverable"):
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
        _scale_reference(g, sched, 1, 2)
    with pytest.raises(Infeasible, match="edge 1 leaves a unit uncoverable"):
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


def test_large_solve_stdout_is_pinned(tmp_path, capsys):
    # n = 160 is above the benchmark's graph sizes; the digest was recorded
    # with the single-path max-flow, so a faster flow loop must print the
    # same plan and report
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(serialize_instance(
        gen_random(MINCUT, 160, 480, 3, 1))))
    assert main(["solve", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "f979ba4b7e296627782bea6e99df392399bfb7b362598475a537dee55add49ee")


def _scaling_cases():
    """Cut instances for the cost-scaling tests, each with its schedule:
    seeded Fraction-cost graphs; the same with zero-cost edges and parallel
    copies; already contracted payloads (rep set, merged vertices smaller
    than their representative); and graphs with a third of their costs
    times n^3, a spread above n^2, whose costly guesses prepay edges."""
    cases = []
    for n, seed in [(6, 1), (7, 2), (9, 3), (10, 4), (12, 5), (14, 6)]:
        inst = gen_random(MINCUT, n, 3 * n, 2, seed)
        g, rng = inst.payload, random.Random(seed)
        edges = [(e.u, e.v, e.cost) for e in g.edges]
        odd = [(u, v, 0 if i % 4 == 0 else c) for i, (u, v, c) in
               enumerate(edges)] + [(u, v, c * 2) for u, v, c in edges[::3]]
        # contracting (v, u) names the larger end: a smaller vertex then
        # stands for it
        flip = [(v, u, c) for u, v, c in edges]
        high = [(u, v, c * n ** 3 if rng.random() < 0.35 else c)
                for u, v, c in edges]
        cases += [(g, inst.schedule),
                  (WeightedGraph.build(n, odd, g.root), inst.schedule),
                  (delete_or_contract(WeightedGraph.build(n, flip, g.root),
                                      [1, n], "contract"), inst.schedule),
                  (WeightedGraph.build(n, high, g.root), inst.schedule)]
    return cases


def test_scaled_graphs_share_exact_root_cuts():
    # every cut a guess shares from the instance is the scaled graph's own
    shared = skipped = prepaid = 0
    for g, schedule in _scaling_cases():
        for f in cost_guesses(g):
            if _refusal(_scale_reference, g, schedule, f, 2):
                continue
            pre = KINDS[MINCUT].scale(g, schedule, f, 2)
            h = pre.graph
            if h is g:   # nothing scaled: the instance's memo is its own
                continue
            for (fn, *args), result in h._memo.items():
                assert fn.__name__ == "min_cut"
                assert fn(replace(h), *args) == result, args
            shared += len(h._memo)
            if not pre.prepaid.ids:
                skipped += len(set(_reps(h, h.root).values())) - len(h._memo)
            prepaid += bool(pre.prepaid.ids)
    assert shared > 50 and skipped > 10 and prepaid > 10


def _scale_reference(g, schedule, f, merge_r):
    """Cost scaling as it was first written: build the scaled graph, then
    look for a unit whose representative is the root."""
    pre = preprocess_cost_scaling(g, schedule, f, merge_r)
    for v in units_of(g):
        if pre.graph.representative(v) == pre.graph.root:
            raise Infeasible(f"vertex {v} is only separable by costlier edges")
    return pre


def _refusal(scale, *args):
    try:
        scale(*args)
    except Infeasible as exc:
        return str(exc)
    return None


def test_scaling_floor_decides_every_cut_guess():
    # the costliest edge at the root is the least guess under which no
    # unit merges into the root, also on contracted payloads
    refused = 0
    for g, schedule in _scaling_cases() + list(floor_cases(MINCUT)):
        refused += check_floor(g, lambda f: _refusal(
            _scale_reference, g, schedule, f, 2) is None)
    assert refused > 500


@pytest.mark.parametrize("seed", range(1, 4))
def test_cost_scaling_computes_each_instance_root_cut_once(monkeypatch, seed):
    # infeasible guesses build no scaled graph, and a scaled graph reads
    # the instance's root cuts instead of computing them again
    inst = gen_random(MINCUT, 16, 48, 3, seed)
    g = replace(inst.payload)
    work = g.integral()[1]
    feasible = [f for f in cost_guesses(work) if _refusal(
        _scale_reference, work, inst.schedule, f, 2) is None]
    scaled, computed = [], []
    cut, scale = mincut.min_cut, mincut.preprocess_cost_scaling

    def counted_cut(h, root, terminals):
        terminals = frozenset(terminals)
        if len(terminals) == 1 and cut.peek(h, root, terminals) is None:
            computed.append((*terminals, cut(h, root, terminals)))
        return cut(h, root, terminals)

    def counted_scale(*args):
        scaled.append(args[2])
        return scale(*args)

    monkeypatch.setattr(mincut, "min_cut", counted_cut)
    monkeypatch.setattr(mincut, "preprocess_cost_scaling", counted_scale)
    solve(g, inst.schedule, preprocess=True)
    assert scaled == feasible and len(feasible) < len(cost_guesses(work))
    own = [(r, result) for r, result in computed
           if result == cut(work, work.root, [r])]
    assert len(own) == len(set(r for r, _ in own)) == len(units_of(g))
