"""Thrifty multistage min-cut solver."""

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from krobust import graphcore, mincut
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
                           _candidates, solve_thrifty)
from krobust.oracle import exhaustive_robcov, minimax_opt

from conftest import (check_floor, cost_guesses, floor_cases, record_scales,
                      scaled_candidates)

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


def test_preprocess_guess_can_be_infeasible(monkeypatch):
    g = WeightedGraph.build(3, [(0, 1, 100), (1, 2, 1)], root=0)
    sched = Schedule.of([2, 1], [1, 2])
    # guessing the cheap edge as costliest contracts vertex 1 into the root,
    # so the root's costliest edge is the floor, and the driver never
    # scales under that guess
    assert g.scaling_floor() == 100 and g.edge_by_id(1).cost < 100
    scaled = record_scales(monkeypatch)
    solve_thrifty(MINCUT, g, sched, F(50), True)
    assert [pre.f_guess for pre in scaled] == [0]
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


def test_preprocess_contraction_moves_the_root(monkeypatch):
    g = WeightedGraph.build(3, [(1, 0, 100), (1, 2, 1)], root=0)
    sched = Schedule.of([2, 1], [1, 2])
    # contracting the pricey edge merges the root into vertex 1
    assert preprocess_cost_scaling(g, sched, 1, 2).graph.root == 1
    with pytest.raises(Infeasible, match="vertex 1 is only separable"):
        _scale_reference(g, sched, 1, 2)
    assert g.edge_by_id(1).cost < g.scaling_floor()
    scaled = record_scales(monkeypatch)
    plan, report = solve(g, sched, preprocess=True)
    assert [pre.f_guess for pre in scaled] == [0]
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


def _costliest_prepays(g):
    """g with its root edges at cost 1, its other edges at costs 2 to
    n^2 - 1 by id, and the first of those at n^3: the costliest guess
    prepays, and each cheaper one contracts edges and prepays none."""
    n2, edges, top = g.n * g.n, [], None
    for e in g.edges:
        if g.root in (e.u, e.v):
            cost = 1
        elif top is None:
            top = cost = n2 * g.n
        else:
            cost = 2 + e.eid % (n2 - 2)
        edges.append((e.u, e.v, cost))
    return WeightedGraph.build(g.n, edges, g.root)


def test_scaled_graphs_share_exact_root_cuts(monkeypatch):
    # every cut a preprocessed solve's scaled graph inherits from the
    # instance is the scaled graph's own, also when the costliest guess
    # prepaid and so left the instance's memo empty
    scaled = []

    def recorded(*args):
        pre = scale(*args)
        scaled.append((pre, args[0], dict(pre.graph._memo)))
        return pre

    scale = graphcore.preprocess_cost_scaling
    monkeypatch.setattr(graphcore, "preprocess_cost_scaling", recorded)
    cases = _scaling_cases()
    shared, skipped, prepaid = [0, 0], 0, 0
    for i, (g, schedule) in enumerate(
            cases + [(_costliest_prepays(g), s) for g, s in cases[::4]]):
        # a contracted payload has fewer units than its schedule's k[0]
        units, late = len(units_of(g)), i >= len(cases)
        solve_thrifty(MINCUT, g, Schedule.of(
            [min(k, units) for k in schedule.k], schedule.lam), None, True)
        for pre, work, memo in scaled:
            h = pre.graph
            if h is work:   # nothing scaled: the instance's memo is its own
                continue
            singles = 0
            for (fn, root, terminals), result in memo.items():
                assert fn.__name__ == "min_cut"
                assert fn(replace(h), root, terminals) == result, terminals
                singles += len(terminals) == 1
            shared[late] += len(memo)
            if not pre.prepaid.ids:
                skipped += len(set(_reps(h, h.root).values())) - singles
            prepaid += bool(pre.prepaid.ids)
        scaled.clear()
    assert shared[0] > 50 and skipped > 10 and prepaid > 10, (
        shared, skipped, prepaid)
    assert shared[1] > 200, shared


def test_scaling_any_guess_shares_only_cuts_named_in_its_own_vertices():
    # a guess below the floor may merge the root or a terminal into
    # another vertex; an instance cut keyed by it is not the scaled graph's.
    # The plain grid at beta = 1 fills the instance memo, day-0 net cuts of
    # several terminals too, and one of those is shared
    moved = WeightedGraph.build(3, [(1, 0, 100), (1, 2, 1)], root=0)
    shared = nets = 0
    for g, schedule in _scaling_cases() + [(moved, Schedule.of([2, 1],
                                                               [1, 2]))]:
        _candidates(KINDS[MINCUT], g, schedule, F(1))
        for f in cost_guesses(g):
            h = preprocess_cost_scaling(g, schedule, f, 2).graph
            if h is g:
                continue
            for (fn, root, terminals), result in h._memo.items():
                assert fn(replace(h), root, terminals) == result, terminals
                nets += len(terminals) > 1
            shared += len(h._memo)
    assert shared > 100 and nets >= 1, (shared, nets)


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
    # refusals read off a copy, whose memo the scaling below does not see
    feasible = [f for f in cost_guesses(work) if _refusal(
        _scale_reference, replace(work), inst.schedule, f, 2) is None]
    scaled, computed = [], []
    cut, scale = mincut.min_cut, graphcore.preprocess_cost_scaling

    def counted_cut(h, root, terminals):
        terminals = frozenset(terminals)
        if len(terminals) == 1 and cut.peek(h, root, terminals) is None:
            computed.append((*terminals, cut(h, root, terminals)))
        return cut(h, root, terminals)

    def counted_scale(*args):
        scaled.append(args[2])
        return scale(*args)

    monkeypatch.setattr(mincut, "min_cut", counted_cut)
    monkeypatch.setattr(graphcore, "min_cut", counted_cut)
    monkeypatch.setattr(graphcore, "preprocess_cost_scaling", counted_scale)
    solve(g, inst.schedule, preprocess=True)
    # costliest guess first
    assert scaled == feasible[::-1] and len(feasible) < len(cost_guesses(work))
    own = [(r, result) for r, result in computed
           if result == cut(work, work.root, [r])]
    assert len(own) == len(set(r for r, _ in own)) == len(units_of(g))
