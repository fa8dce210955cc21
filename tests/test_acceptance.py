"""Acceptance criteria: one test per contract line, pinned exact values.

Each test name is the pass/fail line; shared instance batches come from
conftest (100 seeded instances per problem kind, n <= 6, actions <= 10,
T <= 3).
"""

import random
import statistics
import time
from fractions import Fraction

import pytest

from krobust.fixtures import gen_lowerbound_allstages, gen_random, gen_subset_krobust_bad
from krobust.graphcore import (
    UnionFind,
    gw_steiner_forest,
    min_cut,
    mst_steiner_tree,
    preprocess_cost_scaling,
    shortest_paths,
)
from krobust.mincut import solve as solve_cut
from krobust.model import KINDS, MINCUT, STEINERFOREST, STEINERTREE
from krobust.oracle import (
    SizeLimits,
    check_plan_feasible,
    exact_min,
    exhaustive_robcov,
    minimax_opt,
    partwise_minimax,
    scripted_worst_case,
)
from krobust.steiner import sfnet_build, solve_forest, solve_tree
from conftest import forest_net_runs, solve_instance

F = Fraction
WIDE = SizeLimits(max_units=64, max_actions=12, max_horizon=9)


@pytest.fixture(scope="session")
def oracle_values(tiny_batches):
    return {kind: [minimax_opt(inst)[0] for inst in insts]
            for kind, insts in tiny_batches.items()}


def test_criterion_1_adaptive_optimum_needs_every_day():
    started = time.perf_counter()
    inst = gen_lowerbound_allstages(2, F(2, 5))
    opt, trace = minimax_opt(inst)
    assert opt == F(49, 25)
    bought_on = set()
    stack = [trace]
    while stack:
        node = stack.pop()
        if node.purchase:
            bought_on.add(node.day)
        stack.extend(child for _, child in node.children)
    # some adversary line makes the optimal strategy buy on each day 1..T
    assert bought_on >= {1, 2}
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    print(f"\n  optimum 49/25, purchases on days {sorted(bought_on)}, "
          f"{elapsed:.2f}s")


def test_criterion_2_few_active_days_forces_overpay():
    started = time.perf_counter()
    follow4 = gen_subset_krobust_bad(2, 4)
    # the follow-along strategy, active every day, pays exactly T = 2
    assert scripted_worst_case(follow4) == 2
    small = gen_subset_krobust_bad(2, 3)
    parts = small.uncertainty.parts
    assert partwise_minimax(small.payload, small.schedule, parts) == 2
    for skipped in (1, 2):
        value = partwise_minimax(small.payload, small.schedule, parts,
                                 inactive_days=(skipped,))
        # silencing either revelation day doubles the bill
        assert value == 4
    # in general the optimum is T, and silencing revelation day d makes
    # part d cost lam (prepaid whole, or its survivor a day late)
    for lam, horizons in ((2, range(1, 9)), (3, range(1, 6))):
        for T in horizons:
            inst = gen_subset_krobust_bad(T, lam)
            args = inst.payload, inst.schedule, inst.uncertainty.parts
            assert partwise_minimax(*args) == scripted_worst_case(inst) == T
            assert partwise_minimax(*args, inactive_days=(0,)) == T
            for skipped in range(1, T + 1):
                assert partwise_minimax(*args, inactive_days=(skipped,)) \
                    == T - 1 + lam
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    print(f"\n  follow-along 2, one-day-silent optimum 4, {elapsed:.2f}s")


def test_criterion_3_plans_feasible_on_all_batches(solved_batches):
    for kind, rows in solved_batches.items():
        assert len(rows) == 100
        for inst, plan, _ in rows:
            assert check_plan_feasible(inst, plan, WIDE), (kind, inst)
    print("\n  400/400 plans cover every reachable scenario")


def test_criterion_4_ratio_bounds_hold(solved_batches, oracle_values):
    medians = {}
    for kind, rows in solved_batches.items():
        ratios = []
        for (inst, plan, report), opt in zip(rows, oracle_values[kind]):
            assert opt > 0
            ratio = report.robcov / opt
            bound = KINDS[kind].ratio_bound(inst.payload, inst.schedule)
            assert ratio <= bound, (kind, inst, ratio, bound)
            ratios.append(ratio)
        medians[kind] = statistics.median(ratios)
    summary = ", ".join(f"{k}={float(v):.3f}" for k, v in medians.items())
    print(f"\n  median algo/opt per kind: {summary}")


def test_criterion_5_primitives_match_exhaustive_search():
    rng = random.Random(20)
    for seed in range(100):
        n = 3 + seed % 4
        g = gen_random(MINCUT, n, max(n - 1, 5 + seed % 5), 1, seed).payload
        for v in range(1, g.n):
            assert min_cut(g, 0, [v])[0] == exact_min(MINCUT, g, [v], WIDE)
        joint = min_cut(g, 0, range(1, g.n))[0]
        assert joint == exact_min(MINCUT, g, range(1, g.n), WIDE)
    for seed in range(100):
        n = 3 + seed % 4
        g = gen_random(STEINERTREE, n, max(n - 1, 6 + seed % 7), 1,
                       seed).payload
        terms = set(rng.sample(range(g.n), rng.randint(2, g.n)))
        es = mst_steiner_tree(g, terms)
        uf = UnionFind(g.n)
        for eid in es.ids:
            e = g.edge_by_id(eid)
            uf.union(e.u, e.v)
        t0 = next(iter(terms))
        assert all(uf.find(t) == uf.find(t0) for t in terms)
        assert es.cost <= 2 * exact_min(STEINERTREE, g, terms, WIDE)
    for seed in range(100):
        n = 3 + seed % 4
        inst = gen_random(STEINERFOREST, n, max(n - 1, 6 + seed % 7), 1, seed)
        g = inst.payload
        es = gw_steiner_forest(g, g.pairs)
        uf = UnionFind(g.n)
        for eid in es.ids:
            e = g.edge_by_id(eid)
            uf.union(e.u, e.v)
        assert all(uf.find(p.s) == uf.find(p.t) for p in g.pairs)
        assert es.cost <= 2 * exact_min(STEINERFOREST, g, inst.units(), WIDE)
    print("\n  cut=exact on 100, tree and forest feasible within 2x on 100 each")


def test_criterion_6_forest_net_structure(tiny_batches):
    # the grid runs, plus quarter-edge-cost gammas that pick several pairs
    checked = 0
    for g, gamma in forest_net_runs(tiny_batches[STEINERFOREST]):
        built = sfnet_build(g, g.pairs, gamma)
        assert built.sr == built.sg | built.so | built.sb
        assert built.net == built.sg | built.so
        assert len(built.sb) <= len(built.net)
        assert len(built.sf_links) <= 2 * len(built.net)
        by_pid = {p.pid: p for p in g.pairs}
        for pid in built.sr:
            p = by_pid[pid]
            dist, _ = shortest_paths(g, [p.s])
            assert dist[p.t] > 4 * gamma
        if built.net:
            assert (exact_min(STEINERFOREST, g, built.net, WIDE)
                    >= len(built.net) * gamma)
        checked += 1
    assert checked >= 100
    print(f"\n  net structure verified on {checked} (instance, gamma) runs")


def test_criterion_7_evaluation_is_exact_or_upper(solved_batches):
    exact = upper = 0
    for kind, rows in solved_batches.items():
        for inst, plan, report in rows:
            ex = exhaustive_robcov(inst, plan, WIDE)
            if report.conservative:
                assert report.robcov >= ex
                upper += 1
            else:
                assert report.robcov == ex
                exact += 1
    print(f"\n  {exact} exact evaluations, {upper} sound upper bounds")


def test_criterion_8_preprocessing_postconditions(tiny_batches):
    band_checked = 0
    for kind, solver in ((MINCUT, solve_cut),
                         (STEINERTREE, solve_tree),
                         (STEINERFOREST, solve_forest)):
        for inst in tiny_batches[kind][:25]:
            g, sched = inst.payload, inst.schedule
            plain = solver(g, sched)[1]
            pre = solver(g, sched, preprocess=True)[1]
            assert pre.robcov <= 4 * plain.robcov
            band_checked += 1
        for inst in tiny_batches[kind][:10]:
            g, sched = inst.payload, inst.schedule
            for cost in sorted({e.cost for e in g.edges}):
                eid = min(e.eid for e in g.edges if e.cost == cost)
                res = preprocess_cost_scaling(g, sched, eid)
                priced = [e.cost for e in res.graph.edges if e.cost > 0]
                if priced:
                    assert max(priced) / min(priced) <= g.n * g.n
                assert F(2) ** res.schedule.horizon <= res.schedule.lam[-1] or \
                    res.schedule.horizon == 0
                assert res.kept_days[0] == 0
                assert res.kept_days == tuple(sorted(res.kept_days))
                assert all(0 <= d <= sched.horizon for d in res.kept_days)
    assert band_checked == 75
    print(f"\n  {band_checked} preprocessed solves within the 4x band")
