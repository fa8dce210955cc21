"""Thrifty Steiner tree and Steiner forest solvers, and their net builders."""

import functools
import hashlib
import math
import random
from collections import Counter, defaultdict
from dataclasses import replace
from fractions import Fraction

import pytest

from krobust import graphcore, steiner
from krobust.errors import (Disconnected, Infeasible, InvariantViolation,
                            TrivialInstance)
from krobust.fixtures import gen_random
from krobust.graphcore import (EdgeSet, UnionFind, WeightedGraph,
                               gw_steiner_forest, mst_steiner_tree,
                               shortest_paths, spanning_forest, zero_edges)
from krobust.model import (KINDS, MINCUT, STEINERFOREST, STEINERTREE,
                           ProblemInstance, Schedule, solve_thrifty)
from krobust.oracle import opt_bounds
from krobust.steiner import (
    SfnetResult,
    ball_packing_net,
    sfnet_build,
    solve_forest,
    solve_tree,
    thrifty_forest_plan,
    thrifty_tree_plan,
)
from conftest import (check_floor, cost_guesses, floor_cases, forest_net_runs,
                      grid_plans, scaled_candidates)

F = Fraction


def _path(n):
    return WeightedGraph.build(n, [(i, i + 1, 1) for i in range(n - 1)])


def test_ball_packing_net_radius_sweep():
    g = _path(3)
    assert ball_packing_net(g, F(0)) == frozenset({0, 1, 2})
    assert ball_packing_net(g, F(1)) == frozenset({0, 2})
    assert ball_packing_net(g, F(2)) == frozenset({0})
    with pytest.raises(ValueError):
        ball_packing_net(g, F(-1))


def test_ball_packing_net_unreachable_is_far():
    g = WeightedGraph.build(4, [(0, 1, 1), (2, 3, 1)])
    assert ball_packing_net(g, F(10)) == frozenset({0, 2})


# Thresholds are compared cross-multiplied (d * q against p for p/q); each
# is checked at a distance equal to it and 1/100 to either side, on a graph
# of thirds and halves and on its int-cost copy (costs times L = 6, the
# threshold with them).
EPS = F(1, 100)


def _thirds_and_halves(pairs=()):
    """The path 0 -7/3- 1 -5/2- 2: distances 7/3, 5/2 and 29/6."""
    return WeightedGraph.build(3, [(0, 1, F(7, 3)), (1, 2, F(5, 2))],
                               pairs=pairs)


def _at_and_beside(x):
    return (x - EPS, x, x + EPS)


def _reference_packing(g, radius):
    """ball_packing_net by its definition, on Fraction comparisons."""
    chosen = []
    for v in range(g.n):
        dv, _ = shortest_paths(g, [v])
        if all(c not in dv or F(dv[c]) > radius for c in chosen):
            chosen.append(v)
    return frozenset(chosen)


def test_ball_packing_net_at_the_radius():
    g = _thirds_and_halves()
    assert ball_packing_net(g, F(7, 3)) == frozenset({0, 2})
    assert ball_packing_net(g, F(7, 3) - EPS) == frozenset({0, 1, 2})
    for d in (F(7, 3), F(5, 2), F(29, 6)):
        for radius in _at_and_beside(d):
            want = _reference_packing(g, radius)
            for scale, h in ((1, g), g.integral()):
                assert ball_packing_net(h, radius * scale) == want, radius


def test_tree_plan_radius_invariant_at_the_radius(monkeypatch):
    # a net of vertex 0 alone leaves vertex 2 at 29/6: the plan holds at a
    # radius of 29/6 or more and raises below it
    monkeypatch.setattr(steiner, "ball_packing_net", lambda g, r: {0})
    g = _thirds_and_halves()
    sched = Schedule.of([3, 2], [1, 2])   # T = 1 and min lam*k = 3
    for scale, h in ((1, g), g.integral()):
        for radius in _at_and_beside(F(29, 6)):
            # radius = 4 T tau and tau = guess / 3 at beta = 1
            guess = radius * scale * 3 / 4
            # without edge 1-2, vertex 2 lies beyond every radius
            with pytest.raises(InvariantViolation, match="vertex 2"):
                thrifty_tree_plan(replace(h, edges=h.edges[:1]), sched, guess,
                                  F(1))
            if radius < F(29, 6):
                with pytest.raises(InvariantViolation):
                    thrifty_tree_plan(h, sched, guess, F(1))
            else:
                plan = thrifty_tree_plan(h, sched, guess, F(1))
                assert plan.residuals[2] == F(29, 6) * scale


def test_sfnet_picks_a_pair_only_beyond_four_gamma():
    g = _thirds_and_halves(pairs=[(0, 2)])
    for scale, h in ((1, g), g.integral()):
        for apart in _at_and_beside(F(29, 6)):
            built = sfnet_build(h, h.pairs, apart * scale / 4)
            assert built.sr == ({1} if apart < F(29, 6) else set()), apart


def test_sfnet_links_only_within_two_gamma():
    # both pairs are picked; pair 2's end 2 lies 7/3 from witness 0
    g = WeightedGraph.build(4, [(0, 1, 10), (0, 2, F(7, 3)), (2, 3, 10)],
                            pairs=[(0, 1), (2, 3)])
    for scale, h in ((1, g), g.integral()):
        for near_by in _at_and_beside(F(7, 3)):
            built = sfnet_build(h, h.pairs, near_by * scale / 2)
            assert built.sr == {1, 2}
            assert built.sf_links == (
                ((2, 0),) if near_by > F(7, 3) else ()), near_by


def test_forest_plan_radius_invariant_at_four_gamma(monkeypatch):
    # with nothing bought on day 0 the pair's residual is its distance 29/6
    monkeypatch.setattr(steiner, "sfnet_build", lambda g, pairs, gamma: (
        SfnetResult(gamma, *[frozenset()] * 5, (), frozenset(),
                    EdgeSet.empty())))
    g = _thirds_and_halves(pairs=[(0, 2)])
    sched = Schedule.of([1, 1], [1, 2])   # T = 1 and min lam*k = 1
    for scale, h in ((1, g), g.integral()):
        for apart in _at_and_beside(F(29, 6)):
            # 4 gamma = 8 T tau and tau = guess at beta = 1
            guess = apart * scale / 8
            # without edge 1-2, the pair lies beyond every 4 gamma
            with pytest.raises(InvariantViolation, match="pair 1"):
                thrifty_forest_plan(replace(h, edges=h.edges[:1]), sched,
                                    guess, F(1))
            if apart < F(29, 6):
                with pytest.raises(InvariantViolation):
                    thrifty_forest_plan(h, sched, guess, F(1))
            else:
                plan = thrifty_forest_plan(h, sched, guess, F(1))
                assert plan.residuals[1] == F(29, 6) * scale


def test_tree_plan_values():
    g = _path(3)
    sched = Schedule.of([3, 2], [1, 2])
    plan = thrifty_tree_plan(g, sched, F(2))
    assert plan.net == frozenset({0})
    assert plan.day0_purchase == () and plan.day0_cost == 0
    assert plan.residuals == {0: 0, 1: 1, 2: 2}
    assert plan.residual_actions == {0: (), 1: (0,), 2: (0, 1)}
    assert plan.critical_day == 0


def test_tree_plan_rejects_trivial_and_disconnected():
    with pytest.raises(TrivialInstance):
        thrifty_tree_plan(_path(3), Schedule.of([3, 1], [1, 2]), F(2))
    g = WeightedGraph.build(3, [(0, 1, 1)])
    with pytest.raises(Disconnected):
        thrifty_tree_plan(g, Schedule.of([3, 2], [1, 2]), F(1))


def test_sfnet_two_clusters_with_all_linked_pair():
    # clusters {0,1} and {2,3} are far apart; both endpoints of pair 3 sit
    # next to witnesses from different clusters, so it is picked (quotient
    # distance stays large) yet contributes no witness of its own
    edges = [(0, 1, 5), (2, 3, 5), (1, 2, 100), (0, 4, 1), (2, 5, 1)]
    g = WeightedGraph.build(6, edges, pairs=[(0, 1), (2, 3), (4, 5)])
    r = sfnet_build(g, g.pairs, F(1))
    assert r.sr == frozenset({1, 2, 3})
    assert r.sg == frozenset({1, 2})
    assert r.so == frozenset()
    assert r.sb == frozenset({3})
    assert r.sf_links == ((4, 0), (5, 2))
    assert r.witnesses == frozenset({0, 1, 2, 3})
    assert r.net == frozenset({1, 2})
    assert len(r.sb) <= len(r.net)
    assert len(r.sf_links) <= 2 * len(r.net)
    # day-0 edges realize the picked pairs and both links
    assert r.e_alg.ids == frozenset({0, 1, 2, 3, 4})


def test_sfnet_half_linked_pair():
    edges = [(0, 1, 5), (2, 3, 5), (1, 2, 100), (0, 4, 1), (3, 6, 10)]
    g = WeightedGraph.build(7, edges, pairs=[(0, 1), (2, 3), (4, 6)])
    r = sfnet_build(g, g.pairs, F(1))
    assert r.so == frozenset({3}) and r.sb == frozenset()
    assert r.net == frozenset({1, 2, 3})
    assert r.sf_links == ((4, 0),)


def test_sfnet_gamma_zero_picks_everything():
    g = _path(4)
    gp = WeightedGraph.build(4, [(i, i + 1, 1) for i in range(3)],
                             pairs=[(0, 3), (1, 2)])
    r = sfnet_build(gp, gp.pairs, F(0))
    assert r.sr == frozenset({1, 2})
    assert r.sf_links == ()
    with pytest.raises(ValueError):
        sfnet_build(g, (), F(-1))


def test_forest_plan_values():
    g = WeightedGraph.build(4, [(i, i + 1, 1) for i in range(3)],
                            pairs=[(0, 3), (1, 2)])
    sched = Schedule.of([2, 1], [1, 2])
    plan = thrifty_forest_plan(g, sched, F(3))
    assert plan.net == frozenset()
    assert plan.day0_purchase == ()
    assert plan.residuals == {1: 3, 2: 1}
    assert plan.residual_actions == {1: (0, 1, 2), 2: (1,)}


def test_forest_plan_disconnected():
    g = WeightedGraph.build(4, [(0, 1, 1), (2, 3, 1)], pairs=[(0, 2)])
    with pytest.raises(Disconnected):
        thrifty_forest_plan(g, Schedule.of([1, 1], [1, 2]), F(1))


def test_solve_tree_path():
    plan, report = solve_tree(_path(3), Schedule.of([3, 2], [1, 2]))
    assert report.robcov == 3
    assert plan.guess == 2
    assert report.witness == (2, 1)
    # preprocessing cannot change anything on a uniform-cost path
    plan2, report2 = solve_tree(_path(3), Schedule.of([3, 2], [1, 2]),
                                preprocess=True)
    assert report2.robcov == 3
    assert plan2.preprocess_f == 0


def test_solve_tree_trivial_and_disconnected():
    _, report = solve_tree(_path(3), Schedule.of([3, 1], [1, 2]))
    assert report.robcov == 0
    g = WeightedGraph.build(3, [(0, 1, 1)])
    with pytest.raises(Disconnected):
        solve_tree(g, Schedule.of([3, 2], [1, 2]))


def test_solve_forest_path():
    g = WeightedGraph.build(4, [(i, i + 1, 1) for i in range(3)],
                            pairs=[(0, 3), (1, 2)])
    plan, report = solve_forest(g, Schedule.of([2, 1], [1, 2]))
    assert report.robcov == 4
    assert report.witness == (1, 2)
    _, trivial = solve_forest(g, Schedule.of([2, 0], [1, 2]))
    assert trivial.robcov == 0


def test_solve_forest_preprocess():
    g = WeightedGraph.build(4, [(0, 1, 1), (1, 2, 50), (2, 3, 1)],
                            pairs=[(0, 1), (2, 3)])
    plain_plan, plain = solve_forest(g, Schedule.of([2, 1], [1, 2]))
    plan, report = solve_forest(g, Schedule.of([2, 1], [1, 2]),
                                preprocess=True)
    assert report.robcov <= plain.robcov
    assert plan.preprocess_f is not None


def _has_bounds(kind, g, schedule, f):
    """Whether the graph cost-scaled under edge f has both grid bounds:
    the build-then-check reference for the tree's and forest's floor."""
    pre = graphcore.preprocess_cost_scaling(g, schedule, f, 2)
    try:
        KINDS[kind].lower(pre.graph)
        KINDS[kind].cover_all(pre.graph)
    except Disconnected:
        return False
    return True


@pytest.mark.parametrize("kind", [STEINERTREE, STEINERFOREST])
def test_scaling_floor_decides_every_guess(kind):
    # the floor is where a Kruskal sweep joins the last pair: every guess
    # below it leaves a pair apart, none at or above it does, and a graph
    # whose edges never join every pair has none
    refused = nowhere = 0
    for g, schedule in floor_cases(kind):
        refused += check_floor(g, lambda f: _has_bounds(kind, g, schedule, f))
        nowhere += g.scaling_floor() is None
    assert refused > 500 and nowhere > 10


@pytest.mark.parametrize("kind", [STEINERTREE, STEINERFOREST])
@pytest.mark.parametrize("seed", range(1, 4))
def test_cost_scaling_builds_no_graph_it_refuses(monkeypatch, kind, seed):
    # a guess below the floor is refused before preprocess_cost_scaling
    inst = gen_random(kind, 16, 48, 3, seed)
    g = replace(inst.payload)
    work = g.integral()[1]
    feasible = [f for f in cost_guesses(work)
                if _has_bounds(kind, work, inst.schedule, f)]
    scaled = []
    scale = graphcore.preprocess_cost_scaling

    def counted(*args):
        scaled.append(args[2])
        return scale(*args)

    monkeypatch.setattr(graphcore, "preprocess_cost_scaling", counted)
    KINDS[kind].solve(g, inst.schedule, None, True)
    # costliest guess first
    assert scaled == feasible[::-1] and len(feasible) < len(cost_guesses(work))


def test_a_graph_without_floor_scales_no_guess(monkeypatch):
    # no cost joins vertex 0 with vertex 2, or pair 2's ends: every guess
    # is refused unscaled, and the plain grid raises the instance's error
    edges = [(0, 1, 1), (2, 3, 2), (0, 1, 3)]
    tree = WeightedGraph.build(4, edges)
    forest = WeightedGraph.build(4, edges, pairs=[(0, 1), (1, 2)])
    monkeypatch.setattr(graphcore, "preprocess_cost_scaling", None)
    for kind, g, k, error in [(STEINERTREE, tree, 4, "vertices 0 and 2"),
                              (STEINERFOREST, forest, 2, "pair 2 cannot")]:
        sched = Schedule.of([k, 2], [1, 2])
        assert g.scaling_floor() is None
        for f in range(len(edges)):
            with pytest.raises(Infeasible, match=f"edge {f} leaves a unit"):
                scaled_candidates(kind, g, sched, f, None, 2)
        with pytest.raises(Disconnected, match=error):
            KINDS[kind].solve(g, sched, None, True)


@pytest.mark.parametrize("seed", range(5))
def test_forest_solve_shares_its_memo_with_opt_bounds(monkeypatch, seed):
    # the solver reads the graph's own pairs, so the grid bounds it
    # computed are memoised on the graph that opt_bounds is given
    inst = gen_random(STEINERFOREST, 8, 16, 2, seed)
    g, sched = inst.payload, inst.schedule
    solve_forest(g, sched)
    searches = []
    search = graphcore._dijkstra

    def counted(*args):
        searches.append(args[1])
        return search(*args)

    monkeypatch.setattr(graphcore, "_dijkstra", counted)
    opt_bounds(ProblemInstance(STEINERFOREST, g, sched))
    assert searches == []


def _spread(g):
    """A copy with every third edge's cost times n^3: the costliest edge
    costs more than n^2 times the cheapest, so cheap guesses prepay."""
    return WeightedGraph.build(g.n, [
        (e.u, e.v, e.cost * g.n ** 3 if e.eid % 3 == 0 else e.cost)
        for e in g.edges], g.root, [p[:2] for p in g.pairs])


# the instance results a scaled Steiner graph may inherit
SHARED = (shortest_paths, spanning_forest, graphcore._gw_forest)


@pytest.mark.parametrize("kind", [STEINERTREE, STEINERFOREST])
def test_scaled_graphs_share_exact_searches_trees_and_forests(kind):
    # every search, spanning tree and GW run that a guess shares from the
    # instance is the scaled graph's own, and a guess that prepays edges
    # shares nothing
    spec = KINDS[kind]
    inherited = refused = prepaid = 0
    for g, schedule in floor_cases(kind):
        for h in (g, _spread(g)):
            floor = h.scaling_floor()
            if floor is None:
                continue
            grid_plans(spec, h, schedule, None)
            own = sum(len(fn.entries(h)) for fn in SHARED)
            for f in cost_guesses(h):
                if h.edge_by_id(f).cost < floor:
                    continue
                pre = graphcore.preprocess_cost_scaling(h, schedule, f, 2)
                if pre.graph is h:   # nothing scaled: the memo is its own
                    continue
                for (fn, *args), result in pre.graph._memo.items():
                    assert fn(replace(pre.graph), *args) == result, args
                if pre.prepaid.ids:
                    assert not pre.graph._memo
                    prepaid += 1
                else:
                    inherited += len(pre.graph._memo)
                    refused += own - len(pre.graph._memo)
    assert inherited > 2000 and refused > 600 and prepaid > 1000, (
        inherited, refused, prepaid)


def test_scaled_graphs_refuse_runs_that_used_a_deleted_edge():
    # guessing c_f = 1 deletes every edge above 1.  The search from vertex
    # 0 reaches vertex 2 at distance 2 both over edge 0 and over edges 1
    # and 2, and keeps edge 0, which came first: the scaled graph's search
    # has the same distances but another pred.  The search from vertex 1
    # and the spanning tree use edges of cost c_f only, so they are kept.
    tree = WeightedGraph.build(3, [(0, 2, 2), (0, 1, 1), (1, 2, 1)])
    for v in range(3):
        shortest_paths(tree, [v])
    spanning_forest(tree)
    h = graphcore.preprocess_cost_scaling(tree, Schedule.of([3, 2], [1, 2]),
                                          1, 2).graph
    assert {fn.__name__: args for (fn, *args) in h._memo} == {
        "shortest_paths": [frozenset({1})], "spanning_forest": []}
    assert shortest_paths(h, [0])[0] == shortest_paths(tree, [0])[0]
    assert shortest_paths(h, [0]) != shortest_paths(tree, [0])
    # GW merges edge 8 (cost 3/2), which activates vertex 2 early, so pair
    # 1 joins over edges 0-3 while pair 2 still grows; edge 8 is on no
    # pair's path and reverse delete drops it.  Without it, pair 1 joins
    # over edges 4-7.  Every edge either forest keeps costs at most c_f.
    forest = WeightedGraph.build(13, [
        (0, 5, 1), (5, 2, 1), (2, 6, 1), (6, 1, 1),
        (0, 7, 1), (7, 8, F(7, 8)), (8, 9, F(7, 8)), (9, 1, 1),
        (3, 2, F(3, 2)), (3, 10, 1), (10, 11, 1), (11, 12, 1), (12, 4, 1)],
        pairs=[(0, 1), (3, 4)])
    want = gw_steiner_forest(forest, forest.pairs)
    h = graphcore.preprocess_cost_scaling(
        forest, Schedule.of([2, 1], [1, 2]), 0, 2).graph
    assert h.edges == forest.edges[:8] + forest.edges[9:] and not h._memo
    got = gw_steiner_forest(h, h.pairs)
    assert want.ids == {0, 1, 2, 3, 9, 10, 11, 12}
    assert got.ids == {4, 5, 6, 7, 9, 10, 11, 12}


@pytest.mark.parametrize("kind", [STEINERTREE, STEINERFOREST])
def test_preprocessed_solves_search_once_and_attach_once_per_net(
        monkeypatch, kind):
    # over seeds 1-3 the tree (forest) solves once ran 111 (191) Dijkstra
    # searches, 0 (124) GW runs and 51 (93) residual phases, one per plan,
    # for 18 (31) distinct graphs and nets (day-0 purchases for the forest).
    # The grid stops at its first empty day-0 plan, so each residual phase,
    # which zeroes the day-0 edges once, runs once per graph and purchase
    runs, calls = Counter(), defaultdict(list)
    search = graphcore._dijkstra

    def counted(*args):
        runs["searches"] += 1
        return search(*args)

    def missed(module, name):
        fn = getattr(module, name)

        @functools.wraps(fn)
        def wrapped(g, *args):
            calls[name].append((g, args))
            runs[name] += fn.peek(g, *args) is None
            return fn(g, *args)

        monkeypatch.setattr(module, name, wrapped)

    def zeroed(g, ids):
        calls["phases"].append((g, frozenset(ids)))
        return graphcore.zero_edges(g, ids)

    monkeypatch.setattr(graphcore, "_dijkstra", counted)
    missed(graphcore, "_gw_forest")
    monkeypatch.setattr(steiner, "zero_edges", zeroed)
    for seed in range(1, 4):
        inst = gen_random(kind, 16, 48, 3, seed)
        solve_thrifty(kind, inst.payload, inst.schedule, None, True)
    phases = len(calls["phases"])
    assert len({(id(g), ids) for g, ids in calls["phases"]}) == phases, runs
    bound = {STEINERTREE: (63, 0, 18), STEINERFOREST: (67, 3, 31)}[kind]
    assert all(x <= b for x, b in zip(
        (runs["searches"], runs["_gw_forest"], phases), bound)), runs


def _pinned_copies(g):
    """The graph, a copy with costs ceil(c) mod 3 (ties and zero costs),
    one with every second edge and the spread copy."""
    edges = [(e.u, e.v, e.cost) for e in g.edges]
    pairs = [p[:2] for p in g.pairs]
    tied = [(u, v, math.ceil(c) % 3) for u, v, c in edges]
    yield g
    for es in (tied, edges[::2]):
        yield WeightedGraph.build(g.n, es, g.root, pairs)
    yield _spread(g)


@pytest.mark.parametrize("kind,digest", [
    (MINCUT, "8ea5a9ad5f6fe130f60789cfee50179f"
             "bab22d97a6e5e2a3e7c1c0cd1ac0952a"),
    (STEINERTREE, "1b18b643af2406d1d9fc0884e44a057c"
                  "9000766995d1c00b9f5a1e8628bae383"),
    (STEINERFOREST, "b24c583c9f4559e8c048897df9439188"
                    "10325f3ebdad1592cf818df423377931")])
def test_preprocessed_solves_are_pinned(kind, digest):
    # the sha256 of every preprocessed solve's repr, or its error, on 192
    # solves per kind: n = 5-12, seeds 1-3, four copies, two betas
    out = []
    for n in range(5, 13):
        for seed in range(1, 4):
            inst = gen_random(kind, n, 3 * n, 1 + seed % 3, seed)
            for g in _pinned_copies(inst.payload):
                for beta in (None, F(1)):
                    try:
                        out.append(repr(solve_thrifty(
                            kind, g, inst.schedule, beta, True)))
                    except Exception as exc:
                        out.append(f"{type(exc).__name__}: {exc}")
    assert len(out) == 192
    assert hashlib.sha256("\n".join(out).encode()).hexdigest() == digest


def test_plan_invariants_on_random_batches(solved_batches):
    for kind in (STEINERTREE, STEINERFOREST):
        for inst, plan, report in solved_batches[kind]:
            g = inst.payload
            if report.robcov == 0:
                continue
            day0 = set(plan.day0_purchase)
            zeroed = zero_edges(g, day0)
            for u, acts in plan.residual_actions.items():
                assert not (set(acts) & day0)
                assert plan.residuals[u] == sum(
                    (g.edge_by_id(e).cost for e in acts), F(0))
            if kind == STEINERTREE:
                dist, _ = shortest_paths(zeroed, plan.net)
                for v in range(g.n):
                    assert plan.residuals[v] == dist[v]


def _identified_distances(g, joined):
    """All-pairs distances between the union-find classes of the joined
    vertex pairs, by Floyd-Warshall; unreachable classes are absent."""
    uf = UnionFind(g.n)
    for a, b in joined:
        uf.union(a, b)
    dist = {(r, r): F(0) for r in {uf.find(v) for v in range(g.n)}}
    for e in g.edges:
        ru, rv = uf.find(e.u), uf.find(e.v)
        if ru != rv and dist.get((ru, rv), e.cost) >= e.cost:
            dist[ru, rv] = dist[rv, ru] = e.cost
    roots = sorted({r for r, _ in dist})
    for k in roots:
        for i in roots:
            for j in roots:
                if (i, k) in dist and (k, j) in dist:
                    via = dist[i, k] + dist[k, j]
                    if dist.get((i, j), via) >= via:
                        dist[i, j] = via
    return lambda s, t: dist.get((uf.find(s), uf.find(t)))


def test_sfnet_leaves_every_other_pair_within_4_gamma(tiny_batches):
    # once the picked pairs and the links are identified, no pair outside
    # sr is more than 4*gamma apart: the net is maximal
    runs = several = 0
    for g, gamma in forest_net_runs(tiny_batches[STEINERFOREST]):
        built = sfnet_build(g, g.pairs, gamma)
        joined = [(p.s, p.t) for p in g.pairs if p.pid in built.sr]
        dist = _identified_distances(g, joined + list(built.sf_links))
        for p in g.pairs:
            if p.pid not in built.sr:
                d = dist(p.s, p.t)
                assert d is not None and d <= 4 * gamma
        runs += 1
        several += len(built.sr) > 1
    assert runs >= 700 and several >= 100


def _all_pairs_tree_bounds(g):
    """Reference: the tree bounds from one search per vertex, and the MST
    Steiner tree on every vertex."""
    lb = 0
    for u in range(g.n):
        dist, _ = shortest_paths(g, [u])
        for v in range(u + 1, g.n):
            if v not in dist:
                raise Disconnected(f"vertices {u} and {v} are not connected")
            lb = max(lb, dist[v])
    ub = mst_steiner_tree(g, range(g.n))
    return lb, ub.cost, sorted(ub.ids)


def _all_pairs_net(g, radius):
    """Reference: the ball packing net from one search per vertex."""
    chosen = []
    for v in range(g.n):
        dv, _ = shortest_paths(g, [v])
        if all(u not in dv or dv[u] > radius for u in chosen):
            chosen.append(v)
    return frozenset(chosen)


def _odd_graph(seed):
    """Seeded multigraph on 1-10 vertices with costs 0-7 over 1-3: zero-cost
    and parallel edges, and a spanning tree only three times in four, so
    some graphs are disconnected; with a tree schedule."""
    rng = random.Random(seed)
    n = 1 + seed % 10
    den = rng.choice((1, 2, 3))
    ends = [(rng.randrange(v), v) for v in range(1, n) if seed % 4 != 3]
    extra = rng.randint(0, 2 * n) if n > 1 else 0
    ends += [tuple(rng.sample(range(n), 2)) for _ in range(extra)]
    ends += ends[:rng.randint(0, 2)]   # parallel copies
    g = WeightedGraph.build(n, [(u, v, F(rng.randint(0, 7), den))
                                for u, v in ends])
    T = rng.randint(1, 3)
    k = [n] + sorted((rng.randint(min(n, 2), n) for _ in range(T)),
                     reverse=True)
    lam = [1]
    for _ in range(T):
        lam.append(lam[-1] * rng.choice((1, 2, 3)))
    return g, Schedule.of(k, lam)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Disconnected as exc:
        return str(exc)


def test_tree_bounds_and_nets_match_all_pairs_search(monkeypatch):
    # the diameter from eccentricity bounds, the spanning tree by Kruskal
    # and the net searched from its members only give what one search per
    # vertex gave, and so does the whole solve
    seen = {"zero ub": 0, "disconnected": 0, "n = 1": 0, "parallel": 0}
    tree = KINDS[STEINERTREE]
    reference_kind = replace(
        tree, lower=lambda g: _all_pairs_tree_bounds(g)[0],
        cover_all=lambda g: _all_pairs_tree_bounds(g)[1:])
    for seed in range(200):
        g, sched = _odd_graph(seed)
        scale, work = g.integral()
        got = _outcome(lambda h: (tree.lower(h), *tree.cover_all(h)), work)
        want = _outcome(_all_pairs_tree_bounds, replace(work))
        if isinstance(want, str):
            assert got == want
            seen["disconnected"] += 1
            diam = 0
        else:
            lb, ub, ids = got
            assert (str(lb), str(ub)) == (str(want[0]), str(want[1]))
            if ub == 0:
                assert ids == want[2]
                seen["zero ub"] += 1
            diam = F(lb, scale)
        seen["n = 1"] += g.n == 1
        ends = {frozenset(e[:2]) for e in g.edges}
        seen["parallel"] += len(ends) < len(g.edges)
        for radius in (0, 1, F(5, 2), diam, diam + 1):
            assert (ball_packing_net(replace(g), F(radius))
                    == _all_pairs_net(replace(g), F(radius)))
        for preprocess in (False, True):
            got = _outcome(solve_tree, replace(g), sched, None, preprocess)
            with monkeypatch.context() as m:
                m.setitem(KINDS, STEINERTREE, reference_kind)
                m.setattr(steiner, "ball_packing_net", _all_pairs_net)
                want = _outcome(solve_tree, replace(g), sched, None,
                                preprocess)
            assert repr(got) == repr(want), (seed, preprocess)
    assert min(seen.values()) >= 10, seen


def test_tree_solve_searches_from_few_vertices():
    # the bounds and the nets search from a few vertices, not from each one
    inst = gen_random(STEINERTREE, 160, 480, 3, 1)
    solve_tree(inst.payload, inst.schedule)
    _, work = inst.payload.integral()
    searches = [args for fn, *args in work._memo
                if fn.__name__ == "shortest_paths"]
    assert 0 < len(searches) < work.n // 4
