"""Thrifty Steiner tree and Steiner forest solvers, and their net builders."""

from fractions import Fraction

import pytest

from krobust import graphcore
from krobust.errors import Disconnected, TrivialInstance
from krobust.fixtures import gen_random
from krobust.graphcore import UnionFind, WeightedGraph, shortest_paths, zero_edges
from krobust.model import STEINERFOREST, STEINERTREE, ProblemInstance, Schedule
from krobust.oracle import opt_bounds
from krobust.steiner import (
    ball_packing_net,
    sfnet_build,
    solve_forest,
    solve_tree,
    thrifty_forest_plan,
    thrifty_tree_plan,
)
from conftest import forest_net_runs

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
