"""Session-wide instance batches shared by the unit and acceptance tests."""

import math
from fractions import Fraction

import pytest

from itertools import pairwise

from krobust import graphcore
from krobust.errors import Infeasible
from krobust.fixtures import gen_random
from krobust.graphcore import UnionFind, WeightedGraph
from krobust.model import (KINDS, MINCUT, PROBLEM_KINDS, SETCOVER,
                           STEINERTREE, _reframe, argmin_stage, free_plan,
                           guess_grid, threshold_tau)
from krobust.oracle import opt_bounds
from krobust.setcover import elements_of

BATCH = 100


def solve_instance(inst):
    """Run the matching thrifty solver; returns (plan, report)."""
    return KINDS[inst.kind].solve(inst.payload, inst.schedule)


def set_pairs(system):
    """A SetSystem's sets as (members, cost) pairs in set id order, each
    members the frozenset decoded from its bitmask."""
    return tuple((frozenset(elements_of(mask)), cost)
                 for mask, cost in zip(system.masks, system.costs))


def separates(g, root, ids, targets):
    """Whether removing the listed edges leaves every target unreachable
    from the root: one graph search."""
    adj = g.adjacency()
    seen = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        if v in targets:
            return False
        for w, _, e in adj[v]:
            if e.eid not in ids and w not in seen:
                seen.add(w)
                stack.append(w)
    return True


def connects(g, ids, pairs):
    """Whether the listed edges join the two ends of every (s, t) pair."""
    uf = UnionFind(g.n)
    for eid in ids:
        e = g.edge_by_id(eid)
        uf.union(e.u, e.v)
    return all(uf.find(s) == uf.find(t) for s, t in pairs)


def covers(kind, payload, ids, units):
    """Whether the owned action ids cover the units, one boolean check at
    a time: the reference for each kind's cover table."""
    if kind == SETCOVER:
        owned = 0
        for sid in ids:
            owned |= payload.masks[sid]
        return all(owned >> u & 1 for u in units)
    if kind == MINCUT:
        return separates(payload, payload.root, ids, units)
    if kind == STEINERTREE:
        return connects(payload, ids, pairwise(sorted(units)))
    return connects(payload, ids,
                    [(p.s, p.t) for p in payload.pairs if p.pid in units])


def tiny_batch(kind, count=BATCH):
    """Seeded instances with n <= 6, actions <= 10, T <= 3."""
    out = []
    for seed in range(count):
        n = 3 + seed % 4
        actions = max(n - 1, 5 + seed % 6)
        horizon = 1 + seed % 3
        out.append(gen_random(kind, n, actions, horizon, seed))
    return out


def forest_net_runs(insts):
    """(graph, gamma) for every guess-grid run of the forest net builder,
    plus gammas of a quarter edge cost, small enough to pick several pairs
    and make links."""
    for inst in insts:
        g, sched = inst.payload, inst.schedule
        for gamma in sorted({e.cost / 4 for e in g.edges}):
            yield g, gamma
        if sched.k[sched.horizon] == 0:
            continue
        lb, ub = opt_bounds(inst)
        if ub == 0:
            continue
        for guess in guess_grid(lb, ub):
            yield g, 2 * sched.horizon * threshold_tau(guess, sched,
                                                       Fraction(10))


def cost_guesses(g):
    """The smallest edge id of each distinct cost, cheapest first: the
    guesses solve_thrifty tries under cost scaling."""
    first = {e.cost: e.eid for e in reversed(g.edges)}
    return [first[cost] for cost in sorted(first)]


def grid_plans(spec, payload, schedule, beta):
    """One plan per guess of the whole grid, from both its ends, or the
    free day-0 plan when covering every unit costs nothing: the
    every-guess reference for model._candidates, which stops at the first
    plan that buys nothing on day 0 and prices the top only when needed."""
    lb = spec.lower(payload)
    ub, purchase = spec.cover_all(payload)
    if ub == 0:
        return [free_plan(spec.units(payload), purchase,
                          argmin_stage(schedule))]
    return [spec.plan(payload, schedule, guess, beta)
            for guess in guess_grid(lb, ub)]


def scaled_candidates(kind, payload, schedule, f_guess, beta, merge_r):
    """Every grid plan for one guess of the costliest edge ever bought, each
    restated in original terms: the every-candidate reference for
    solve_thrifty, which restates only its winner.  Raises Infeasible,
    before scaling, when the guess costs less than the payload's
    scaling_floor() or there is no floor."""
    spec = KINDS[kind]
    floor = payload.scaling_floor()
    if floor is None or payload.edge_by_id(f_guess).cost < floor:
        raise Infeasible(f"edge {f_guess} leaves a unit uncoverable")
    pre = graphcore.preprocess_cost_scaling(payload, schedule, f_guess,
                                            merge_r)
    return [_reframe(plan, pre)
            for plan in grid_plans(spec, pre.graph, pre.schedule, beta)]


def record_scales(monkeypatch):
    """Wrap graphcore.preprocess_cost_scaling so that it records each
    PreprocessResult it returns, in call order, in the returned list."""
    scale, scaled = graphcore.preprocess_cost_scaling, []

    def recorded(*args):
        scaled.append(scale(*args))
        return scaled[-1]

    monkeypatch.setattr(graphcore, "preprocess_cost_scaling", recorded)
    return scaled


def floor_cases(kind):
    """Seeded graphs of a graph kind for the cost-scaling floor tests, each
    with its schedule: gen_random(kind, n, 3n, 3, seed) for n = 5, 8, ...,
    20 and seeds 1-6; a copy with every fourth cost zero and the rest
    rounded up to halves, so many tie, and (for a forest) one pair whose
    ends are the same vertex; and a sparse copy with every third edge,
    often disconnected."""
    for n in range(5, 21, 3):
        for seed in range(1, 7):
            inst = gen_random(kind, n, 3 * n, 3, seed)
            g = inst.payload
            edges = [(e.u, e.v, e.cost) for e in g.edges]
            tied = [(u, v, 0 if i % 4 == 0 else Fraction(math.ceil(2 * c), 2))
                    for i, (u, v, c) in enumerate(edges)]
            pairs = [(p.s, p.t) for p in g.pairs]
            same = pairs and pairs[:-1] + [(pairs[-1][0],) * 2]
            for es, ps in [(edges, pairs), (tied, same), (edges[::3], pairs)]:
                yield WeightedGraph.build(n, es, g.root, ps), inst.schedule


def check_floor(g, accepts):
    """Assert that the guesses accepts(f), a build-then-check reference,
    takes are exactly those costing at least g.scaling_floor(), and that
    the floor is None exactly when it takes none; the refused count."""
    floor = g.scaling_floor()
    guesses = cost_guesses(g)
    taken = [f for f in guesses if accepts(f)]
    assert (floor is None) == (not taken), floor
    assert taken == [f for f in guesses if floor is not None
                     and g.edge_by_id(f).cost >= floor], floor
    return len(guesses) - len(taken)


@pytest.fixture(scope="session")
def tiny_batches():
    return {kind: tiny_batch(kind) for kind in PROBLEM_KINDS}


@pytest.fixture(scope="session")
def solved_batches(tiny_batches):
    return {kind: [(inst,) + solve_instance(inst) for inst in insts]
            for kind, insts in tiny_batches.items()}
