"""Session-wide instance batches shared by the unit and acceptance tests."""

from fractions import Fraction

import pytest

from itertools import pairwise

from krobust.fixtures import gen_random
from krobust.graphcore import UnionFind
from krobust.model import (KINDS, MINCUT, PROBLEM_KINDS, SETCOVER,
                           STEINERTREE, guess_grid, threshold_tau)
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
        for e in adj[v]:
            if e.eid in ids:
                continue
            w = e.v if e.u == v else e.u
            if w not in seen:
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


@pytest.fixture(scope="session")
def tiny_batches():
    return {kind: tiny_batch(kind) for kind in PROBLEM_KINDS}


@pytest.fixture(scope="session")
def solved_batches(tiny_batches):
    return {kind: [(inst,) + solve_instance(inst) for inst in insts]
            for kind, insts in tiny_batches.items()}
