"""Session-wide instance batches shared by the unit and acceptance tests."""

from fractions import Fraction

import pytest

from krobust.fixtures import gen_random
from krobust.model import KINDS, PROBLEM_KINDS, guess_grid, threshold_tau
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
