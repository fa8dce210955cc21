"""Instance generators.

Two adversarial families demonstrate why the full horizon matters — one where
the optimal strategy must be ready to buy on every single day, one where any
strategy that concentrates its purchases on few days overpays — plus a seeded
random generator for batch testing.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import BadParameters
from .graphcore import WeightedGraph
from .model import (KINDS, MINCUT, PROBLEM_KINDS, SETCOVER, STEINERFOREST,
                    SUBSET, ProblemInstance, Schedule, UncertaintySpec)
from .setcover import SetSystem


def gen_lowerbound_allstages(T: int, eps) -> ProblemInstance:
    """Set cover on T+1 elements where every day of the horizon is essential.

    Inflations grow by 1+eps per day and stay below 2 overall.  Day i offers
    every k_i-subset of {i..T+1} that contains element i, priced so that
    buying it on day i costs exactly lam[T]; two unit-cost singletons close
    out the final day.  The adaptive optimum is lam[T], and the optimal
    strategy buys on day i exactly when element i survives that long — so for
    every day there is an adversary line on which it purchases then.
    """
    eps = Fraction(eps)
    if T < 1:
        raise BadParameters(f"horizon must be >= 1, got {T}")
    if eps <= 0:
        raise BadParameters(f"eps must be positive, got {eps}")
    lam = tuple((1 + eps) ** i for i in range(T + 1))
    if lam[T] >= 2:
        raise BadParameters(
            f"(1+eps)^T = {lam[T]} reaches 2; pick a smaller eps")
    n = T + 1
    k = tuple(n - i for i in range(T + 1))
    sets = []
    for i in range(1, T):
        pool = range(i, T + 2)
        for drop in pool:
            if drop == i:
                continue
            sets.append((frozenset(e for e in pool if e != drop),
                         lam[T] / lam[i]))
    sets.append((frozenset({T}), Fraction(1)))
    sets.append((frozenset({T + 1}), Fraction(1)))
    system = SetSystem.build(n, sets)
    return ProblemInstance(SETCOVER, system, Schedule.of(k, lam))


def gen_subset_krobust_bad(T: int, lam: int) -> ProblemInstance:
    """Partitioned singleton cover punishing strategies that act on few days.

    Part i has lam**(i+1) elements of cost lam**-i; day i's adversary keeps
    at most one of them.  Covering a revealed survivor on its own day always
    costs 1, so the follow-along strategy (oracle.scripted_worst_case) pays
    at most T, while prepaying any part whole costs lam times that and
    waiting one day multiplies the survivor's price by lam.
    """
    if not isinstance(lam, int) or isinstance(lam, bool) or lam < 2:
        raise BadParameters(f"lam must be an integer >= 2, got {lam!r}")
    if T < 1:
        raise BadParameters(f"horizon must be >= 1, got {T}")
    parts = []
    sets = []
    nxt = 1
    for i in range(1, T + 1):
        part = range(nxt, nxt + lam ** (i + 1))
        nxt = part.stop
        parts.append(frozenset(part))
        cost = Fraction(1, lam ** i)
        sets.extend((frozenset({e}), cost) for e in part)
    n = nxt - 1
    k = (n,) + (1,) * T
    lams = tuple(Fraction(lam) ** i for i in range(T + 1))
    return ProblemInstance(SETCOVER, SetSystem.build(n, sets),
                           Schedule.of(k, lams),
                           UncertaintySpec(SUBSET, tuple(parts)))


def _rand_cost(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 3))


def _rand_graph(rng: random.Random, n: int, actions: int) -> list[tuple]:
    """Connected multigraph edge list: a random spanning tree plus extras."""
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v, _rand_cost(rng)))
    while len(edges) < actions:
        u = rng.randrange(n)
        v = (u + rng.randrange(1, n)) % n
        edges.append((min(u, v), max(u, v), _rand_cost(rng)))
    return edges


def gen_random(kind: str, n: int, actions: int, horizon: int,
               seed: int) -> ProblemInstance:
    """Seeded random instance: coverage/connectivity hold by construction,
    costs are small positive rationals, inflations step by x2 or x3, and
    cardinalities shrink monotonically (never below 2 for trees)."""
    if kind not in PROBLEM_KINDS:
        raise BadParameters(f"unknown problem kind {kind!r}")
    if n < 2:
        raise BadParameters(f"need at least 2 units/vertices, got {n}")
    if horizon < 1:
        raise BadParameters(f"horizon must be >= 1, got {horizon}")
    if kind != SETCOVER and actions < n - 1:
        raise BadParameters(
            f"{actions} edges cannot connect {n} vertices")
    if kind == SETCOVER and actions < 1:
        raise BadParameters("need at least one set")
    rng = random.Random(f"{kind}:{n}:{actions}:{horizon}:{seed}")

    if kind == SETCOVER:
        members = [set(rng.sample(range(1, n + 1), rng.randint(1, n)))
                   for _ in range(actions)]
        for e in range(1, n + 1):
            if not any(e in m for m in members):
                members[rng.randrange(actions)].add(e)
        payload = SetSystem.build(n, [(m, _rand_cost(rng)) for m in members])
    elif kind == STEINERFOREST:
        pairs = []
        for _ in range(max(1, n // 2)):
            s = rng.randrange(n)
            t = (s + rng.randrange(1, n)) % n
            pairs.append((s, t))
        payload = WeightedGraph.build(n, _rand_graph(rng, n, actions),
                                      pairs=pairs)
    else:
        payload = WeightedGraph.build(n, _rand_graph(rng, n, actions),
                                      root=0 if kind == MINCUT else None)

    lams = [Fraction(1)]
    for _ in range(horizon):
        lams.append(lams[-1] * rng.choice((2, 3)))
    k = [len(KINDS[kind].units(payload))]
    for _ in range(horizon):
        k.append(rng.randint(KINDS[kind].min_live + 1, k[-1]))
    return ProblemInstance(kind, payload, Schedule.of(k, lams))
