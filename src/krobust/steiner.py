"""Thrifty solvers for multistage robust Steiner tree and Steiner forest.

Both act on day 0 and on the critical day j* = argmin lam[j]*k[j].  The tree
solver connects a maximal distance-packing net up front; each still-active
vertex later buys a shortest path to the net in the graph with day-0 edges
zeroed.  The forest solver builds a near-maximal net of pairs with witness
balls plus a day-0 edge set that brings every pair within a bounded zeroed
distance; active pairs later buy their own shortest connecting path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import pairwise

from .errors import Disconnected, InvariantViolation, TrivialInstance
from .graphcore import (Edge, EdgeSet, WeightedGraph, connects, distance,
                        gw_steiner_forest, mst_steiner_tree, path_edges,
                        preprocess_cost_scaling, shortest_paths, zero_edges)
from .model import (KINDS, STEINERFOREST, STEINERTREE, CostReport, Kind,
                    Schedule, ThriftyPlan, argmin_stage, solve_thrifty,
                    threshold_tau)

BETA = Fraction(10)


def ball_packing_net(g: WeightedGraph, radius: Fraction) -> frozenset[int]:
    """Greedy maximal vertex set with pairwise distance strictly above radius.

    Vertices are scanned in increasing id; unreachable counts as infinitely
    far.  Every excluded vertex ends up within radius of some member, and the
    result is nonempty on any nonempty graph.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    chosen: list[int] = []
    for v in range(g.n):
        dv, _ = shortest_paths(g, [v])
        if all(u not in dv or dv[u] > radius for u in chosen):
            chosen.append(v)
    return frozenset(chosen)


def thrifty_tree_plan(g: WeightedGraph, schedule: Schedule, guess: Fraction,
                      beta: Fraction | None = None) -> ThriftyPlan:
    """Two-day Steiner tree plan for one guess of the optimal value."""
    if schedule.k[schedule.horizon] <= 1:
        raise TrivialInstance(
            "a lone surviving vertex needs no connection; optimal value is 0")
    if beta is None:
        beta = BETA
    tau = threshold_tau(guess, schedule, beta)
    radius = 4 * schedule.horizon * tau
    net = ball_packing_net(g, radius)
    day0 = mst_steiner_tree(g, net)
    zeroed = zero_edges(g, day0.ids)
    dist, pred = shortest_paths(zeroed, net)
    residuals = {}
    actions = {}
    for v in range(g.n):
        if v not in dist:
            raise Disconnected(f"vertex {v} cannot reach the net")
        if dist[v] > radius:
            raise InvariantViolation(
                f"vertex {v} lies beyond the net radius {radius}")
        residuals[v] = dist[v]
        path = path_edges(pred, set(net), v)
        actions[v] = tuple(sorted(set(path) - day0.ids))
    return ThriftyPlan(guess=Fraction(guess), beta=Fraction(beta), tau=tau,
                       critical_day=argmin_stage(schedule), net=net,
                       day0_purchase=tuple(sorted(day0.ids)),
                       day0_cost=day0.cost, residuals=residuals,
                       residual_actions=actions, conservative=True)


@dataclass(frozen=True)
class SfnetResult:
    """Outcome of the near-maximal net construction for Steiner forest.

    sr is the set of pairs identified during the loop and split into sb/so/sg
    by how many of their endpoints became witnesses (0/1/2); sf_links are the
    (terminal, witness) attachments of endpoints that were close to an
    existing witness; e_alg is the day-0 edge set (an approximate forest on
    sr plus shortest paths realizing the links); the net is sg ∪ so.
    """

    gamma: Fraction
    net: frozenset[int]
    sr: frozenset[int]
    sg: frozenset[int]
    so: frozenset[int]
    sb: frozenset[int]
    sf_links: tuple[tuple[int, int], ...]
    witnesses: frozenset[int]
    e_alg: EdgeSet


def sfnet_build(g: WeightedGraph, pairs, gamma: Fraction) -> SfnetResult:
    """Build the near-maximal net: repeatedly take the smallest-id pair whose
    endpoint distance, with previously taken pairs and links identified,
    still exceeds 4*gamma; record its endpoints as witnesses unless they sit
    within 2*gamma of an existing witness, in which case they attach to it
    as a link.  Identified vertices are joined by zero-cost glue edges."""
    gamma = Fraction(gamma)
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    plist = sorted(pairs, key=lambda p: p.pid)
    glued = g
    sr: set[int] = set()
    sg: set[int] = set()
    so: set[int] = set()
    sb: set[int] = set()
    links: list[tuple[int, int]] = []
    link_ids: set[int] = set()
    witnesses: list[int] = []
    while True:
        pick = None
        for p in plist:
            if p.pid in sr:
                continue
            d = distance(glued, p.s, p.t)
            if d is None or d > 4 * gamma:
                pick = p
                break
        if pick is None:
            break
        sr.add(pick.pid)
        glue = [Edge(pick.s, pick.t, Fraction(0), -1)]
        delta = 0
        for x in (pick.s, pick.t):
            dx, pred = shortest_paths(g, [x])
            near = [w for w in witnesses if w in dx and dx[w] < 2 * gamma]
            if near:
                w = min(near)
                links.append((x, w))
                link_ids.update(path_edges(pred, {x}, w))
                glue.append(Edge(x, w, Fraction(0), -1))
            else:
                witnesses.append(x)
                delta += 1
        {0: sb, 1: so, 2: sg}[delta].add(pick.pid)
        glued = replace(glued, edges=glued.edges + tuple(glue))
    ids = link_ids | gw_steiner_forest(g, [p for p in plist if p.pid in sr]).ids
    net = frozenset(sg | so)
    if len(sb) > len(net) or len(links) > 2 * len(net):
        raise InvariantViolation(
            f"net of {len(net)} pairs has {len(sb)} unwitnessed pairs "
            f"and {len(links)} links")
    return SfnetResult(gamma=gamma, net=net, sr=frozenset(sr),
                       sg=frozenset(sg), so=frozenset(so), sb=frozenset(sb),
                       sf_links=tuple(links),
                       witnesses=frozenset(witnesses), e_alg=g.edge_set(ids))


def thrifty_forest_plan(g: WeightedGraph, schedule: Schedule,
                        guess: Fraction,
                        beta: Fraction | None = None) -> ThriftyPlan:
    """Two-day Steiner forest plan for one guess of the optimal value,
    connecting the graph's pairs."""
    if beta is None:
        beta = BETA
    tau = threshold_tau(guess, schedule, beta)
    gamma = 2 * schedule.horizon * tau
    built = sfnet_build(g, g.pairs, gamma)
    day0 = built.e_alg
    zeroed = zero_edges(g, day0.ids)
    residuals = {}
    actions = {}
    for p in g.pairs:
        dist, pred = shortest_paths(zeroed, [p.s])
        if p.t not in dist:
            raise Disconnected(f"pair {p.pid} cannot be connected")
        if dist[p.t] > 4 * gamma:
            raise InvariantViolation(
                f"pair {p.pid} lies beyond 4*gamma = {4 * gamma}")
        residuals[p.pid] = dist[p.t]
        path = path_edges(pred, {p.s}, p.t)
        actions[p.pid] = tuple(sorted(set(path) - day0.ids))
    return ThriftyPlan(guess=Fraction(guess), beta=Fraction(beta), tau=tau,
                       critical_day=argmin_stage(schedule), net=built.net,
                       day0_purchase=tuple(sorted(day0.ids)),
                       day0_cost=day0.cost, residuals=residuals,
                       residual_actions=actions, conservative=True)


def _tree_bounds(g: WeightedGraph):
    """The largest vertex-pair distance and the Steiner tree on all
    vertices."""
    lb = Fraction(0)
    for u in range(g.n):
        dist, _ = shortest_paths(g, [u])
        for v in range(u + 1, g.n):
            if v not in dist:
                raise Disconnected(f"vertices {u} and {v} are not connected")
            lb = max(lb, dist[v])
    ub = mst_steiner_tree(g, range(g.n))
    return lb, ub.cost, sorted(ub.ids)


def _forest_bounds(g: WeightedGraph):
    """The largest pair distance and the Steiner forest on all pairs."""
    lb = Fraction(0)
    for p in g.pairs:
        dist, _ = shortest_paths(g, [p.s])
        if p.t not in dist:
            raise Disconnected(f"pair {p.pid} cannot be connected")
        lb = max(lb, dist[p.t])
    ub = gw_steiner_forest(g, g.pairs)
    return lb, ub.cost, sorted(ub.ids)


def solve_tree(g: WeightedGraph, schedule: Schedule,
               beta: Fraction | None = None,
               preprocess: bool = False,
               merge_r=2) -> tuple[ThriftyPlan, CostReport]:
    """Best evaluated tree plan over the doubling guess grid (and, with
    preprocess=True, over every guess of the costliest edge after scaling)."""
    return solve_thrifty(STEINERTREE, g, schedule, beta, preprocess, merge_r)


def solve_forest(g: WeightedGraph, schedule: Schedule,
                 beta: Fraction | None = None,
                 preprocess: bool = False,
                 merge_r=2) -> tuple[ThriftyPlan, CostReport]:
    """Best evaluated forest plan for the graph's pairs over the doubling
    guess grid (and, with preprocess=True, over every guess of the
    costliest edge after scaling)."""
    return solve_thrifty(STEINERFOREST, g, schedule, beta, preprocess,
                         merge_r)


KINDS[STEINERTREE] = Kind(
    units=lambda g: tuple(range(g.n)),
    bounds=_tree_bounds,
    plan=lambda *args: thrifty_tree_plan(*args),
    solve=lambda *args: solve_tree(*args),
    covers=lambda g, ids, units: connects(g, ids, pairwise(sorted(units))),
    scale=lambda *args: preprocess_cost_scaling(*args),
    min_live=1)

KINDS[STEINERFOREST] = Kind(
    units=lambda g: tuple(p.pid for p in g.pairs),
    bounds=_forest_bounds,
    plan=lambda *args: thrifty_forest_plan(*args),
    solve=lambda *args: solve_forest(*args),
    covers=lambda g, ids, units: connects(
        g, ids, [(p.s, p.t) for p in g.pairs if p.pid in units]),
    scale=lambda *args: preprocess_cost_scaling(*args))
