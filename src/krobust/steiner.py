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

from .errors import Disconnected, InvariantViolation, TrivialInstance
from .graphcore import (Edge, EdgeSet, WeightedGraph, diameter, distance,
                        gw_steiner_forest, mst_steiner_tree, path_edges,
                        reach_tables, shortest_paths, spanning_forest,
                        zero_edges)
from .model import (KINDS, STEINERFOREST, STEINERTREE, CostReport, Kind,
                    Schedule, ThriftyPlan, argmin_stage, bit_columns,
                    solve_thrifty, threshold_tau)

BETA = Fraction(10)


def ball_packing_net(g: WeightedGraph, radius: Fraction) -> frozenset[int]:
    """Greedy maximal vertex set with pairwise distance strictly above radius.

    Vertices are scanned in increasing id; unreachable counts as infinitely
    far.  Every excluded vertex ends up within radius of some member, and the
    result is nonempty on any nonempty graph.  Searches run only from the
    members: each marks its ball, and a vertex is taken unless a ball holds
    it.  A distance d is within radius p/q when d * q <= p.
    """
    p, q = radius.numerator, radius.denominator
    if p < 0:
        raise ValueError("radius must be nonnegative")
    chosen: list[int] = []
    covered: set[int] = set()
    for v in range(g.n):
        if v not in covered:
            chosen.append(v)
            dv, _ = shortest_paths(g, [v])
            covered.update(u for u, d in dv.items() if d * q <= p)
    return frozenset(chosen)


def thrifty_tree_plan(g: WeightedGraph, schedule: Schedule, guess: Fraction,
                      beta: Fraction | None = None) -> ThriftyPlan:
    """Two-day Steiner tree plan for one guess of the optimal value.  The
    net always holds vertex 0 and only shrinks as the radius grows; it is
    {0}, and the day-0 tree empty, exactly when vertex 0's ball holds every
    vertex (two net vertices lie a positive distance apart).  From then on
    every guess builds this plan but for guess and tau."""
    if schedule.k[schedule.horizon] <= 1:
        raise TrivialInstance(
            "a lone surviving vertex needs no connection; optimal value is 0")
    beta = BETA if beta is None else beta
    tau = threshold_tau(guess, schedule, beta)
    radius = 4 * schedule.horizon * tau
    net = ball_packing_net(g, radius)
    day0 = mst_steiner_tree(g, net)
    dist, pred = shortest_paths(zero_edges(g, day0.ids), net)
    for v in range(g.n):
        if v not in dist:
            raise Disconnected(f"vertex {v} cannot reach the net")
        if dist[v] * radius.denominator > radius.numerator:
            raise InvariantViolation(
                f"vertex {v} lies beyond the net radius {radius}")
    residuals = {v: dist[v] for v in range(g.n)}
    actions = {v: tuple(sorted(set(path_edges(pred, net, v)) - day0.ids))
               for v in residuals}
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
    as a link.  Identified vertices are joined by zero-cost glue edges.
    With gamma = p/q the tests are d * q > 4p and d * q < 2p."""
    gamma = Fraction(gamma)
    num, den = gamma.numerator, gamma.denominator
    if num < 0:
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
    apart, near_by = 4 * num, 2 * num
    while True:
        pick = None
        for p in plist:
            if p.pid in sr:
                continue
            d = distance(glued, p.s, p.t)
            if d is None or d * den > apart:
                pick = p
                break
        if pick is None:
            break
        sr.add(pick.pid)
        glue = [Edge(pick.s, pick.t, 0, -1)]
        delta = 0
        for x in (pick.s, pick.t):
            dx, pred = shortest_paths(g, [x])
            near = [w for w in witnesses if w in dx and dx[w] * den < near_by]
            if near:
                w = min(near)
                links.append((x, w))
                link_ids.update(path_edges(pred, {x}, w))
                glue.append(Edge(x, w, 0, -1))
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
    connecting the graph's pairs.  The day-0 edges are empty exactly when
    sfnet_build picks no pair, that is when every pair lies within 4*gamma
    (a picked pair lies farther, a positive distance); a larger guess then
    picks none either and builds this plan but for guess and tau."""
    beta = BETA if beta is None else beta
    tau = threshold_tau(guess, schedule, beta)
    gamma = 2 * schedule.horizon * tau
    built = sfnet_build(g, g.pairs, gamma)
    day0 = built.e_alg
    zeroed = zero_edges(g, day0.ids)
    apart = 4 * gamma
    residuals, actions = {}, {}
    for p in g.pairs:
        dist, pred = shortest_paths(zeroed, [p.s])
        if p.t not in dist:
            raise Disconnected(f"pair {p.pid} cannot be connected")
        if dist[p.t] * apart.denominator > apart.numerator:
            raise InvariantViolation(
                f"pair {p.pid} lies beyond 4*gamma = {apart}")
        residuals[p.pid] = dist[p.t]
        actions[p.pid] = tuple(sorted(
            set(path_edges(pred, {p.s}, p.t)) - day0.ids))
    return ThriftyPlan(guess=Fraction(guess), beta=Fraction(beta), tau=tau,
                       critical_day=argmin_stage(schedule), net=built.net,
                       day0_purchase=tuple(sorted(day0.ids)),
                       day0_cost=day0.cost, residuals=residuals,
                       residual_actions=actions, conservative=True)


def _tree_cover(g: WeightedGraph):
    """A tree on all vertices: its cost and edge ids.

    The tree is a minimum spanning tree: with every vertex a terminal, the
    MST Steiner tree weighs exactly as much.  When it costs nothing the
    purchase is vertex 0's shortest-path tree instead, which is what the MST
    Steiner tree on all vertices buys then.
    """
    ub = spanning_forest(g)
    if ub.cost:
        return ub.cost, sorted(ub.ids)
    _, pred = shortest_paths(g, [0])
    return ub.cost, sorted(e.eid for e in pred.values())


def _forest_lower(g: WeightedGraph) -> Fraction:
    """The largest distance between the ends of a joinable pair."""
    return max([shortest_paths(g, [p.s])[0].get(p.t, 0) for p in g.pairs],
               default=0)


def _forest_cover(g: WeightedGraph):
    """The Steiner forest on all pairs: its cost and edge ids.  It raises
    Disconnected naming the first pair it cannot join."""
    ub = gw_steiner_forest(g, g.pairs)
    return ub.cost, sorted(ub.ids)


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


def _joined_table(g: WeightedGraph, ids, pairs, columns=None) -> int:
    """Bit M set when the edges {ids[i] : bit i of M} join the two ends of
    every (s, t) pair: one search per distinct s."""
    targets: dict[int, list[int]] = {}
    for s, t in pairs:
        targets.setdefault(s, []).append(t)
    columns = columns or bit_columns(len(ids))
    table = columns[0]
    for s, ends in targets.items():
        reach = reach_tables(g, ids, s, columns=columns)[1]
        for t in ends:
            table &= reach[t]
    return table


KINDS[STEINERTREE] = Kind(
    units=lambda g: tuple(range(g.n)),
    lower=diameter,
    cover_all=_tree_cover,
    plan=lambda *args: thrifty_tree_plan(*args),
    solve=lambda *args: solve_tree(*args),
    cover_table=lambda g, ids, units, columns=None: _joined_table(
        g, ids, [(min(units), v) for v in units], columns),
    ratio_bound=lambda g, schedule: Fraction(50 * schedule.horizon),
    min_live=1)

KINDS[STEINERFOREST] = Kind(
    units=lambda g: tuple(p.pid for p in g.pairs),
    lower=_forest_lower,
    cover_all=_forest_cover,
    plan=lambda *args: thrifty_forest_plan(*args),
    solve=lambda *args: solve_forest(*args),
    cover_table=lambda g, ids, units, columns=None: _joined_table(
        g, ids, [(p.s, p.t) for p in g.pairs if p.pid in units], columns),
    ratio_bound=lambda g, schedule: Fraction(224 * schedule.horizon))
