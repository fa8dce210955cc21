"""Exact-rational graph primitives shared by the cut and Steiner solvers.

All algorithms take int or Fraction costs, compute exactly and break ties by
the smallest numeric id, so identical inputs always give identical outputs.
The thrifty driver scales a graph's costs to ints once (WeightedGraph.integral)
and solves on that copy, since int arithmetic is far cheaper than Fraction
arithmetic.  Edge ids are positions in the original edge tuple and stay
stable under zeroing, deletion and contraction.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Iterable, NamedTuple, Sequence

from .errors import (BadGraphField, Disconnected, InvariantViolation,
                     UnknownEdge)
from .model import Schedule, merge_stages, scaled_to_ints


class Edge(NamedTuple):
    u: int
    v: int
    cost: Fraction
    eid: int


class Pair(NamedTuple):
    s: int
    t: int
    pid: int


@dataclass(frozen=True)
class EdgeSet:
    """An edge-id set with its total cost."""

    ids: frozenset[int]
    cost: Fraction

    @staticmethod
    def empty() -> "EdgeSet":
        return EdgeSet(frozenset(), Fraction(0))


def _memoised(fn):
    """Keep fn's results on the graph: it is immutable, so a result depends
    only on the graph and the other arguments.  An int argument keys as it
    is; any other is read once into a frozenset, which is both its key and
    what fn receives.  Results are shared and must not be mutated."""

    @functools.wraps(fn)
    def cached(g: WeightedGraph, *args):
        args = tuple(a if isinstance(a, int) else frozenset(a) for a in args)
        key = (fn, *args)
        memo = g._memo
        if key not in memo:
            memo[key] = fn(g, *args)
        return memo[key]

    return cached


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected multigraph on vertices 0..n-1.

    root is set exactly for cut instances (preprocess_cost_scaling reads it
    so), pairs for forest instances.  rep carries the vertex-merge map after
    contraction (identity when None); merged-away vertex ids keep existing
    so ids stay stable.  _memo holds the results of the memoised
    primitives; it takes no part in equality, hashing or repr, and every
    derived graph starts with an empty one.
    """

    n: int
    edges: tuple[Edge, ...]
    root: int | None = None
    pairs: tuple[Pair, ...] = ()
    rep: tuple[int, ...] | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @staticmethod
    def build(n: int, edges: Iterable, root: int | None = None,
              pairs: Iterable = ()) -> "WeightedGraph":
        es = tuple(Edge(int(u), int(v), Fraction(c), i)
                   for i, (u, v, c) in enumerate(edges))
        for e in es:
            if not (0 <= e.u < n and 0 <= e.v < n):
                end = 1 if 0 <= e.u < n else 0
                raise BadGraphField(f"edges[{e.eid}][{end}]",
                                    f"edge {e.eid} endpoint out of range")
            if e.u == e.v:
                raise BadGraphField(f"edges[{e.eid}]",
                                    f"edge {e.eid} is a self-loop")
            if e.cost < 0:
                raise BadGraphField(f"edges[{e.eid}][2]",
                                    f"edge {e.eid} has negative cost")
        ps = tuple(Pair(int(s), int(t), i + 1) for i, (s, t) in enumerate(pairs))
        for i, p in enumerate(ps):
            if not (0 <= p.s < n and 0 <= p.t < n):
                end = 1 if 0 <= p.s < n else 0
                raise BadGraphField(f"pairs[{i}][{end}]",
                                    f"pair {p.pid} endpoint out of range")
        if root is not None and not 0 <= root < n:
            raise BadGraphField("root", f"root {root} out of range")
        return WeightedGraph(n, es, root, ps)

    def representative(self, v: int) -> int:
        return v if self.rep is None else self.rep[v]

    def edge_by_id(self, eid: int) -> Edge:
        for e in self.edges:
            if e.eid == eid:
                return e
        raise UnknownEdge(f"edge id {eid} not in graph")

    def edge_ids(self) -> frozenset[int]:
        return frozenset(e.eid for e in self.edges)

    def edge_set(self, ids: Iterable[int]) -> EdgeSet:
        ids = frozenset(ids)
        missing = ids - self.edge_ids()
        if missing:
            raise UnknownEdge(f"edge ids {sorted(missing)} not in graph")
        by_id = {e.eid: e for e in self.edges}
        return EdgeSet(ids, sum((by_id[i].cost for i in ids), Fraction(0)))

    def actions(self) -> tuple[tuple[int, Fraction], ...]:
        """(edge id, cost) for every purchasable edge."""
        return tuple((e.eid, e.cost) for e in self.edges)

    @_memoised
    def adjacency(self) -> tuple[tuple[Edge, ...], ...]:
        """The edges at each vertex, in edge order."""
        adj: list[list[Edge]] = [[] for _ in range(self.n)]
        for e in self.edges:
            adj[e.u].append(e)
            adj[e.v].append(e)
        return tuple(map(tuple, adj))

    @_memoised
    def integral(self) -> tuple[int, "WeightedGraph"]:
        """L, the LCM of the edge costs' denominators, and a copy of the
        graph with every cost times L as an int.  Every comparison the
        thrifty solvers make is between costs and thresholds linear in the
        costs, so a plan for the copy is the plan for the graph with its
        money divided by L."""
        scale, costs = scaled_to_ints(e.cost for e in self.edges)
        edges = tuple(e._replace(cost=c) for e, c in zip(self.edges, costs))
        return scale, WeightedGraph(self.n, edges, self.root, self.pairs,
                                    self.rep)


def _dijkstra(g: WeightedGraph, sources: Iterable[int],
              target: int | None = None
              ) -> tuple[dict[int, Fraction], dict[int, Edge]]:
    dist: dict[int, Fraction] = {}
    pred: dict[int, Edge] = {}
    heap = []
    for s in sorted(set(sources)):
        dist[s] = 0
        heapq.heappush(heap, (0, s))
    adj = g.adjacency()
    done: set[int] = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        if v == target:
            break
        done.add(v)
        for e in adj[v]:
            w = e.v if e.u == v else e.u
            nd = d + e.cost
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                pred[w] = e
                heapq.heappush(heap, (nd, w))
    return dist, pred


@_memoised
def shortest_paths(g: WeightedGraph, sources: Iterable[int]
                   ) -> tuple[dict[int, Fraction], dict[int, Edge]]:
    """Multi-source Dijkstra.  Returns (distance, predecessor edge) maps;
    unreachable vertices are simply absent from the distance map."""
    return _dijkstra(g, sources)


@_memoised
def distance(g: WeightedGraph, s: int, t: int) -> Fraction | None:
    """Shortest s-t distance, or None when t is unreachable; the search
    stops as soon as t is settled."""
    return _dijkstra(g, [s], t)[0].get(t)


def path_edges(pred: dict[int, Edge], sources: set[int], target: int) -> list[int]:
    """Walk predecessor edges from target back to any source; edge ids."""
    out = []
    v = target
    while v not in sources:
        e = pred[v]
        out.append(e.eid)
        v = e.u if e.v == v else e.v
    return out


@_memoised
def _flow_arcs(g: WeightedGraph):
    """min_cut's network: arc 2i runs along the i-th edge from u to v and
    arc 2i+1 back, each with the edge's cost as capacity, so the edge is
    usable in both directions; (arc heads, capacities, arcs out of each
    vertex)."""
    to: list[int] = []
    cap: list = []
    out: list[list[int]] = [[] for _ in range(g.n)]
    for e in g.edges:
        out[e.u].append(len(to))
        to.append(e.v)
        out[e.v].append(len(to))
        to.append(e.u)
        cap += (e.cost, e.cost)
    return tuple(to), tuple(cap), tuple(map(tuple, out))


@_memoised
def min_cut(g: WeightedGraph, root: int, terminals: Iterable[int]
            ) -> tuple[Fraction, EdgeSet]:
    """Cheapest edge set separating every terminal from the root.

    Exact max-flow via augmenting paths, each found by one BFS from all the
    terminals at once (the search a super-source joined to them by
    uncapacitated arcs would make); the cut is recovered from the vertices
    the last, failing search reached in the residual network.
    """
    term = sorted(set(terminals))
    if not term:
        return Fraction(0), EdgeSet.empty()
    if root in term:
        raise ValueError("root cannot be a terminal")
    to, capacity, out = _flow_arcs(g)
    cap = list(capacity)
    flow = 0
    while True:
        parent_arc = [-1] * g.n
        for t in term:
            parent_arc[t] = -2
        queue = term
        while queue and parent_arc[root] == -1:
            nxt = []
            for v in queue:
                for a in out[v]:
                    w = to[a]
                    if parent_arc[w] == -1 and cap[a] > 0:
                        parent_arc[w] = a
                        nxt.append(w)
            queue = nxt
        if parent_arc[root] == -1:
            break
        path = []
        v = root
        while parent_arc[v] != -2:
            path.append(parent_arc[v])
            v = to[parent_arc[v] ^ 1]
        bottleneck = min(cap[a] for a in path)
        for a in path:
            cap[a] -= bottleneck
            cap[a ^ 1] += bottleneck
        flow += bottleneck

    # the search that failed marked exactly the residual-reachable vertices
    cut_ids, cut_cost = [], 0
    for e in g.edges:
        if (parent_arc[e.u] == -1) != (parent_arc[e.v] == -1):
            cut_ids.append(e.eid)
            cut_cost += e.cost
    if cut_cost != flow:
        raise InvariantViolation(
            f"max-flow value {flow} differs from the recovered cut {cut_cost}")
    return flow, EdgeSet(frozenset(cut_ids), Fraction(cut_cost))


def separates(g: WeightedGraph, root: int, ids: Collection[int],
              targets: Collection[int]) -> bool:
    """Whether removing the listed edges leaves every target unreachable
    from the root."""
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


class UnionFind:
    __slots__ = ("parent", "rank")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def mst_steiner_tree(g: WeightedGraph, terminals: Iterable[int]) -> EdgeSet:
    """2-approximate Steiner tree: MST of the terminal metric closure, with
    closure edges expanded back to shortest paths and non-terminal leaves
    pruned."""
    term = sorted(set(terminals))
    if len(term) <= 1:
        return EdgeSet.empty()
    dists: dict[int, dict[int, Fraction]] = {}
    preds: dict[int, dict[int, Edge]] = {}
    for t in term:
        dists[t], preds[t] = shortest_paths(g, [t])
    closure = []
    for i, a in enumerate(term):
        for b in term[i + 1:]:
            if b not in dists[a]:
                raise Disconnected(f"terminals {a} and {b} are not connected")
            closure.append((dists[a][b], a, b))
    closure.sort()
    uf = UnionFind(g.n)
    chosen: set[int] = set()
    for d, a, b in closure:
        if uf.union(a, b):
            chosen.update(path_edges(preds[a], {a}, b))
    # prune non-terminal leaves until stable
    term_set = set(term)
    by_id = {e.eid: e for e in g.edges}
    while True:
        degree: dict[int, int] = {}
        for eid in chosen:
            e = by_id[eid]
            degree[e.u] = degree.get(e.u, 0) + 1
            degree[e.v] = degree.get(e.v, 0) + 1
        drop = None
        for eid in sorted(chosen):
            e = by_id[eid]
            for end in (e.u, e.v):
                if degree.get(end) == 1 and end not in term_set:
                    drop = eid
                    break
            if drop is not None:
                break
        if drop is None:
            break
        chosen.remove(drop)
    return g.edge_set(chosen)


def connects(g: WeightedGraph, ids: Collection[int], pairs) -> bool:
    """Whether the listed edges join the two ends of every (s, t) pair."""
    uf = UnionFind(g.n)
    for e in g.edges:
        if e.eid in ids:
            uf.union(e.u, e.v)
    return all(uf.find(s) == uf.find(t) for s, t in pairs)


def _forest_connects(g: WeightedGraph, kept: set[int], pairs: Sequence[Pair]) -> bool:
    uf = UnionFind(g.n)
    by_id = {e.eid: e for e in g.edges}
    for eid in kept:
        e = by_id[eid]
        uf.union(e.u, e.v)
    return all(uf.find(p.s) == uf.find(p.t) for p in pairs)


def gw_steiner_forest(g: WeightedGraph, pairs: Iterable[Pair]) -> EdgeSet:
    """Primal-dual 2-approximate Steiner forest.

    Active components (those separating some pair) grow uniform moats; the
    edge going tight first is merged (ties to the smallest edge id), then a
    reverse-delete pass drops every edge not needed for connectivity.

    Event times stay exact on ints: each edge's slack (cost minus paid) is
    kept as an int count of a money unit, first 1/L for L the LCM of the
    costs' denominators.  An edge touched by `rate` growing moats (1 or 2)
    goes tight after dt = slack/rate, so 2*dt = slack * (2 // rate) is an
    int; when the earliest one is odd the unit is halved, doubling every
    slack, which happens at most once per merge.
    """
    plist = [p for p in pairs if p.s != p.t]
    if not plist:
        return EdgeSet.empty()
    uf = UnionFind(g.n)
    _, costs = scaled_to_ints(e.cost for e in g.edges)
    slack = {e.eid: c for e, c in zip(g.edges, costs)}
    by_id = {e.eid: e for e in g.edges}
    added: list[int] = []

    def active_roots() -> set[int]:
        out = set()
        for p in plist:
            rs, rt = uf.find(p.s), uf.find(p.t)
            if rs != rt:
                out.add(rs)
                out.add(rt)
        return out

    while True:
        act = active_roots()
        if not act:
            break
        best_2dt = None
        best_eid = None
        rates = {}
        for e in g.edges:
            ru, rv = uf.find(e.u), uf.find(e.v)
            if ru == rv:
                continue
            rate = (ru in act) + (rv in act)
            if rate == 0:
                continue
            rates[e.eid] = rate
            two_dt = slack[e.eid] * (2 // rate)
            if (best_2dt is None or two_dt < best_2dt
                    or (two_dt == best_2dt and e.eid < best_eid)):
                best_2dt, best_eid = two_dt, e.eid
        if best_eid is None:
            missing = next(p for p in plist if uf.find(p.s) != uf.find(p.t))
            raise Disconnected(f"pair {missing.pid} cannot be connected")
        if best_2dt % 2:
            slack = {eid: 2 * s for eid, s in slack.items()}
            best_2dt *= 2
        for eid, rate in rates.items():
            slack[eid] -= best_2dt // 2 * rate
        e = by_id[best_eid]
        uf.union(e.u, e.v)
        added.append(best_eid)

    kept = set(added)
    for eid in reversed(added):
        trial = kept - {eid}
        if _forest_connects(g, trial, plist):
            kept = trial
    return g.edge_set(kept)


def zero_edges(g: WeightedGraph, es) -> WeightedGraph:
    """Copy of the graph with the listed edges' costs set to zero; the
    graph itself when none is listed."""
    ids = frozenset(es)
    missing = ids - g.edge_ids()
    if missing:
        raise UnknownEdge(f"edge ids {sorted(missing)} not in graph")
    if not ids:
        return g
    edges = tuple(e._replace(cost=e.cost * 0) if e.eid in ids else e
                  for e in g.edges)
    return WeightedGraph(g.n, edges, g.root, g.pairs, g.rep)


def delete_or_contract(g: WeightedGraph, es, mode: str) -> WeightedGraph:
    """Remove edges either by deletion or by contracting their endpoints.

    Contraction never fails: pairs whose endpoints merge become trivially
    satisfied and terminals merged into the root show up through the rep map.
    Edge ids of surviving edges are unchanged.  Deleting nothing returns
    the graph itself.
    """
    ids = frozenset(es)
    missing = ids - g.edge_ids()
    if missing:
        raise UnknownEdge(f"edge ids {sorted(missing)} not in graph")
    if mode == "delete":
        if not ids:
            return g
        edges = tuple(e for e in g.edges if e.eid not in ids)
        return WeightedGraph(g.n, edges, g.root, g.pairs, g.rep)
    if mode != "contract":
        raise ValueError(f"mode must be 'delete' or 'contract', got {mode!r}")
    uf = UnionFind(g.n)
    for e in g.edges:
        if e.eid in ids:
            uf.union(e.u, e.v)
    base = g.rep or tuple(range(g.n))
    rep = tuple(uf.find(base[v]) for v in range(g.n))
    edges = []
    for e in g.edges:
        if e.eid in ids:
            continue
        u, v = uf.find(e.u), uf.find(e.v)
        if u == v:
            continue
        edges.append(Edge(u, v, e.cost, e.eid))
    root = None if g.root is None else uf.find(g.root)
    pairs = tuple(Pair(uf.find(p.s), uf.find(p.t), p.pid) for p in g.pairs)
    return WeightedGraph(g.n, tuple(edges), root, pairs, rep)


@dataclass(frozen=True)
class PreprocessResult:
    graph: WeightedGraph
    schedule: Schedule
    prepaid: EdgeSet
    kept_days: tuple[int, ...]
    f_guess: int


def preprocess_cost_scaling(g: WeightedGraph, schedule: Schedule,
                            f_guess: int, merge_r=2) -> PreprocessResult:
    """Scale the instance under a guess f of the costliest edge ever bought.

    Edges pricier than c_f are deleted, edges cheaper than c_f/n^2 are
    prepaid on day 0 and then zeroed.  A rooted graph is a cut instance, so
    there the pricier edges are contracted (they are treated as uncuttable)
    and the cheaper ones deleted.  Days whose inflation exceeds n^2 times the
    remaining cost spread are dropped, and the rest is merged down to a
    doubling inflation subsequence.  The surviving cost spread is at most n^2
    and the merged horizon is at most log2 of the largest kept inflation.
    """
    cf = g.edge_by_id(f_guess).cost
    n2 = Fraction(g.n * g.n)
    cut = g.root is not None
    high = [e.eid for e in g.edges if e.cost > cf]
    if high:
        g = delete_or_contract(g, high, "contract" if cut else "delete")
    low = [e.eid for e in g.edges if e.cost < cf / n2]
    prepaid = g.edge_set(low)
    if low:
        g = delete_or_contract(g, low, "delete") if cut else zero_edges(g, low)
    priced = [e.cost for e in g.edges if e.cost > 0]
    horizon = schedule.horizon
    if priced:
        lam_cap = n2 * max(priced) / min(priced)
        while horizon > 0 and schedule.lam[horizon] > lam_cap:
            horizon -= 1
    truncated = Schedule(horizon, schedule.k[:horizon + 1],
                         schedule.lam[:horizon + 1])
    merged, day_map = merge_stages(truncated, merge_r)
    kept = tuple(sorted(set(day_map)))
    return PreprocessResult(g, merged, prepaid, kept, f_guess)
