"""Exact-rational graph primitives shared by the cut and Steiner solvers.

All algorithms take int or Fraction costs, compute exactly and break ties by
the smallest numeric id, so identical inputs always give identical outputs.
The thrifty driver scales a graph's costs to ints once (WeightedGraph.integral)
and solves on that copy, since int arithmetic is far cheaper than Fraction
arithmetic: it decides every threshold, day and candidate there in ints and
divides only the winner back by L.  Edge ids are positions in the original
edge tuple and stay stable under zeroing, deletion and contraction.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import (BadGraphField, Disconnected, InvariantViolation,
                     UnknownEdge)
from .model import (Schedule, bit_columns, read_fraction, scaled_to_ints,
                    validate_schedule)


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
    what fn receives.  Results are shared and must not be mutated, and
    none is None, so None marks a miss.  peek(g, *args) returns the kept
    result, or None when there is none; keep(g, result, *args) stores a
    result known to equal fn(g, *args), unless one is kept already;
    entries(g) lists each kept (args, result), found through fn itself
    whatever name the memoised function is under."""

    def key(args) -> tuple:
        for a in args:
            if not isinstance(a, int):
                return (fn, *[a if isinstance(a, int) else frozenset(a)
                              for a in args])
        return (fn, *args)

    @functools.wraps(fn)
    def cached(g: WeightedGraph, *args):
        k = key(args)
        got = g._memo.get(k)
        if got is None:
            got = g._memo[k] = fn(g, *k[1:])
        return got

    cached.peek = lambda g, *args: g._memo.get(key(args))
    cached.keep = lambda g, result, *args: g._memo.setdefault(
        key(args), result)
    cached.entries = lambda g: [(k[1:], result) for k, result
                                in g._memo.items() if k[0] is fn]
    return cached


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected multigraph on vertices 0..n-1.

    root is set exactly for cut instances (preprocess_cost_scaling reads it
    so), pairs for forest instances.  rep carries the vertex-merge map after
    contraction (identity when None); merged-away vertex ids keep existing
    so ids stay stable.  _memo holds the results of the memoised
    primitives; it takes no part in equality, hashing or repr, and every
    derived graph starts with an empty one, but for the instance results
    preprocess_cost_scaling shares with a cost-scaled graph.
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
        def fault(x) -> str | None:   # None when x is a vertex id
            if type(x) is not int:   # a bool is not one either
                return "is not an integer"
            return None if 0 <= x < n else "out of range"

        if type(n) is not int:   # nor a bool
            raise BadGraphField("n", f"vertex count {n!r} is not an integer")
        es = tuple(Edge(u, v, c if type(c) is Fraction else read_fraction(
            c, f"edges[{i}][2]", BadGraphField), i)
                   for i, (u, v, c) in enumerate(edges))
        for e in es:
            if fault(e.u) or fault(e.v):
                end = 0 if fault(e.u) else 1
                raise BadGraphField(f"edges[{e.eid}][{end}]",
                                    f"edge {e.eid} endpoint {fault(e[end])}")
            if e.u == e.v:
                raise BadGraphField(f"edges[{e.eid}]",
                                    f"edge {e.eid} is a self-loop")
            if e.cost.numerator < 0:
                raise BadGraphField(f"edges[{e.eid}][2]",
                                    f"edge {e.eid} has negative cost")
        ps = tuple(Pair(s, t, i + 1) for i, (s, t) in enumerate(pairs))
        for i, p in enumerate(ps):
            if fault(p.s) or fault(p.t):
                end = 0 if fault(p.s) else 1
                raise BadGraphField(f"pairs[{i}][{end}]",
                                    f"pair {p.pid} endpoint {fault(p[end])}")
        if root is not None and (why := fault(root)):
            raise BadGraphField("root", f"root {root!r} {why}")
        return WeightedGraph(n, es, root, ps)

    def representative(self, v: int) -> int:
        return v if self.rep is None else self.rep[v]

    def edge_by_id(self, eid: int) -> Edge:
        try:
            return self.edges_by_id[eid]
        except KeyError:
            raise UnknownEdge(f"edge id {eid} not in graph") from None

    def known_ids(self, ids: Iterable[int]) -> frozenset[int]:
        """The ids as a frozenset; raises UnknownEdge naming every id that
        is not an edge of the graph."""
        ids = frozenset(ids)
        by_id = self.edges_by_id
        missing = sorted(i for i in ids if i not in by_id)
        if missing:
            raise UnknownEdge(f"edge ids {missing} not in graph")
        return ids

    def edge_set(self, ids: Iterable[int]) -> EdgeSet:
        ids = self.known_ids(ids)
        by_id = self.edges_by_id
        return EdgeSet(ids, Fraction(sum([by_id[i].cost for i in ids])))

    def actions(self) -> tuple[tuple[int, Fraction], ...]:
        """(edge id, cost) for every purchasable edge."""
        return tuple((e.eid, e.cost) for e in self.edges)

    @_memoised
    def adjacency(self) -> tuple[tuple[tuple[int, Fraction, Edge], ...], ...]:
        """(other end, cost, edge) for the edges at each vertex, in edge
        order: flat triples, so a search reads no attribute per edge."""
        adj: list[list] = [[] for _ in range(self.n)]
        for e in self.edges:
            adj[e.u].append((e.v, e.cost, e))
            adj[e.v].append((e.u, e.cost, e))
        return tuple(map(tuple, adj))

    @functools.cached_property
    def edges_by_id(self) -> dict[int, Edge]:
        """Each edge under its id, built on first use.  An attribute, not a
        _memo entry: edge_set and known_ids read it on every call, and a
        _memo lookup would cost about as much as their own work."""
        return {e.eid: e for e in self.edges}

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

    def scaling_floor(self) -> Fraction | None:
        """The least c_f under which preprocess_cost_scaling keeps every
        unit coverable, or None when none does; like it, read off the root:
        for a cut the costliest edge at the root (contracting a costlier one
        merges a unit into it), else the cost at which a Kruskal sweep joins
        the last pair (vertex 0 and each vertex for a tree).  Exact, as a
        cheaper guess contracts or deletes a superset of the edges."""
        if self.root is not None:
            return max((e.cost for e in self.edges
                        if self.root in (e.u, e.v)), default=0)
        apart = [p[:2] for p in self.pairs] or [(0, v) for v in range(self.n)]
        uf, floor = UnionFind(self.n), 0
        edges = iter(sorted(self.edges, key=lambda e: e.cost))
        while apart:
            if uf.find(apart[-1][0]) == uf.find(apart[-1][1]):
                apart.pop()
            elif (e := next(edges, None)) is None:
                return None
            else:
                uf.union(e.u, e.v)
                floor = e.cost
        return floor


def _dijkstra(g: WeightedGraph, sources: Iterable[int],
              target: int | None = None
              ) -> tuple[dict[int, Fraction], dict[int, Edge]]:
    """Dijkstra from the sources, stopping once target is settled.  A
    vertex is pushed only when its distance strictly falls, so the one heap
    entry at its final distance settles it and every other is stale."""
    heap = [(0, s) for s in sorted(set(sources))]   # sorted: a heap already
    dist: dict[int, Fraction] = {s: 0 for _, s in heap}
    pred: dict[int, Edge] = {}
    adj = g.adjacency()
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, v = pop(heap)
        if d > dist[v]:
            continue
        if v == target:
            break
        for w, c, e in adj[v]:
            nd = d + c
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                pred[w] = e
                push(heap, (nd, w))
    return dist, pred


@_memoised
def shortest_paths(g: WeightedGraph, sources: Iterable[int]
                   ) -> tuple[dict[int, Fraction], dict[int, Edge]]:
    """Multi-source Dijkstra.  Returns (distance, predecessor edge) maps;
    unreachable vertices are simply absent from the distance map."""
    return _dijkstra(g, sources)


def distance(g: WeightedGraph, s: int, t: int) -> Fraction | None:
    """Shortest s-t distance, or None when t is unreachable: read from a
    kept shortest_paths(g, [s]), or else from a search that stops as soon
    as t is settled."""
    full = shortest_paths.peek(g, [s])
    return (full or _dijkstra(g, [s], t))[0].get(t)


def diameter(g: WeightedGraph) -> Fraction:
    """Largest distance between two vertices of a nonempty graph, from a
    few memoised searches (Takes & Kosters, BoundingDiameters, 2011).

    A search from w with eccentricity e puts every v's eccentricity between
    max(d(v, w), e - d(v, w)) and e + d(v, w).  A vertex stays a candidate
    while its upper bound exceeds the largest lower bound, which is the
    diameter once none is left.  The searches start at vertex 0, then
    alternate between the candidate with the largest upper bound and the
    one with the smallest lower bound, ties to the smallest id.  Raises
    Disconnected naming vertex 0 and the smallest vertex it cannot reach.
    """
    lo, hi = [0] * g.n, [float("inf")] * g.n
    candidates = range(g.n)
    best, w, widest = 0, 0, True
    while True:
        dist, _ = shortest_paths(g, [w])
        if len(dist) < g.n:
            v = next(v for v in range(g.n) if v not in dist)
            raise Disconnected(f"vertices 0 and {v} are not connected")
        e = max(dist.values())
        for v in candidates:
            d = dist[v]
            lo[v] = max(lo[v], d, e - d)
            hi[v] = min(hi[v], e + d)
        best = max(best, max(lo[v] for v in candidates))
        candidates = [v for v in candidates if hi[v] > best]
        if not candidates:
            return best
        w = min(candidates, key=lambda v: (-hi[v] if widest else lo[v], v))
        widest = not widest


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
    usable in both directions; (arc heads, capacities, per vertex the
    (arc, head) pairs of the arcs out of it, per arc its edge id)."""
    to: list[int] = []
    cap: list = []
    out: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e in g.edges:
        out[e.u].append((len(to), e.v))
        out[e.v].append((len(to) + 1, e.u))
        to += (e.v, e.u)
        cap += (e.cost, e.cost)
    return (tuple(to), tuple(cap), tuple(map(tuple, out)),
            tuple(e.eid for e in g.edges for _ in "uv"))


@_memoised
def _toward(g: WeightedGraph, root: int) -> tuple[int, ...]:
    """A breadth-first tree toward the root over the priced arcs of
    _flow_arcs(g): per vertex the arc out of it to its parent, -2 at the
    root and -1 where no priced path reaches the root."""
    _, capacity, out, _ = _flow_arcs(g)
    up = [-1] * g.n
    up[root] = -2
    queue = [root]
    for v in queue:
        for a, w in out[v]:
            if up[w] == -1 and capacity[a]:
                up[w] = a ^ 1
                queue.append(w)
    return tuple(up)


@_memoised
def min_cut(g: WeightedGraph, root: int, terminals: Iterable[int]
            ) -> tuple[Fraction, EdgeSet]:
    """Cheapest edge set separating every terminal from the root.

    Exact max-flow via augmenting paths, from a greedy seed: each priced
    arc out of a terminal, in terminal then edge order, whose head is not a
    terminal and lies on _toward(g, root)'s tree pushes its bottleneck
    along the arc and the head's tree path (which may pass through another
    terminal).  Then each round is one BFS from all the terminals at once
    (the search a super-source joined to them by uncapacitated arcs would
    make).  When it reaches the root, every arc w -> root whose tail it
    labelled, in out[root] order, extends w's search-tree path, and each
    such path gets its bottleneck pushed as re-read after the earlier
    pushes of the round.  The loop ends only when a search fails, so the
    flow is maximum.  The cut is read off the arcs leaving the vertices
    that last search reached in the residual network; that set is the same
    for every maximum flow (the inclusion-minimal terminal side), so
    neither the seed nor how many paths a round pushes can change the cut.
    """
    term = sorted(set(terminals))
    if not term:
        return Fraction(0), EdgeSet.empty()
    if root in term:
        raise ValueError("root cannot be a terminal")
    to, capacity, out, eid = _flow_arcs(g)
    up = _toward(g, root)
    cap = list(capacity)
    flow = 0
    is_term = set(term)
    for t in term:
        for a, w in out[t]:
            if not cap[a] or w in is_term or up[w] == -1:
                continue
            path, least = [a], cap[a]
            while (b := up[w]) != -2:
                path.append(b)
                if cap[b] < least:
                    least = cap[b]
                w = to[b]
            if least:
                for b in path:
                    cap[b] -= least
                    cap[b ^ 1] += least
                flow += least
    while True:
        parent_arc = [-1] * g.n
        for t in term:
            parent_arc[t] = -2
        queue = term
        while queue and parent_arc[root] == -1:
            nxt = []
            for v in queue:
                for a, w in out[v]:
                    if parent_arc[w] == -1 and cap[a]:
                        parent_arc[w] = a
                        nxt.append(w)
            queue = nxt
        if parent_arc[root] == -1:
            break
        for a, v in out[root]:
            least = cap[a ^ 1]
            if parent_arc[v] == -1 or not least:
                continue
            path = [a ^ 1]
            while (b := parent_arc[v]) != -2:
                path.append(b)
                if cap[b] < least:
                    least = cap[b]
                v = to[b ^ 1]
            if least:
                for b in path:
                    cap[b] -= least
                    cap[b ^ 1] += least
                flow += least

    # the search that failed marked exactly the residual-reachable vertices
    cut_ids, cut_cost = [], 0
    for v in range(g.n):
        if parent_arc[v] != -1:
            for a, w in out[v]:
                if parent_arc[w] == -1:
                    cut_ids.append(eid[a])
                    cut_cost += capacity[a]
    if cut_cost != flow:
        raise InvariantViolation(
            f"max-flow value {flow} differs from the recovered cut {cut_cost}")
    return flow, EdgeSet(frozenset(cut_ids), Fraction(cut_cost))


def reach_tables(g: WeightedGraph, ids, source: int, cut: bool = False,
                 columns=None) -> tuple[int, list[int]]:
    """Reachability from the source for every owned subset of ids at once:
    full and, per vertex, the int whose bit M is set when the vertex is
    reached once the edges {ids[i] : bit i of M} are owned.  An owned edge
    is present, or with cut=True removed; an edge outside ids is owned
    under no M.  Each bit runs its own search, all in the same int
    operations: the edges relax in rounds until a round changes nothing.
    With columns = bit_columns(len(ids), order), bit p is mask order[p]."""
    full, columns = columns or bit_columns(len(ids))
    column = dict(zip(ids, columns))
    if cut:
        links = [(e.u, e.v, full & ~column.get(e.eid, 0)) for e in g.edges]
    else:
        links = [(e.u, e.v, column[e.eid]) for e in g.edges
                 if e.eid in column]
    reach = [0] * g.n
    reach[source] = full
    changed = True
    while changed:
        changed = False
        for u, v, present in links:
            ru, rv = reach[u], reach[v]
            both = (ru | rv) & present
            if both & ~ru:
                reach[u] = ru | both
                changed = True
            if both & ~rv:
                reach[v] = rv | both
                changed = True
    return full, reach


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


@_memoised
def spanning_forest(g: WeightedGraph) -> EdgeSet:
    """Minimum spanning forest by Kruskal: the edges by (cost, id), each
    kept when it joins two components."""
    uf = UnionFind(g.n)
    order = sorted(g.edges, key=lambda e: (e.cost, e.eid))
    return g.edge_set(e.eid for e in order if uf.union(e.u, e.v))


def mst_steiner_tree(g: WeightedGraph, terminals: Iterable[int]) -> EdgeSet:
    """2-approximate Steiner tree: MST of the terminal metric closure, with
    closure edges expanded back to shortest paths.  Each path is simple and
    joins two terminals, so every vertex of their union that is not a
    terminal meets two of its edges: no leaf needs pruning."""
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
    return g.edge_set(chosen)


def gw_steiner_forest(g: WeightedGraph, pairs: Iterable[Pair]) -> EdgeSet:
    """Primal-dual 2-approximate Steiner forest (Goemans & Williamson 1995).

    Active components (those separating some pair) grow uniform moats; the
    edge going tight first is merged (ties to the smallest edge id).  Each
    merge joins two components, so the merged edges form a forest with one
    path between the ends of each pair.  Dropping an edge on no such path
    leaves every path as it was, so reverse delete, in any order, keeps
    exactly the edges on the pairs' paths: they are read off the forest.

    Event times stay exact on ints: each edge's slack (cost minus paid) is
    kept as an int count of a money unit, first 1/L for L the LCM of the
    costs' denominators.  An edge touched by `rate` growing moats (1 or 2)
    goes tight after dt = slack/rate, so 2*dt = slack * (2 // rate) is an
    int; when the earliest one is odd the unit is halved, doubling every
    slack, which happens at most once per merge.

    Each vertex carries its component's label; a merge relabels the smaller
    side.  One pass over the live edges per merge drops those inside a
    component for good and files the rest by rate; only rated edges are
    charged.
    """
    return _gw_forest(g, *[x for p in pairs for x in p])[1]


@_memoised
def _gw_forest(g: WeightedGraph, *flat: int):
    """gw_steiner_forest's run on the pairs' (s, t, pid) ints in a row, kept
    in order: the ids of the edges merged, in merge order, and the forest."""
    plist = [Pair(*flat[i:i + 3]) for i in range(0, len(flat), 3)
             if flat[i] != flat[i + 1]]
    comp, merged = list(range(g.n)), []
    members = [[v] for v in range(g.n)]
    forest: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    _, costs = scaled_to_ints([e.cost for e in g.edges])
    # [eid, u, v, slack] by eid, so the first of equal event times wins
    live = sorted([e.eid, e.u, e.v, c] for e, c in zip(g.edges, costs))
    while plist := [p for p in plist if comp[p.s] != comp[p.t]]:
        act = bytearray(g.n)
        for p in plist:
            act[comp[p.s]] = act[comp[p.t]] = 1
        crossing, ones, twos = [], [], []
        best = best_2dt = None
        for edge in live:
            _, u, v, two_dt = edge
            cu, cv = comp[u], comp[v]
            if cu == cv:
                continue
            crossing.append(edge)
            rate = act[cu] + act[cv]
            if rate == 2:
                twos.append(edge)
            elif rate:
                ones.append(edge)
                two_dt *= 2
            else:
                continue
            if best is None or two_dt < best_2dt:
                best, best_2dt = edge, two_dt
        if best is None:
            raise Disconnected(f"pair {plist[0].pid} cannot be connected")
        live = crossing
        if best_2dt % 2:
            for edge in live:
                edge[3] *= 2
            best_2dt *= 2
        for edge in ones:
            edge[3] -= best_2dt // 2
        for edge in twos:
            edge[3] -= best_2dt
        eid, u, v, _ = best
        merged.append(eid)
        forest[u].append((v, eid))
        forest[v].append((u, eid))
        a, b = comp[u], comp[v]
        if len(members[a]) < len(members[b]):
            a, b = b, a
        for w in members[b]:
            comp[w] = a
        members[a] += members[b]

    # hang each tree from its label vertex, then walk every pair's ends up
    # to where they meet
    depth, up = [0] * g.n, [(-1, -1)] * g.n
    stack = [v for v in range(g.n) if comp[v] == v]
    while stack:
        x = stack.pop()
        for y, eid in forest[x]:
            if y != up[x][0]:
                up[y], depth[y] = (x, eid), depth[x] + 1
                stack.append(y)
    kept = set()
    for s, t in zip(flat[::3], flat[1::3]):
        while s != t:
            if depth[s] < depth[t]:
                s, t = t, s
            s, eid = up[s]
            kept.add(eid)
    return tuple(merged), g.edge_set(kept)


def zero_edges(g: WeightedGraph, es) -> WeightedGraph:
    """Copy of the graph with the listed edges' costs set to zero; the
    graph itself when none is listed."""
    ids = g.known_ids(es)
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
    ids = g.known_ids(es)
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


_INHERITED = {   # by how the edges above c_f go: per memoised primitive,
    # what the instance computes first, and the edges and vertices an
    # instance entry (args, result) used, all of which h must keep as they are
    "contract": ((min_cut, lambda g, h: [min_cut(g, g.root, [r]) for r in
                                         set(h.rep) - {g.root}],
                  lambda a, cut: (cut[1].ids, (a[0], *a[1]))),),
    "delete": (
        (shortest_paths, None,
         lambda a, run: ([e.eid for e in run[1].values()], ())),
        (spanning_forest, None, lambda a, forest: (forest.ids, ())),
        (_gw_forest, None, lambda a, run: (run[0], ())))}


def preprocess_cost_scaling(g: WeightedGraph, schedule: Schedule,
                            f_guess: int, merge_r=2) -> PreprocessResult:
    """Scale the instance under a guess f of the costliest edge ever bought.

    Edges pricier than c_f are deleted, edges cheaper than c_f/n^2 are
    prepaid on day 0 and then zeroed; a rooted graph is a cut instance, so
    there the pricier edges are contracted (treated as uncuttable) and the
    cheaper ones deleted.  Changing no edge keeps g itself, memo and all.
    Days whose inflation exceeds n^2 times the remaining cost spread are
    dropped and the rest merged to a doubling inflation subsequence: the
    cost spread is at most n^2 and the horizon at most log2(max kept lam).

    A scaled graph that changed edges and prepaid none inherits each
    instance entry of _INHERITED that used none of the changed edges and
    names only vertices that stand for themselves in it, as its own; for a
    cut the instance first computes its root cut of each of the scaled
    graph's units, so all guesses share one max-flow per unit.  A cut: the
    contracted graph's sides are instance sides of the same cost, among
    them the instance's minimal minimum side, inside every minimum side.  A
    search keeps its pred tree and distances, so it settles in the same
    (distance, id) order, each pred first at its distance.  Kruskal's
    (cost, id) order is a prefix, and each GW round's argmin survives.
    """
    validate_schedule(schedule, None)
    cf = g.edge_by_id(f_guess).cost
    n2 = g.n * g.n
    mode = "delete" if g.root is None else "contract"
    high = {e.eid for e in g.edges if e.cost > cf}
    h = delete_or_contract(g, high, mode) if high else g
    low = [e.eid for e in h.edges if e.cost * n2 < cf]
    prepaid = h.edge_set(low)
    if low:
        h = (zero_edges(h, low) if g.root is None
             else delete_or_contract(h, low, "delete"))
    elif high:
        for fn, first, used in _INHERITED[mode]:
            if first:
                first(g, h)
            for args, result in fn.entries(g):
                ids, vertices = used(args, result)
                if high.isdisjoint(ids) and all(
                        h.representative(v) == v for v in vertices):
                    fn.keep(h, result, *args)
    priced = [e.cost for e in h.edges if e.cost > 0]
    horizon = schedule.horizon
    if priced:
        scale, lam, _ = schedule.priced
        cap, cheapest = n2 * max(priced) * scale, min(priced)
        while horizon > 0 and lam[horizon] * cheapest > cap:
            horizon -= 1
    merged, kept = schedule.merged(horizon, merge_r)
    return PreprocessResult(h, merged, prepaid, kept, f_guess)
