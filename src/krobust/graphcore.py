"""Exact-rational graph primitives shared by the cut and Steiner solvers.

All algorithms work with Fraction costs and break ties by the smallest
numeric id, so identical inputs always give identical outputs.  Edge ids are
positions in the original edge tuple and stay stable under zeroing, deletion
and contraction.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Iterable, NamedTuple, Sequence

from .errors import Disconnected, InvariantViolation, UnknownEdge
from .model import MINCUT, Schedule, merge_stages


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


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected multigraph on vertices 0..n-1.

    root is set for cut instances, pairs for forest instances.  rep carries
    the vertex-merge map after contraction (identity when None); merged-away
    vertex ids keep existing so ids stay stable.  _memo holds the results
    of the memoised primitives; it takes no part in equality, hashing or
    repr, and every derived graph starts with an empty one.
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
                raise ValueError(f"edge {e.eid} endpoint out of range")
            if e.u == e.v:
                raise ValueError(f"edge {e.eid} is a self-loop")
            if e.cost < 0:
                raise ValueError(f"edge {e.eid} has negative cost")
        ps = tuple(Pair(int(s), int(t), i + 1) for i, (s, t) in enumerate(pairs))
        for p in ps:
            if not (0 <= p.s < n and 0 <= p.t < n):
                raise ValueError(f"pair {p.pid} endpoint out of range")
        if root is not None and not 0 <= root < n:
            raise ValueError(f"root {root} out of range")
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

    def adjacency(self) -> list[list[Edge]]:
        adj: list[list[Edge]] = [[] for _ in range(self.n)]
        for e in self.edges:
            adj[e.u].append(e)
            adj[e.v].append(e)
        return adj


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


def _dijkstra(g: WeightedGraph, sources: Iterable[int],
              target: int | None = None
              ) -> tuple[dict[int, Fraction], dict[int, Edge]]:
    dist: dict[int, Fraction] = {}
    pred: dict[int, Edge] = {}
    heap = []
    for s in sorted(set(sources)):
        dist[s] = Fraction(0)
        heapq.heappush(heap, (Fraction(0), s))
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
def min_cut(g: WeightedGraph, root: int, terminals: Iterable[int]
            ) -> tuple[Fraction, EdgeSet]:
    """Cheapest edge set separating every terminal from the root.

    Exact max-flow via augmenting paths (BFS) over a super-source attached to
    all terminals; the cut is recovered from residual reachability.
    """
    term = sorted(set(terminals))
    if not term:
        return Fraction(0), EdgeSet.empty()
    if root in term:
        raise ValueError("root cannot be a terminal")
    n = g.n
    src = n
    # paired arcs: arc 2i is u->v with capacity c, arc 2i+1 is its reverse,
    # also with capacity c so the edge is usable in both directions
    to: list[int] = []
    cap: list[Fraction] = []
    head: list[list[int]] = [[] for _ in range(n + 1)]

    def add(u: int, v: int, c_uv: Fraction, c_vu: Fraction) -> None:
        head[u].append(len(to))
        to.append(v)
        cap.append(c_uv)
        head[v].append(len(to))
        to.append(u)
        cap.append(c_vu)

    for e in g.edges:
        add(e.u, e.v, e.cost, e.cost)
    inf = sum((e.cost for e in g.edges), Fraction(1))
    for t in term:
        add(src, t, inf, Fraction(0))

    flow = Fraction(0)
    while True:
        parent_arc = [-1] * (n + 1)
        parent_arc[src] = -2
        queue = [src]
        while queue and parent_arc[root] == -1:
            nxt = []
            for v in queue:
                for a in head[v]:
                    w = to[a]
                    if parent_arc[w] == -1 and cap[a] > 0:
                        parent_arc[w] = a
                        nxt.append(w)
            queue = nxt
        if parent_arc[root] == -1:
            break
        bottleneck = None
        v = root
        while v != src:
            a = parent_arc[v]
            bottleneck = cap[a] if bottleneck is None else min(bottleneck, cap[a])
            v = to[a ^ 1]
        v = root
        while v != src:
            a = parent_arc[v]
            cap[a] -= bottleneck
            cap[a ^ 1] += bottleneck
            v = to[a ^ 1]
        flow += bottleneck

    reach = {src}
    queue = [src]
    while queue:
        nxt = []
        for v in queue:
            for a in head[v]:
                w = to[a]
                if w not in reach and cap[a] > 0:
                    reach.add(w)
                    nxt.append(w)
        queue = nxt
    cut_ids = frozenset(e.eid for e in g.edges
                        if (e.u in reach) != (e.v in reach))
    es = g.edge_set(cut_ids)
    if es.cost != flow:
        raise InvariantViolation(
            f"max-flow value {flow} differs from the recovered cut {es.cost}")
    return flow, es


def separates(g: WeightedGraph, root: int, ids: Collection[int],
              targets: Collection[int]) -> bool:
    """Whether removing the listed edges leaves every target unreachable
    from the root."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for e in g.edges:
        if e.eid not in ids:
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
    seen = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        if v in targets:
            return False
        for w in adj[v]:
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
    reverse-delete pass drops every edge not needed for connectivity.  All
    event times are exact rationals.
    """
    plist = [p for p in pairs if p.s != p.t]
    if not plist:
        return EdgeSet.empty()
    uf = UnionFind(g.n)
    paid = {e.eid: Fraction(0) for e in g.edges}
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
        best_dt = None
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
            dt = (e.cost - paid[e.eid]) / rate
            if best_dt is None or dt < best_dt or (dt == best_dt and e.eid < best_eid):
                best_dt, best_eid = dt, e.eid
        if best_eid is None:
            missing = next(p for p in plist if uf.find(p.s) != uf.find(p.t))
            raise Disconnected(f"pair {missing.pid} cannot be connected")
        for eid, rate in rates.items():
            paid[eid] += best_dt * rate
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
    edges = tuple(Edge(e.u, e.v, Fraction(0), e.eid) if e.eid in ids else e
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


def preprocess_cost_scaling(g: WeightedGraph, schedule: Schedule, kind: str,
                            f_guess: int, merge_r=2) -> PreprocessResult:
    """Scale the instance under a guess f of the costliest edge ever bought.

    Edges pricier than c_f are deleted (contracted for cuts: they are treated
    as uncuttable), edges cheaper than c_f/n^2 are prepaid on day 0 and then
    zeroed (deleted for cuts).  Days whose inflation exceeds n^2 times the
    remaining cost spread are dropped, and the rest is merged down to a
    doubling inflation subsequence.  The surviving cost spread is at most n^2
    and the merged horizon is at most log2 of the largest kept inflation.
    """
    cf = g.edge_by_id(f_guess).cost
    n2 = Fraction(g.n * g.n)
    high = [e.eid for e in g.edges if e.cost > cf]
    if high:
        g = delete_or_contract(g, high, "contract" if kind == MINCUT else "delete")
    low = [e.eid for e in g.edges if e.cost < cf / n2]
    prepaid = g.edge_set(low)
    if low:
        g = delete_or_contract(g, low, "delete") if kind == MINCUT else zero_edges(g, low)
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
