"""Graph primitives: shortest paths, min-cut, Steiner heuristics, surgery."""

import heapq
import random
from dataclasses import fields, replace
from fractions import Fraction
from math import lcm

import pytest

from krobust import graphcore, mincut, steiner
from krobust.errors import Disconnected, Infeasible, UnknownEdge
from krobust.fixtures import gen_random
from krobust.graphcore import (
    EdgeSet,
    Pair,
    UnionFind,
    WeightedGraph,
    delete_or_contract,
    distance,
    gw_steiner_forest,
    min_cut,
    mst_steiner_tree,
    path_edges,
    preprocess_cost_scaling,
    shortest_paths,
    zero_edges,
)
from krobust.model import (KINDS, MINCUT, STEINERFOREST, STEINERTREE, Schedule,
                           evaluate_thrifty, guess_grid, solve_thrifty)
from krobust.oracle import SizeLimits, exact_min, opt_bounds

from conftest import connects, grid_plans, scaled_candidates, separates

F = Fraction


def _triangle():
    return WeightedGraph.build(3, [(0, 1, 1), (0, 2, 2), (1, 2, 10)], root=0)


@pytest.mark.parametrize("edges,kwargs,msg", [
    ([(0, 3, 1)], {}, "out of range"),
    ([(1, 1, 1)], {}, "self-loop"),
    ([(0, 1, -2)], {}, "negative cost"),
    ([(0, 1, 1)], {"root": 5}, "out of range"),
    ([(0, 1, 1)], {"pairs": [(0, 7)]}, "out of range"),
    ([(0, 1.9, 1)], {}, "edge 0 endpoint is not an integer"),
    ([(True, 2, 1)], {}, "edge 0 endpoint is not an integer"),
    ([(0, 1, 1)], {"root": 1.5}, "root 1.5 is not an integer"),
    ([(0, 1, 1)], {"root": True}, "root True is not an integer"),
    ([(0, 1, 1)], {"pairs": [(0, 2.0)]}, "pair 1 endpoint is not an integer"),
])
def test_build_rejects(edges, kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        WeightedGraph.build(3, edges, **kwargs)


def test_build_assigns_ids():
    g = WeightedGraph.build(3, [(0, 1, "1/2"), (1, 2, 3)], pairs=[(0, 2)])
    assert [e.eid for e in g.edges] == [0, 1]
    assert g.edges[0].cost == F(1, 2)
    assert g.pairs[0].pid == 1
    assert g.edge_set((0, 1)).cost == F(7, 2)
    with pytest.raises(UnknownEdge):
        g.edge_by_id(9)
    with pytest.raises(UnknownEdge):
        g.edge_set((0, 9))


def test_shortest_paths_and_reconstruction():
    g = WeightedGraph.build(4, [(0, 1, 1), (1, 2, 2), (0, 3, 10), (2, 3, 1)])
    dist, pred = shortest_paths(g, [0])
    assert dist == {0: 0, 1: 1, 2: 3, 3: 4}
    assert path_edges(pred, {0}, 3) == [3, 1, 0]
    # multi-source takes the nearer origin
    dist2, _ = shortest_paths(g, [0, 3])
    assert dist2[2] == 1


def test_min_cut_triangle():
    g = _triangle()
    flow, cut = min_cut(g, 0, {1, 2})
    assert flow == 3 and cut.ids == frozenset({0, 1})
    assert min_cut(g, 0, {1})[0] == 3
    assert min_cut(g, 0, ())[0] == 0
    with pytest.raises(ValueError):
        min_cut(g, 0, {0, 1})


def test_min_cut_matches_exhaustive_search():
    rng = random.Random(11)
    limits = SizeLimits(max_units=64, max_actions=12, max_horizon=9)
    for seed in range(30):
        g = gen_random(MINCUT, 3 + seed % 3, 5 + seed % 4, 1, seed).payload
        terms = set(rng.sample(range(1, g.n), rng.randint(1, g.n - 1)))
        flow, cut = min_cut(g, 0, terms)
        assert flow == exact_min(MINCUT, g, terms, limits)
        assert cut.cost == flow


def _random_rooted_multigraph(rng, n):
    """A rooted multigraph on n vertices with root 0, and one to five
    terminals: int or Fraction costs with zeros among them, parallel
    edges, and at times a vertex no edge touches."""
    costs = rng.choice(((0, 1, 2, 3), (0, F(1, 2), F(3, 4), 2), (1,),
                        (0, 1, 5, 9, F(7, 3))))
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.sample(range(n), 2)
        edges += [(u, v, rng.choice(costs))] * rng.choice((1, 1, 1, 2))
    terms = rng.sample(range(1, n), rng.randint(1, min(5, n - 1)))
    return WeightedGraph.build(n, edges, root=0), terms


def _single_path_min_cut(g, root, terminals):
    """Reference max-flow: one augmenting path per breadth-first search
    from the terminals, the cut read off the last, failing search."""
    term = sorted(set(terminals))
    to, cap, out = [], [], [[] for _ in range(g.n)]
    for e in g.edges:   # arc 2i along edge i from u to v, arc 2i+1 back
        out[e.u].append(len(to))
        out[e.v].append(len(to) + 1)
        to += (e.v, e.u)
        cap += (e.cost, e.cost)
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
    ids = frozenset(e.eid for e in g.edges
                    if (parent_arc[e.u] == -1) != (parent_arc[e.v] == -1))
    return flow, ids, sum((e.cost for e in g.edges if e.eid in ids), F(0))


def test_min_cut_matches_single_path_loop():
    # many root arcs per round and paths sharing tree arcs are where the
    # multi-path rounds must re-read each bottleneck; the cut ids pin the
    # inclusion-minimal side, which a maximum flow alone does not fix
    rng = random.Random(29)
    multi_round = 0
    for _ in range(1200):
        n = rng.randint(2, 40)
        g, terms = _random_rooted_multigraph(rng, n)
        flow, cut = min_cut(g, 0, terms)
        assert (flow, cut.ids, cut.cost) == _single_path_min_cut(g, 0, terms)
        multi_round += sum(e.cost > 0 and 0 in (e.u, e.v)
                           for e in g.edges) >= 3 and flow > 0
    assert multi_round >= 500


def test_min_cut_ids_are_the_minimal_terminal_side_by_enumeration():
    # the cut must be the edges leaving the intersection of every cheapest
    # terminal side, found here by listing all vertex subsets
    rng = random.Random(31)
    zero_crossing = cut_off = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        g, terms = _random_rooted_multigraph(rng, n)
        rest = [v for v in range(1, n) if v not in terms]
        best, minimal = None, None
        for mask in range(1 << len(rest)):
            side = set(terms) | {v for i, v in enumerate(rest) if mask >> i & 1}
            cost = sum(e.cost for e in g.edges if (e.u in side) != (e.v in side))
            if best is None or cost < best:
                best, minimal = cost, side
            elif cost == best:
                minimal &= side
        flow, cut = min_cut(g, 0, terms)
        assert flow == best and cut.cost == best
        assert cut.ids == {e.eid for e in g.edges
                           if (e.u in minimal) != (e.v in minimal)}
        zero_crossing += any(g.edges[i].cost == 0 for i in cut.ids)
        cut_off += any(separates(g, 0, (), [t]) for t in terms)
    assert zero_crossing >= 100 and cut_off >= 100


def _priced_depths(g, root, priced=True):
    """Breadth-first depth from the root of every vertex it reaches over
    the edges of positive cost, or with priced=False over every edge."""
    depth, frontier = {root: 0}, [root]
    while frontier:
        nxt = []
        for v in frontier:
            for e in g.edges:
                w = e.u + e.v - v
                if v in (e.u, e.v) and (e.cost or not priced) \
                        and w not in depth:
                    depth[w] = depth[v] + 1
                    nxt.append(w)
        frontier = nxt
    return depth


def test_seeded_min_cut_matches_single_path_reference():
    # the greedy seed pushes along _toward's tree before any search: it
    # must be a tree over priced edges only, a push must stop at its
    # terminal arc's capacity, and a head off the tree or a tree path
    # through another terminal must leave the flow valid
    rng = random.Random(37)
    saturated = off_tree = via_terminal = zero_kept_out = 0
    for _ in range(500):
        g, terms = _random_rooted_multigraph(rng, rng.randint(2, 30))
        cases = [(g, 0, terms),
                 (g, 0, rng.sample(range(1, g.n), rng.randint(1, g.n - 1)))]
        if g.edges:
            h = delete_or_contract(g, rng.sample(
                [e.eid for e in g.edges], rng.randint(1, min(3, len(g.edges)))),
                "contract")
            root = h.representative(0)
            cases.append((h, root, {h.representative(t) for t in terms} - {root}))
        for h, root, ts in cases:
            depth, up = _priced_depths(h, root), graphcore._toward(h, root)
            zero_kept_out += depth != _priced_depths(h, root, priced=False)
            for v in range(h.n):
                if v == root or v not in depth:
                    assert up[v] == (-2 if v == root else -1)
                    continue
                e = h.edges[up[v] >> 1]
                tail, head = (e.u, e.v) if up[v] % 2 == 0 else (e.v, e.u)
                assert e.cost and tail == v and depth[head] == depth[v] - 1
            firsts = []
            for t in sorted(ts):
                for e in h.edges:
                    w = e.u + e.v - t
                    if t not in (e.u, e.v) or not e.cost or w in ts:
                        continue
                    if w not in depth:
                        off_tree += 1
                        continue
                    path = []
                    while w != root:
                        path.append(h.edges[up[w] >> 1])
                        w = path[-1].u + path[-1].v - w
                    via_terminal += any(f.u in ts and f.u != t or
                                        f.v in ts and f.v != t for f in path)
                    firsts.append(all(e.cost < f.cost for f in path))
            saturated += firsts[:1] == [True]
            flow, cut = min_cut(h, root, ts)
            assert (flow, cut.ids, cut.cost) == _single_path_min_cut(
                h, root, ts)
    assert min(saturated, off_tree, via_terminal, zero_kept_out) >= 200, (
        saturated, off_tree, via_terminal, zero_kept_out)


def test_union_find():
    uf = UnionFind(4)
    assert uf.union(0, 1)
    assert not uf.union(1, 0)
    assert uf.find(0) == uf.find(1)
    assert uf.find(2) != uf.find(3)


def test_mst_steiner_square():
    g = WeightedGraph.build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 5)])
    assert mst_steiner_tree(g, {0, 2}).ids == frozenset({0, 1})
    assert mst_steiner_tree(g, range(4)).ids == frozenset({0, 1, 2})
    assert mst_steiner_tree(g, {1}).ids == frozenset()


def test_mst_steiner_disconnected():
    g = WeightedGraph.build(4, [(0, 1, 1), (2, 3, 1)])
    with pytest.raises(Disconnected):
        mst_steiner_tree(g, {0, 2})


def test_mst_steiner_random_quality():
    limits = SizeLimits(max_units=64, max_actions=12, max_horizon=9)
    rng = random.Random(5)
    for seed in range(25):
        g = gen_random(STEINERTREE, 4 + seed % 3, 6 + seed % 5, 1, seed).payload
        terms = set(rng.sample(range(g.n), rng.randint(2, g.n)))
        es = mst_steiner_tree(g, terms)
        opt = exact_min(STEINERTREE, g, terms, limits)
        assert opt <= es.cost <= 2 * opt
        # connectivity and no non-terminal leaves
        uf = UnionFind(g.n)
        degree = {}
        for eid in es.ids:
            e = g.edge_by_id(eid)
            uf.union(e.u, e.v)
            degree[e.u] = degree.get(e.u, 0) + 1
            degree[e.v] = degree.get(e.v, 0) + 1
        t0 = next(iter(terms))
        assert all(uf.find(t) == uf.find(t0) for t in terms)
        assert all(v in terms for v, d in degree.items() if d == 1)


def _rescan_mst_steiner_tree(g, terminals):
    """Reference mst_steiner_tree: the same closure MST, pruned by the loop
    that recounts every degree and rescans the chosen edges after each
    removal.  Also returns how many edges the pruning removed."""
    term = sorted(set(terminals))
    if len(term) <= 1:
        return EdgeSet.empty(), 0
    dists, preds = {}, {}
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
    chosen = set()
    for d, a, b in closure:
        if uf.union(a, b):
            chosen.update(path_edges(preds[a], {a}, b))
    term_set = set(term)
    by_id = {e.eid: e for e in g.edges}
    dropped = 0
    while True:
        degree = {}
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
        dropped += 1
    return g.edge_set(chosen), dropped


def test_mst_steiner_tree_matches_pruning_loop():
    # the union of simple terminal-to-terminal paths has no non-terminal
    # leaf, so the tree is what the loop that pruned such leaves bought and
    # that loop never removed an edge; cheap tied costs and parallel edges
    # make the paths branch and loop
    rng = random.Random(2024)
    steiner_points = parallel = disconnected = 0
    for _ in range(400):
        n = rng.randint(2, 10)
        edges = []
        for _ in range(rng.randint(1, 2 * n)):
            u, v = (rng.choice(edges)[:2] if edges and rng.random() < 0.25
                    else rng.sample(range(n), 2))
            edges.append((u, v, rng.choice((0, 1, 1, 2, 3, "1/2"))))
        parallel += len({frozenset(e[:2]) for e in edges}) < len(edges)
        g = WeightedGraph.build(n, edges)
        terms = rng.sample(range(n), rng.randint(1, n))
        try:
            want, dropped = _rescan_mst_steiner_tree(g, terms)
        except Disconnected as exc:
            disconnected += 1
            with pytest.raises(Disconnected) as got:
                mst_steiner_tree(g, terms)
            assert str(got.value) == str(exc)
            continue
        assert repr(mst_steiner_tree(g, terms)) == repr(want)
        assert dropped == 0
        ends = {x for eid in want.ids for x in g.edge_by_id(eid)[:2]}
        steiner_points += not ends <= set(terms)
    assert min(steiner_points, parallel, disconnected) >= 10, (
        steiner_points, parallel, disconnected)


def test_gw_forest_path_and_reverse_delete():
    g = WeightedGraph.build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)],
                            pairs=[(0, 1), (2, 3)])
    es = gw_steiner_forest(g, g.pairs)
    # the middle edge goes tight during growth but reverse-delete removes it
    assert es.ids == frozenset({0, 2}) and es.cost == 2

    g2 = WeightedGraph.build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)],
                             pairs=[(0, 3)])
    assert gw_steiner_forest(g2, g2.pairs).cost == 3


def test_gw_forest_ignores_settled_pairs():
    g = WeightedGraph.build(3, [(0, 1, 1), (1, 2, 1)], pairs=[(1, 1)])
    assert gw_steiner_forest(g, g.pairs).ids == frozenset()


def test_gw_forest_disconnected():
    g = WeightedGraph.build(4, [(0, 1, 1), (2, 3, 1)], pairs=[(0, 2)])
    with pytest.raises(Disconnected):
        gw_steiner_forest(g, g.pairs)


def _fraction_gw(g, pairs):
    """Reference primal-dual forest: the loop on Fraction event times that
    the int-slack loop replaced.  Also returns each merge's event time."""
    plist = [p for p in pairs if p.s != p.t]
    if not plist:
        return EdgeSet.empty(), []
    uf = UnionFind(g.n)
    paid = {e.eid: F(0) for e in g.edges}
    by_id = {e.eid: e for e in g.edges}
    added, times = [], []
    while True:
        act = set()
        for p in plist:
            rs, rt = uf.find(p.s), uf.find(p.t)
            if rs != rt:
                act |= {rs, rt}
        if not act:
            break
        best_dt = best_eid = None
        rates = {}
        for e in g.edges:
            ru, rv = uf.find(e.u), uf.find(e.v)
            rate = (ru in act) + (rv in act)
            if ru == rv or rate == 0:
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
        uf.union(by_id[best_eid].u, by_id[best_eid].v)
        added.append(best_eid)
        times.append(best_dt)
    kept = set(added)
    for eid in reversed(added):
        trial = kept - {eid}
        if connects(g, trial, [(p.s, p.t) for p in plist]):
            kept = trial
    return g.edge_set(kept), times


def _random_pairs(rng, n):
    return [Pair(*rng.sample(range(n), 2), pid)
            for pid in range(1, rng.randint(1, n) + 1)]


def test_int_gw_forest_matches_fraction_loop():
    # small graphs with few distinct costs make the near-ties where a
    # misplaced half unit changes the forest; zero and rational costs,
    # gen_random graphs and pairs left disconnected ride along.  Each graph
    # is run on its own pairs and on two random pair sets.
    rng = random.Random(17)
    palettes = ((1,), (1, 2), (1, 2, 3, F(1, 2), F(3, 2)), (0, 1, F(1, 2)))
    runs = half_unit_runs = disconnected = 0
    for seed in range(800):
        n = rng.randint(4, 8)
        if seed % 10 == 0:
            g = gen_random(STEINERFOREST, n, rng.randint(n - 1, 3 * n), 1,
                           seed).payload
        else:
            costs = palettes[seed % len(palettes)]
            g = WeightedGraph.build(n, [
                (*rng.sample(range(n), 2), rng.choice(costs))
                for _ in range(rng.randint(n // 2, 3 * n))],
                pairs=[p[:2] for p in _random_pairs(rng, n)])
        for pairs in (g.pairs, _random_pairs(rng, n), _random_pairs(rng, n)):
            try:
                want, times = _fraction_gw(g, pairs)
            except Disconnected as exc:
                with pytest.raises(Disconnected, match=str(exc)):
                    gw_steiner_forest(g, pairs)
                disconnected += 1
                continue
            assert gw_steiner_forest(g, pairs) == want
            # a merge time that is no whole number of the starting money
            # unit 1/L is where the int loop doubles its slacks
            unit = lcm(*(e.cost.denominator for e in g.edges))
            half_unit_runs += any((t * unit).denominator > 1 for t in times)
            runs += 1
    assert runs >= 1800 and disconnected >= 400
    assert half_unit_runs >= 1400


def _same_forest(g, pairs):
    """Compare gw_steiner_forest with the reference loop on one pair set;
    whether the pairs could be connected."""
    try:
        want, _ = _fraction_gw(g, pairs)
    except Disconnected as exc:
        with pytest.raises(Disconnected, match=str(exc)):
            gw_steiner_forest(g, pairs)
        return False
    assert gw_steiner_forest(g, pairs) == want
    return True


def test_gw_forest_matches_fraction_loop_on_larger_graphs():
    # n = 30..48 grows many moats at once, so merges of large components
    # and long pair paths in the grown forest get tested
    rng = random.Random(23)
    connected = 0
    for seed in range(8):
        n = 30 + 6 * (seed % 4)
        g = gen_random(STEINERFOREST, n, 3 * n, 1, seed).payload
        for pairs in (g.pairs, rng.sample(g.pairs, len(g.pairs) // 3)):
            connected += _same_forest(g, pairs)
    assert connected == 16


def test_gw_forest_matches_fraction_loop_after_cost_scaling():
    # the graphs cost scaling hands the forest: pricier edges deleted (so
    # some pairs come apart) and, where costs spread wider than n^2,
    # cheaper ones zeroed
    rng = random.Random(29)
    runs = disconnected = zeroed = 0
    for seed in range(6):
        inst = gen_random(STEINERFOREST, 14 + 2 * (seed % 3), 42, 2, seed)
        g = inst.payload.integral()[1]
        if seed % 2:
            g = WeightedGraph.build(g.n, [
                (e.u, e.v, rng.choice((1, 2, 3, 500, 900, 1000)))
                for e in g.edges], pairs=[p[:2] for p in g.pairs])
        for cost in sorted({e.cost for e in g.edges}):
            f = min(e.eid for e in g.edges if e.cost == cost)
            pre = preprocess_cost_scaling(g, inst.schedule, f)
            h = pre.graph
            zeroed += any(e.cost == 0 for e in h.edges)
            for pairs in (h.pairs, rng.sample(h.pairs, len(h.pairs) // 2)):
                runs += 1
                disconnected += not _same_forest(h, pairs)
    assert runs >= 60 and disconnected >= 10 and zeroed >= 5, (
        runs, disconnected, zeroed)


def test_gw_forest_reverse_deletes_without_connectivity_checks(monkeypatch):
    # reverse delete reads the pairs' paths off the grown forest; one
    # union-find connectivity check per merged edge would make it
    # quadratic again
    monkeypatch.setattr(graphcore, "UnionFind", None)
    g = gen_random(STEINERFOREST, 24, 72, 1, 3).payload
    assert gw_steiner_forest(g, g.pairs).ids


def test_zero_edges_keeps_ids():
    g = _triangle()
    z = zero_edges(g, (0,))
    assert z.edge_by_id(0).cost == 0
    assert z.edge_by_id(1).cost == 2
    assert z.root == 0
    with pytest.raises(UnknownEdge):
        zero_edges(g, (9,))


def test_delete_keeps_surviving_ids():
    g = _triangle()
    d = delete_or_contract(g, (1,), "delete")
    assert frozenset(e.eid for e in d.edges) == frozenset({0, 2})
    assert d.edge_by_id(2).cost == 10
    with pytest.raises(ValueError):
        delete_or_contract(g, (1,), "squash")


def test_contract_merges_and_remaps():
    g = WeightedGraph.build(3, [(0, 1, 1), (0, 2, 2), (1, 2, 10)],
                            root=0, pairs=[(1, 2)])
    c = delete_or_contract(g, (2,), "contract")
    assert c.representative(1) == c.representative(2)
    assert c.root == 0
    p = c.pairs[0]
    assert p.s == p.t and p.pid == 1
    # contracting edge 0 merges everything; the parallel edge 1 self-loops away
    c2 = delete_or_contract(c, (0,), "contract")
    assert frozenset(e.eid for e in c2.edges) == frozenset()
    assert c2.representative(1) == c2.representative(0)


def test_cut_monotone_under_surgery():
    rng = random.Random(3)
    checked = 0
    for seed in range(60):
        g = gen_random(MINCUT, 3 + seed % 4, 5 + seed % 5, 1, seed).payload
        ids = sorted(frozenset(e.eid for e in g.edges))
        sub = rng.sample(ids, rng.randint(1, len(ids)))
        terms = set(rng.sample(range(1, g.n), rng.randint(1, g.n - 1)))
        base = min_cut(g, 0, terms)[0]
        gd = delete_or_contract(g, sub, "delete")
        assert min_cut(gd, 0, terms)[0] <= base
        gc = delete_or_contract(g, [rng.choice(ids)], "contract")
        rep = gc.representative
        if rep(0) in {rep(t) for t in terms}:
            continue  # separating became impossible; trivially no cheaper
        assert min_cut(gc, rep(0), {rep(t) for t in terms})[0] >= base
        checked += 1
    assert checked >= 25


def test_preprocess_deletes_high_prepays_low():
    g = WeightedGraph.build(4, [(0, 1, 1), (1, 2, 1000), (2, 3, 1)])
    sched = Schedule.of([4, 2, 1], [1, 2, 32])
    pre = preprocess_cost_scaling(g, sched, f_guess=0)
    assert frozenset(e.eid for e in pre.graph.edges) == frozenset({0, 2})
    assert pre.prepaid.ids == frozenset() and pre.prepaid.cost == 0
    # spread is 1 so day 2 (lam 32 > 16) is dropped
    assert pre.kept_days == (0, 1)
    assert pre.schedule.lam == (F(1), F(2))
    assert pre.f_guess == 0

    pre2 = preprocess_cost_scaling(g, sched, f_guess=1)
    assert pre2.prepaid.ids == frozenset({0, 2}) and pre2.prepaid.cost == 2
    assert pre2.graph.edge_by_id(0).cost == 0
    assert pre2.graph.edge_by_id(1).cost == 1000


def test_preprocess_contracts_for_cuts():
    g = WeightedGraph.build(3, [(0, 1, 1), (0, 2, 2), (1, 2, 40)], root=0)
    sched = Schedule.of([2, 2, 1], [1, 2, 4])
    pre = preprocess_cost_scaling(g, sched, f_guess=1)
    assert pre.graph.representative(1) == pre.graph.representative(2)
    assert frozenset(e.eid for e in pre.graph.edges) == frozenset({0, 1})
    assert pre.kept_days == (0, 1, 2)


def test_preprocess_merge_ratio():
    g = WeightedGraph.build(3, [(0, 1, 1), (1, 2, 2)])
    sched = Schedule.of([3, 2, 2, 1], [1, 2, 4, 8])
    pre = preprocess_cost_scaling(g, sched, f_guess=1, merge_r=3)
    assert pre.schedule.lam == (F(1), F(4))
    assert pre.kept_days == (0, 2)


def test_preprocess_keeps_a_day_at_the_inflation_cap():
    # costs 2/5 and 3/5 on 3 vertices cap the inflation at 9 * 3/2 = 27/2,
    # compared cross-multiplied: a day at the cap stays, one above it goes
    g = WeightedGraph.build(3, [(0, 1, F(2, 5)), (1, 2, F(3, 5))])
    cap = F(27, 2)
    for h in (g, g.integral()[1]):
        for lam, kept in ((cap - F(1, 100), (0, 1)), (cap, (0, 1)),
                          (cap + F(1, 100), (0,))):
            sched = Schedule.of([3, 2], [1, lam])
            assert preprocess_cost_scaling(h, sched, 1).kept_days == kept


def test_distance_matches_shortest_paths():
    checked = 0
    for seed in range(24):
        kind = (MINCUT, STEINERTREE)[seed % 2]
        g = gen_random(kind, 3 + seed % 5, 6 + seed % 4, 1, seed).payload
        for s in range(g.n):
            dist, _ = shortest_paths(g, [s])
            for t in range(g.n):
                assert distance(g, s, t) == dist.get(t)
                checked += 1
    assert checked > 300


def test_distance_zero_costs_and_unreachable():
    g = WeightedGraph.build(4, [(0, 1, 0), (1, 2, 3), (0, 2, 5), (2, 3, 0)])
    assert distance(g, 2, 2) == 0
    assert distance(g, 0, 1) == 0
    assert distance(g, 0, 3) == 3
    assert distance(g, 3, 1) == 3
    split = WeightedGraph.build(4, [(0, 1, 1), (2, 3, 1)])
    assert distance(split, 0, 0) == 0
    assert distance(split, 0, 1) == 1
    assert distance(split, 0, 3) is None
    assert distance(split, 3, 0) is None


def test_distance_reads_a_kept_search(monkeypatch):
    g = _triangle()
    assert shortest_paths.peek(g, [1]) is None
    dist, _ = shortest_paths(g, [1])
    assert shortest_paths.peek(g, [1])[0] is dist
    monkeypatch.setattr(graphcore, "_dijkstra", None)   # no search may run
    for t in range(g.n):
        assert distance(g, 1, t) == dist[t]


def test_distance_keeps_an_unreachable_target(monkeypatch):
    # distance keeps nothing of its own: a fresh call runs one stopped
    # search, and once shortest_paths(g, [0]) is kept every call reads
    # None off it and searches no more
    g = WeightedGraph.build(4, [(0, 1, 1), (2, 3, 1)])
    searches = []
    search = graphcore._dijkstra

    def counted(*args):
        searches.append(args[1:])
        return search(*args)

    monkeypatch.setattr(graphcore, "_dijkstra", counted)
    assert distance(g, 0, 3) is None
    assert searches == [([0], 3)]
    shortest_paths(g, [0])
    assert searches == [([0], 3), (frozenset({0}),)]
    assert distance(g, 0, 3) is None and distance(g, 0, 3) is None
    assert len(searches) == 2


def _done_set_dijkstra(g, sources, target=None):
    """Reference search: the edges at each vertex read from g.edges, and a
    set of settled vertices that every later heap entry of theirs skips."""
    adj = [[] for _ in range(g.n)]
    for e in g.edges:
        adj[e.u].append(e)
        adj[e.v].append(e)
    dist, pred, heap, done = {}, {}, [], set()
    for s in sorted(set(sources)):
        dist[s] = 0
        heapq.heappush(heap, (0, s))
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        if v == target:
            break
        done.add(v)
        for e in adj[v]:
            w = e.v if e.u == v else e.u
            if w not in dist or d + e.cost < dist[w]:
                dist[w] = d + e.cost
                pred[w] = e
                heapq.heappush(heap, (d + e.cost, w))
    return dist, pred


def test_searches_match_the_done_set_reference():
    # a stale heap entry is skipped by its distance: every distance, pred
    # edge and early-stopped search must equal the done-set loop's, on
    # graphs with zero-cost edges, equal-distance ties and unreachable
    # vertices
    rng = random.Random(41)
    tied = zero_pred = unreachable = stopped = 0
    for _ in range(300):
        n = rng.randint(1, 14)
        costs = rng.choice(((0, 1, 2), (1,), (0, F(1, 2), 1, 3), (2, 5)))
        edges = []
        for _ in range(rng.randint(0, 3 * n) if n > 1 else 0):
            u, v = rng.sample(range(n), 2)
            edges += [(u, v, rng.choice(costs))] * rng.choice((1, 1, 2))
        g = WeightedGraph.build(n, edges)
        sources = rng.sample(range(n), rng.randint(1, min(3, n)))
        want = _done_set_dijkstra(g, sources)
        assert shortest_paths(g, sources) == want
        dist, pred = want
        unreachable += len(dist) < n
        zero_pred += any(e.cost == 0 for e in pred.values())
        tied += any(dist[e.u] + e.cost == dist[e.v] and pred[e.v] != e
                    for e in g.edges if e.u in dist and e.v in pred)
        fresh = replace(g)
        s = sources[0]
        for t in range(n):
            part = _done_set_dijkstra(g, [s], t)
            assert graphcore._dijkstra(g, [s], t) == part
            assert distance(fresh, s, t) == part[0].get(t)
            stopped += len(part[0]) < len(_done_set_dijkstra(g, [s])[0])
    assert min(tied, zero_pred, unreachable, stopped) >= 50, (
        tied, zero_pred, unreachable, stopped)


@pytest.mark.parametrize("seed", range(1, 6))
def test_tree_solve_searches_each_source_set_once(monkeypatch, seed):
    # a few searches for the bounds, which the nets and the MST closures
    # reuse, plus one residual search per guess
    inst = gen_random(STEINERTREE, 12, 36, 3, seed)
    lb, ub = opt_bounds(inst)
    g = replace(inst.payload)
    searches = []
    search = graphcore._dijkstra

    def counted(*args):
        searches.append(args[1])
        return search(*args)

    monkeypatch.setattr(graphcore, "_dijkstra", counted)
    KINDS[STEINERTREE].solve(g, inst.schedule)
    assert len(searches) <= g.n + len(guess_grid(lb, ub))


@pytest.mark.parametrize("kind", [MINCUT, STEINERTREE, STEINERFOREST])
def test_solves_leave_memoised_results_intact(monkeypatch, kind):
    # memoised results are shared between callers, so no caller may
    # mutate one; a cost-scaled graph also holds the root cuts, searches,
    # spanning trees and GW runs it shares with the instance, each of
    # which must be its own
    graphs, scaled = [], []
    scale = graphcore.preprocess_cost_scaling

    def kept(*args):
        pre = scale(*args)
        scaled.append(pre.graph)
        return pre

    monkeypatch.setattr(graphcore, "preprocess_cost_scaling", kept)
    for seed in range(4):
        inst = gen_random(kind, 7, 14, 2, seed)
        g = inst.payload
        for preprocess in (False, True):
            solve_thrifty(kind, g, inst.schedule, None, preprocess)
        # the solves ran on the int-cost copy memoised on the graph
        graphs += [g, g.integral()[1]]
    assert all(h._memo for h in graphs) and any(h._memo for h in scaled)
    for h in graphs + scaled:
        for (fn, *args), result in h._memo.items():
            assert fn(replace(h), *args) == result, (fn.__name__, args)


def _fraction_solve(kind, g, schedule, preprocess):
    """Reference driver on the Fraction graph itself: every grid plan (per
    distinct cost under cost scaling), evaluated, and the first with the
    lowest robcov."""
    candidates = []
    if preprocess:
        for cost in sorted({e.cost for e in g.edges}):
            f = min(e.eid for e in g.edges if e.cost == cost)
            try:
                candidates += scaled_candidates(kind, g, schedule, f, None, 2)
            except Infeasible:
                pass
    if not candidates:
        candidates = grid_plans(KINDS[kind], g, schedule, None)
    units = KINDS[kind].units(g)
    solved = [(plan, evaluate_thrifty(plan, schedule, units))
              for plan in candidates]
    return min(solved, key=lambda pr: pr[1].robcov)


@pytest.mark.parametrize("preprocess", [False, True])
@pytest.mark.parametrize("kind,searches", [
    (MINCUT, {"min_cut"}),
    (STEINERTREE, {"_dijkstra"}),
    (STEINERFOREST, {"_dijkstra", "gw_steiner_forest"})])
def test_driver_hands_primitives_int_costs(monkeypatch, kind, searches,
                                           preprocess):
    # costs over 2, 3 and 7: the driver solves on costs times 42 and
    # divides the plan's money back, which must give the Fraction plan
    called = set()

    def ints_only(fn):
        def checked(g, *args):
            called.add(fn.__name__)
            assert all(type(e.cost) is int for e in g.edges), fn.__name__
            return fn(g, *args)
        return checked

    for seed in range(3):
        rng = random.Random(seed)
        inst = gen_random(kind, 8, 16, 2, seed)
        g = WeightedGraph.build(
            inst.payload.n,
            [(e.u, e.v, F(rng.choice((1, 5, 11, 13)), (2, 3, 7, 1)[e.eid % 4]))
             for e in inst.payload.edges],
            inst.payload.root, [p[:2] for p in inst.payload.pairs])
        assert g.integral()[0] == 42
        want = _fraction_solve(kind, replace(g), inst.schedule, preprocess)
        with monkeypatch.context() as m:
            m.setattr(graphcore, "_dijkstra", ints_only(graphcore._dijkstra))
            m.setattr(mincut, "min_cut", ints_only(mincut.min_cut))
            m.setattr(steiner, "gw_steiner_forest",
                      ints_only(steiner.gw_steiner_forest))
            plan, report = solve_thrifty(kind, g, inst.schedule, None,
                                         preprocess)
        assert (plan.preprocess_f is not None) == preprocess
        for f in fields(plan):
            assert getattr(plan, f.name) == getattr(want[0], f.name), f.name
        assert report == want[1]
        money = (plan.guess, plan.tau, plan.day0_cost, report.day0_cost,
                 report.worst_day_cost, report.robcov,
                 *plan.residuals.values())
        assert all(type(x) is Fraction for x in money)
    assert called == searches


def test_memo_is_private_to_each_graph():
    g = _triangle()
    assert shortest_paths(g, [1, 2]) == shortest_paths(g, (2, 1, 1))
    assert min_cut(g, 0, [1, 2]) == min_cut(g, 0, {2, 1})
    assert distance(g, 1, 2) == 3
    # two results (distance keeps none), the adjacency list both searches
    # read, and the flow network and tree toward the root that min_cut reads
    assert sorted(fn.__name__ for fn, *_ in g._memo) == [
        "_flow_arcs", "_toward", "adjacency", "min_cut", "shortest_paths"]
    fresh = replace(g)
    assert fresh._memo == {}
    assert fresh == g and hash(fresh) == hash(g) and repr(fresh) == repr(g)
    assert zero_edges(g, ()) is g
    assert delete_or_contract(g, (), "delete") is g
    assert delete_or_contract(g, (), "contract").rep == (0, 1, 2)
    assert zero_edges(g, [0])._memo == {}
    assert delete_or_contract(g, [0], "delete")._memo == {}
    with pytest.raises(UnknownEdge):
        zero_edges(g, [9])
    with pytest.raises(UnknownEdge):
        delete_or_contract(g, [9], "delete")
    # a one-shot iterable is read once, for the key and the search alike
    assert shortest_paths(fresh, (v for v in [2, 1])) == shortest_paths(g, [1, 2])
    assert min_cut(fresh, 0, iter([2, 1])) == min_cut(g, 0, [1, 2])
