"""Exact minimax oracle, exhaustive plan evaluation, and bounds."""

import gc
import os
import random
import resource
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import krobust
from krobust.errors import BadParameters, Infeasible, TooLarge, TrivialInstance
from krobust.fixtures import gen_lowerbound_allstages, gen_random, gen_subset_krobust_bad
from krobust.graphcore import WeightedGraph
from krobust.model import (
    KINDS,
    MINCUT,
    PROBLEM_KINDS,
    SETCOVER,
    STEINERFOREST,
    STEINERTREE,
    SUBSET,
    ProblemInstance,
    Schedule,
    UncertaintySpec,
    bit_columns,
    scaled_to_ints,
)
from krobust.oracle import (
    _INF,
    SizeLimits,
    TraceNode,
    _Game,
    _CostOrder,
    check_plan_feasible,
    exact_min,
    exhaustive_robcov,
    minimax_opt,
    opt_bounds,
    partwise_minimax,
    scripted_worst_case,
)
from krobust.setcover import SetSystem, solve as solve_cover
from conftest import covers, set_pairs, solve_instance

F = Fraction


def _sc_hand(horizon=1):
    sys_ = SetSystem.build(2, [({1}, 1), ({2}, 2), ({1, 2}, F(5, 2))])
    sched = (Schedule.of([2, 1], [1, 2]) if horizon == 1
             else Schedule.of([2, 1, 1], [1, 2, 4]))
    return ProblemInstance(SETCOVER, sys_, sched)


def _triangle_inst(horizon=1):
    g = WeightedGraph.build(3, [(0, 1, 1), (0, 2, 2), (1, 2, 10)], root=0)
    sched = (Schedule.of([2, 1], [1, 3]) if horizon == 1
             else Schedule.of([2, 2, 1], [1, 2, 6]))
    return ProblemInstance(MINCUT, g, sched)


def _tree_inst():
    g = WeightedGraph.build(3, [(0, 1, 1), (1, 2, 1)])
    return ProblemInstance(STEINERTREE, g, Schedule.of([3, 2], [1, 2]))


def _forest_inst():
    g = WeightedGraph.build(4, [(i, i + 1, 1) for i in range(3)],
                            pairs=[(0, 3), (1, 2)])
    return ProblemInstance(STEINERFOREST, g, Schedule.of([2, 1], [1, 2]))


def test_size_limits():
    lim = SizeLimits()
    lim.check(8, 12, 3)
    with pytest.raises(TooLarge):
        lim.check(9, 1, 1)
    with pytest.raises(TooLarge):
        lim.check(1, 13, 1)
    with pytest.raises(TooLarge):
        lim.check(1, 1, 4)


def _by_cost_reference(costs):
    """Each mask's total from the mask without its lowest bit, then one
    sort of (total, mask) pairs."""
    totals = [0] * (1 << len(costs))
    for mask in range(1, len(totals)):
        low = mask & -mask
        totals[mask] = totals[mask ^ low] + costs[low.bit_length() - 1]
    return sorted(zip(totals, range(len(totals))))


def _by_cost(costs):
    ranked = _CostOrder(costs)
    return list(zip(map(ranked.totals.__getitem__, ranked.order), ranked.order))


def test_by_cost_matches_the_bitwise_construction():
    # cheapest first, ties to the smaller mask, on cost vectors with zeros
    # and many ties
    rng = random.Random("by-cost")
    for size in range(11):
        for _ in range(6):
            costs = tuple(rng.choice((0, 0, 1, 2, 3, 7)) for _ in range(size))
            assert _by_cost(costs) == _by_cost_reference(costs), costs
    assert _by_cost(()) == [(0, 0)]


def _permuted_columns(order, m):
    """The truth-table columns of m action bits by their definition: full,
    one bit per mask, and per i < m the int whose bit p is set when mask
    order[p] holds bit i."""
    return (1 << len(order)) - 1, tuple(
        int("".join(str(mask >> i & 1) for mask in reversed(order)), 2)
        for i in range(m))


@pytest.mark.parametrize("m", [0, 1, 8, 9, 16, 17])
def test_rank_columns_at_every_size(m):
    # in rank order and in mask order, at sizes one and two bytes of action
    # bits and past them
    costs = tuple(random.Random(m).choice((0, 1, 2, 5)) for _ in range(m))
    ranked = _CostOrder(costs)
    assert sorted(ranked.order) == list(range(1 << m))
    assert ranked.columns == _permuted_columns(ranked.order, m)
    assert bit_columns(m) == _permuted_columns(range(1 << m), m)


def test_exact_cover():
    sys_ = _sc_hand().payload
    assert exact_min(SETCOVER, sys_, (1, 2)) == F(5, 2)
    assert exact_min(SETCOVER, sys_, (1,)) == 1
    assert exact_min(SETCOVER, sys_, ()) == 0
    with pytest.raises(Infeasible):
        exact_min(SETCOVER, sys_, (9,))


def test_exact_graph_minima():
    g3 = WeightedGraph.build(3, [(0, 1, 1), (1, 2, 1)])
    assert exact_min(STEINERTREE, g3, (0, 1, 2)) == 2
    assert exact_min(STEINERTREE, g3, (0,)) == 0
    with pytest.raises(TooLarge):
        exact_min(STEINERTREE, g3, (0, 2),
                  SizeLimits(max_units=8, max_actions=1, max_horizon=3))
    # a forest's units are pair ids, numbered from 1
    g4 = WeightedGraph.build(4, [(i, i + 1, 1) for i in range(3)],
                             pairs=[(0, 3), (1, 2), (1, 1)])
    assert exact_min(STEINERFOREST, g4, (1, 2)) == 3
    assert exact_min(STEINERFOREST, g4, (3,)) == 0
    tri = _triangle_inst().payload
    assert exact_min(MINCUT, tri, (1, 2)) == 3
    assert exact_min(MINCUT, tri, ()) == 0


def test_exact_min_with_zero_actions():
    # with no action the one mask is the empty one: it covers or nothing does
    g = WeightedGraph.build(3, [], root=0, pairs=[(0, 1), (2, 2)])
    assert exact_min(SETCOVER, SetSystem.build(0, []), ()) == 0
    assert exact_min(STEINERTREE, g, (0,)) == 0
    assert exact_min(MINCUT, g, (1, 2)) == 0
    assert exact_min(STEINERFOREST, g, (2,)) == 0
    for kind, units in ((STEINERTREE, (0, 2)), (STEINERFOREST, (1, 2))):
        with pytest.raises(Infeasible, match="no action subset"):
            exact_min(kind, g, units)


def test_exact_min_rejects_ids_that_name_no_unit():
    # ids outside KINDS[kind].units would be ignored by the cover tables
    # and read 0
    g4 = WeightedGraph.build(4, [(i, i + 1, 1) for i in range(3)],
                             pairs=[(0, 3)])
    tri = _triangle_inst().payload
    for kind, payload, units in ((STEINERFOREST, g4, (1, 9)),
                                 (MINCUT, tri, (0,)), (MINCUT, tri, (7,)),
                                 (STEINERTREE, tri, (3,))):
        with pytest.raises(Infeasible, match="name no unit"):
            exact_min(kind, payload, units)


def test_minimax_hand_values():
    assert minimax_opt(_sc_hand())[0] == F(5, 2)
    assert minimax_opt(_sc_hand(horizon=2))[0] == F(5, 2)
    assert minimax_opt(_triangle_inst())[0] == 3
    assert minimax_opt(_triangle_inst(horizon=2))[0] == 3
    assert minimax_opt(_tree_inst())[0] == 2
    assert minimax_opt(_forest_inst())[0] == 3


def test_minimax_multi_inflation_trace():
    inst = gen_lowerbound_allstages(2, F(2, 5))
    opt, trace = minimax_opt(inst)
    assert opt == F(49, 25)
    assert trace.day == 0 and trace.value == opt
    assert trace.purchase == ()
    assert trace.active == frozenset({1, 2, 3})
    # day 1 reveals every 2-subset
    assert {move for move, _ in trace.children} == {
        frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})}
    per_day = {0: False, 1: False, 2: False}
    stack = [trace]
    while stack:
        node = stack.pop()
        if node.purchase:
            per_day[node.day] = True
        stack.extend(child for _, child in node.children)
    # the optimum buys on both late days along some adversary lines, never day 0
    assert per_day == {0: False, 1: True, 2: True}


def _check_trace_values(inst, node):
    """Every node's value is an exact Fraction equal to its own purchase at
    the day's inflation plus its worst child's value."""
    price = dict(inst.payload.actions())
    assert type(node.value) is Fraction
    spend = inst.schedule.lam[node.day] * sum(
        (price[aid] for aid in node.purchase), F(0))
    worst = max((child.value for _, child in node.children), default=F(0))
    assert node.value == spend + worst
    for _, child in node.children:
        _check_trace_values(inst, child)


def test_minimax_exact_under_integer_scaling():
    # costs over 2 and 7, inflations over 3: buy element 1 on day 0, then
    # buy a lone unowned survivor on day 1 at 4/3 or wait for day 2 at 5/3
    sched = Schedule.of([3, 2, 1], [1, F(4, 3), F(5, 3)])
    costs = (F(1, 2), F(1, 7), F(1, 7))
    cover = ProblemInstance(SETCOVER, SetSystem.build(
        3, [({e + 1}, c) for e, c in enumerate(costs)]), sched)
    # the same game as cuts of a star around the root
    star = ProblemInstance(MINCUT, WeightedGraph.build(
        4, [(0, v + 1, c) for v, c in enumerate(costs)], root=0), sched)
    for inst in (cover, star):
        opt, trace = minimax_opt(inst)
        assert type(opt) is Fraction and opt == F(1, 2) + F(5, 3) * F(1, 7)
        assert trace.value == opt and repr(opt) == "Fraction(31, 42)"
        _check_trace_values(inst, trace)
        assert {(node.day, node.value) for _, node in trace.children} == {
            (1, F(4, 21)), (1, F(5, 21))}
    # costs over 2, 7 and 5, inflations over 3 and 2
    tri = WeightedGraph.build(3, [(0, 1, F(1, 2)), (0, 2, F(2, 7)),
                                  (1, 2, F(3, 5))], root=0)
    inst = ProblemInstance(MINCUT, tri, Schedule.of([2, 1, 1],
                                                    [1, F(5, 3), F(7, 2)]))
    opt, trace = minimax_opt(inst)
    assert opt == F(1, 2) + F(2, 7) and trace.purchase == (0, 1)
    _check_trace_values(inst, trace)
    for kind in PROBLEM_KINDS:
        inst = gen_random(kind, 4, 6, 2, 5)
        _check_trace_values(inst, minimax_opt(inst)[1])


def _counted_tables(monkeypatch, kind):
    """Count the kind's cover_table calls per (ids, units)."""
    calls = Counter()
    cover_table = KINDS[kind].cover_table

    def counted(payload, ids, units, columns=None):
        calls[tuple(ids), frozenset(units)] += 1
        return cover_table(payload, ids, units, columns)

    monkeypatch.setitem(KINDS, kind, replace(KINDS[kind],
                                             cover_table=counted))
    return calls


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_minimax_checks_each_coverage_once(kind, monkeypatch):
    # one cover table per distinct active set per game, each over every
    # action of the instance
    calls = _counted_tables(monkeypatch, kind)
    for seed in range(4):
        calls.clear()
        inst = gen_random(kind, 4 + seed % 2, 6, 1 + seed % 2, seed)
        minimax_opt(inst)
        ids = tuple(aid for aid, _ in inst.payload.actions())
        assert calls and max(calls.values()) == 1
        assert {key[0] for key in calls} == {ids}


def _backward_induction(inst, full=False, inactive_days=()):
    """The plain backward induction that minimax_opt shortcuts: every
    purchase at every state, cheapest first, ties to the first, and day T
    buys the first completion.  (value, trace) as minimax_opt returns them
    for a feasible game."""
    game = _Game(inst)
    T, lam, memo = game.schedule.horizon, game.lam, {}

    def value(day, active, owned):
        if (day, active, owned) in memo:
            return memo[day, active, owned][0]
        best, best_mask = _INF, 0
        for mask in [0] if day in inactive_days else game.ranked.order:
            if mask & owned:
                continue
            spend = lam[day] * game.ranked.totals[mask]
            if spend >= best:
                break
            if day == T:
                if game.feasible(owned | mask, active):
                    best, best_mask = spend, mask
                    break
                continue
            worst = 0
            for move in game.moves(day + 1, active, full):
                worst = max(worst, value(day + 1, move, owned | mask))
                if spend + worst >= best:
                    break
            if spend + worst < best:
                best, best_mask = spend + worst, mask
        memo[day, active, owned] = best, best_mask
        return best

    def trace(day, active, owned):
        val, mask = memo[day, active, owned]
        kids = tuple((game.unit_set(move), trace(day + 1, move, owned | mask))
                     for move in (game.moves(day + 1, active, full)
                                  if day < T else ()))
        return TraceNode(day, game.unit_set(active), game.action_set(mask),
                         game.money(val), kids)

    return (game.money(value(0, game.full_units, 0)),
            trace(0, game.full_units, 0))


def _settled_variants(inst):
    """(instance, full_adversary, inactive_days) cases for one instance:
    its own schedule, plain, full and with inactive days; a choice-free
    day 1 ahead of the later choices, with no inflation, so that waiting
    for them pays; and a game with no choice at all, whose inflations tie
    on days 0-1 and 2-3."""
    sched = inst.schedule
    T, k0 = sched.horizon, sched.k[0]
    quiet = replace(inst, schedule=Schedule.of((k0, k0) + sched.k[2:],
                                               [1] * (T + 1)))
    flat = replace(inst, schedule=Schedule.of(
        [k0] * (T + 1), [1, 1, 2, 2][:T + 1]))
    return ((inst, False, ()), (inst, True, (0,)), (inst, False, (1, T)),
            (quiet, False, ()), (flat, False, ()), (flat, False, (1,)),
            (flat, False, (0, 1)[:T]))


def test_settled_states_match_the_plain_search(tiny_batches):
    # the closed-form answer for states the adversary can no longer change
    # gives the plain search's value and trace, purchases and ties included;
    # the last two instances have free sets, which wait for a later open day
    free = ProblemInstance(SETCOVER, SetSystem.build(
        3, [({1, 2}, 0), ({3}, 0), ({1, 2, 3}, 1)]),
        Schedule.of([3, 2, 1], [1, 2, 4]))
    # a cover of a priced and a free set: day 0 buys the priced one alone,
    # and the free one waits, as in the plain search
    mixed = ProblemInstance(SETCOVER, SetSystem.build(
        2, [({1}, 1), ({2}, 0)]), Schedule.of([2, 2, 2], [1, 2, 4]))
    for inst in [inst for kind in PROBLEM_KINDS
                 for inst in tiny_batches[kind][::13]] + [free, mixed]:
        for case, full, days in _settled_variants(inst):
            want = _backward_induction(case, full, days)
            got = minimax_opt(case, full_adversary=full, inactive_days=days)
            assert (got[0], repr(got[1])) == (want[0], repr(want[1]))
            # the untraced search reads the same memo
            assert minimax_opt(case, full_adversary=full, inactive_days=days,
                               with_trace=False) == (want[0], None)


def _searched_bounds(inst, full, days):
    """minimax_opt's answer, and the bounds each state (day, active, owned)
    was searched at, in call order.  Its value lists a state's moves once
    per search and never on a memo hit or at a settled state, so a spy on
    _Game.moves reads the state and its bound from value's frame."""
    bounds, moves = defaultdict(list), _Game.moves
    oracle = minimax_opt.__globals__

    def spy(game, next_day, active, full):
        caller = sys._getframe(1)
        if caller.f_globals is oracle and caller.f_code.co_name == "value":
            bounds[next_day - 1, active, caller.f_locals["owned"]].append(
                caller.f_locals["bound"])
        return moves(game, next_day, active, full)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Game, "moves", spy)
        return minimax_opt(inst, full_adversary=full,
                           inactive_days=days), bounds


# per kind, gen_random arguments of a full-adversary game in which a lower
# bound read as a value, or reused for a larger bound, changes the answer
_FAILS_HIGH_AGAIN = {SETCOVER: (7, 10, 3, 41), MINCUT: (6, 8, 3, 26),
                     STEINERTREE: (7, 8, 3, 23), STEINERFOREST: (6, 8, 3, 8)}


def _window_cases(kind):
    """(instance, full_adversary, inactive_days) for n = 6-7 games: each
    under both adversaries with no inactive day and every thrifty set;
    each with inflation 1 on every day, where purchases tie; and the
    kind's _FAILS_HIGH_AGAIN game."""
    for seed in range(6):
        inst = gen_random(kind, 6 + seed % 2, 7, 1 + seed % 3, seed)
        T = inst.schedule.horizon
        thrifty = {tuple(d for d in range(1, T + 1) if d != i)
                   for i in range(1, T + 1)}
        flat = replace(inst, schedule=Schedule.of(inst.schedule.k,
                                                  [1] * (T + 1)))
        for full in (False, True):
            yield from ((inst, full, days) for days in sorted(thrifty | {()}))
            yield flat, full, ()
    yield gen_random(kind, *_FAILS_HIGH_AGAIN[kind]), True, ()


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_windowed_search_matches_the_plain_search(kind):
    # the window changes no value, purchase or tie.  A state is searched
    # again only after it failed high, each time with a larger bound, and
    # these games do search states again
    again = 0
    for inst, full, days in _window_cases(kind):
        want = _backward_induction(inst, full, days)
        got, searched = _searched_bounds(inst, full, days)
        assert (got[0], repr(got[1])) == (want[0], repr(want[1])), (
            inst.schedule, full, days)
        for bounds in searched.values():
            assert all(a < b for a, b in zip(bounds, bounds[1:])), bounds
            again += len(bounds) - 1
    assert again > 0


# costs and inflation steps of the quiet-day games: free actions, and a x1
# step on which a quiet day ties the day before it
_QUIET_COSTS = (0, F(1, 2), 1, 2, 3)
_QUIET_STEPS = (1, F(3, 2), 2, 3)


def _recosted(payload, rng):
    """The payload with each action's cost drawn from _QUIET_COSTS."""
    if isinstance(payload, SetSystem):
        return SetSystem.build(payload.universe_size, [
            (members, rng.choice(_QUIET_COSTS))
            for members, _ in set_pairs(payload)])
    return WeightedGraph.build(
        payload.n, [(e.u, e.v, rng.choice(_QUIET_COSTS))
                    for e in payload.edges],
        root=payload.root, pairs=[(p.s, p.t) for p in payload.pairs])


def _quiet_day_games(count):
    """(instance, e) for seeded games of every kind with a quiet day e, one
    with k[e] == k[e-1], ahead of a later day on which k drops; costs from
    _QUIET_COSTS and inflations stepping by _QUIET_STEPS."""
    for seed in range(count):
        rng = random.Random(seed)
        kind = PROBLEM_KINDS[seed % len(PROBLEM_KINDS)]
        n = 4 + seed // len(PROBLEM_KINDS) % 2
        inst = gen_random(kind, n, n + 2, 1, seed)
        payload = _recosted(inst.payload, rng)
        k0, low = inst.schedule.k[0], KINDS[kind].min_live + 1
        while True:
            k = [k0]
            for _ in range(rng.choice((2, 3))):
                k.append(rng.randint(low, k[-1]))
            quiet = [e for e in range(1, len(k) - 1)
                     if k[e] == k[e - 1] and k[-1] < k[e]]
            if quiet:
                break
        lam = [F(1)]
        for _ in k[1:]:
            lam.append(lam[-1] * rng.choice(_QUIET_STEPS))
        yield (ProblemInstance(kind, payload, Schedule.of(k, lam)),
               rng.choice(quiet))


def test_quiet_days_match_the_plain_search():
    # a quiet day's states scan only the free masks, which changes no
    # value, purchase or tie: with free actions, on tied inflations (where
    # every mask is scanned), with the day before it or after it inactive,
    # and under the full adversary (where every mask is scanned)
    for inst, e in _quiet_day_games(64):
        for full, days in ((False, ()), (False, (e - 1,)),
                           (False, (e + 1,)), (True, ())):
            want = _backward_induction(inst, full, days)
            got = minimax_opt(inst, full_adversary=full, inactive_days=days)
            assert (got[0], repr(got[1])) == (want[0], repr(want[1])), (
                inst, full, days)


def _scanned_masks(inst):
    """minimax_opt's value, and per day the masks its searched states
    tried.  A tried mask asks at least one child, a settled one from the
    memo or an unsettled one through value, so a profile hook reads the
    mask from value's frame at each call it makes once child is owned |
    mask."""
    scanned = defaultdict(set)

    def hook(frame, event, arg):
        if event == "call":   # a Python call: value is the caller's frame
            frame = frame.f_back
        elif event != "c_call":   # a C call runs in value's own frame
            return
        if (frame.f_code.co_name == "value"
                and frame.f_globals is minimax_opt.__globals__):
            local = frame.f_locals
            if "child" in local and local["child"] == (local["owned"]
                                                       | local["mask"]):
                scanned[local["day"]].add(local["mask"])

    before = sys.getprofile()
    sys.setprofile(hook)
    try:
        opt = minimax_opt(inst, with_trace=False)[0]
    finally:
        sys.setprofile(before)
    return opt, scanned


def test_quiet_days_scan_only_free_masks():
    # tiny_batch's cut game 8, which perfbench's compare-tiny runs, has
    # k = (2, 2, 2, 1): days 1 and 2 reveal nothing, so their states try
    # only the free masks (mask 0 alone, as no edge is free); day 0 tries
    # priced ones too
    inst = gen_random(MINCUT, 3, 7, 3, 8)
    assert inst.schedule.k == (2, 2, 2, 1)
    assert len(set(inst.schedule.lam)) == 4
    totals = _Game(inst).ranked.totals
    opt, scanned = _scanned_masks(inst)
    assert opt == _backward_induction(inst)[0]
    assert scanned[1] and scanned[2]
    assert all(totals[mask] == 0 for day in (1, 2) for mask in scanned[day])
    assert any(totals[mask] for mask in scanned[0])


@pytest.mark.parametrize("args,k,entered", [
    # compare-tiny's cut game 4: every state below the root is settled
    ((3, 9, 2, 4), (2, 1, 1), {0: 1}),
    # cut game 10: day 1's states are not settled, day 2's (day T) are
    ((5, 9, 2, 10), (4, 3, 1), {0: 1, 1: 252}),
])
def test_settled_children_are_priced_in_the_move_loop(args, k, entered):
    # value is entered only for the root and unsettled states: the move
    # loop prices each settled child itself, from the memo or its leaf
    # record.  Calling value for each settled probe entered it 914 times
    # on game 4 and 5,032 times on game 10
    inst = gen_random(MINCUT, *args)
    assert inst.schedule.k == k
    days = Counter()

    def hook(frame, event, arg):
        if (event == "call" and frame.f_code.co_name == "value"
                and frame.f_globals is minimax_opt.__globals__):
            days[frame.f_locals["day"]] += 1

    before = sys.getprofile()
    sys.setprofile(hook)
    try:
        opt = minimax_opt(inst, with_trace=False)[0]
    finally:
        sys.setprofile(before)
    assert days == entered
    assert opt == _backward_induction(inst)[0]


@pytest.mark.parametrize("inst,kwargs,error", [
    (_sc_hand(), {"inactive_days": (0, 1)}, Infeasible),
    (gen_subset_krobust_bad(2, 3), {}, TooLarge),
    (_sc_hand(), {"limits": SizeLimits(8, 2, 3)}, TooLarge),
])
def test_untraced_search_raises_as_the_traced_one(inst, kwargs, error):
    messages = set()
    for with_trace in (True, False):
        with pytest.raises(error) as caught:
            minimax_opt(inst, with_trace=with_trace, **kwargs)
        messages.add(str(caught.value))
    assert len(messages) == 1


def test_settled_instance_scans_for_one_completion(monkeypatch):
    # with k = |A| on every day the adversary has no choice: the game is
    # one cheapest-first scan of one table for a cover of everything,
    # bought on day 0
    inst = gen_random(MINCUT, 5, 9, 2, 3)
    inst = replace(inst, schedule=replace(inst.schedule, k=(4, 4, 4)))
    game, units = _Game(inst), frozenset(inst.units())
    first = next(mask for mask in game.ranked.order
                 if covers(MINCUT, inst.payload, game.action_set(mask), units))
    cheapest = exact_min(MINCUT, inst.payload, units)
    price = dict(inst.payload.actions())
    calls = _counted_tables(monkeypatch, MINCUT)
    opt, trace = minimax_opt(inst)
    assert trace.purchase == game.action_set(first)
    assert opt == cheapest == sum(price[aid] for aid in trace.purchase)
    assert list(calls.values()) == [1] and next(iter(calls))[1] == units


def _reference_graph(rng):
    """A rooted multigraph with parallel and zero-cost edges whose last
    vertex no edge touches, and pairs that may name that vertex or join a
    vertex to itself."""
    n = rng.randint(3, 7)
    edges = []
    for _ in range(rng.randint(0, 9)):
        if edges and rng.random() < 0.25:
            u, v, _ = rng.choice(edges)
        else:
            u, v = rng.sample(range(n - 1), 2)
        edges.append((u, v, rng.choice((0, 1, 2, F(1, 2)))))
    pairs = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randint(1, 4))]
    return WeightedGraph.build(n, edges, root=0, pairs=pairs)


def _table_cases(rng):
    """(kind, payload, ids, units) draws for every kind: ids a shuffled
    subset of the actions, often a strict one, and up to three of the
    kind's units, sometimes none."""
    for _ in range(500):
        size = rng.randint(1, 5)
        system = SetSystem.build(size, [
            (rng.sample(range(1, size + 1), rng.randint(1, size)),
             rng.choice((0, 1, 3)))
            for _ in range(rng.randint(1, 6))] + [(range(1, size + 1), 9)])
        g = _reference_graph(rng)
        for kind, payload in ((SETCOVER, system), (MINCUT, g),
                              (STEINERTREE, g), (STEINERFOREST, g)):
            actions = [aid for aid, _ in payload.actions()]
            ids = rng.sample(actions, rng.randint(0, min(7, len(actions))))
            units = KINDS[kind].units(payload)
            yield kind, payload, ids, rng.sample(
                units, rng.randint(0, min(3, len(units))))


def test_cover_tables_match_boolean_reference():
    # every bit of every kind's cover table against one boolean check per
    # owned mask: a table is the fixpoint of all its masks' searches.  Built
    # from the columns under any permutation of the masks, the table is the
    # same table with its bits permuted alike, which the oracle's rank order
    # rests on
    seen, shuffle = Counter(), random.Random("permuted columns")
    for kind, payload, ids, units in _table_cases(random.Random(19)):
        table = KINDS[kind].cover_table(payload, ids, units)
        assert 0 <= table < 1 << (1 << len(ids))
        for mask in range(1 << len(ids)):
            owned = [aid for i, aid in enumerate(ids) if mask >> i & 1]
            assert table >> mask & 1 == covers(kind, payload, owned, units), (
                kind, payload, ids, units, owned)
        order = shuffle.sample(range(1 << len(ids)), 1 << len(ids))
        permuted = KINDS[kind].cover_table(
            payload, ids, units, _permuted_columns(order, len(ids)))
        assert permuted == sum(1 << p for p, mask in enumerate(order)
                               if table >> mask & 1), (kind, ids, units, order)
        seen[kind, "mixed"] += 0 < table < (1 << (1 << len(ids))) - 1
        seen["empty units"] += not units
        seen["strict subset"] += len(ids) < len(payload.actions())
        if kind != SETCOVER:
            ends = {(e.u, e.v) for e in payload.edges}
            seen["parallel"] += len(ends) < len(payload.edges)
            seen["zero cost"] += any(e.cost == 0 for e in payload.edges)
            seen["untouched unit"] += (payload.n - 1 in units
                                       and kind != STEINERFOREST)
    assert min(seen.values()) >= 20, seen


def _first_cover_reference(by_cost, covered, owned):
    """The linear cheapest-first scan: the first (cost, mask) of by_cost
    that owned does not meet and that completes owned to a cover;
    (_INF, 0) if there is none."""
    for cost, mask in by_cost:
        if not mask & owned and covered(owned | mask):
            return cost, mask
    return _INF, 0


def test_completion_lookup_matches_the_scan():
    # every owned mask's cheapest completion, by the lowest set bit of a
    # rank-ordered table, against the scan of a natural-order table: on the
    # table draws (zero costs and ties, parallel edges, strict id subsets,
    # empty units) and on whole seeded games' tables
    ties = 0
    for kind, payload, ids, units in _table_cases(random.Random(23)):
        price = dict(payload.actions())
        costs = scaled_to_ints(price[aid] for aid in ids)[1]
        ranked = _CostOrder(costs)
        table = KINDS[kind].cover_table(payload, ids, units, ranked.columns)
        natural = KINDS[kind].cover_table(payload, ids, units)
        by_cost = _by_cost_reference(costs)
        for owned in range(1 << len(ids)):
            assert ranked.completion(table, owned) == _first_cover_reference(
                by_cost, lambda mask: natural >> mask & 1, owned), (
                kind, ids, units, owned)
        ties += len(set(costs)) < len(costs)
    assert ties >= 500   # draws with two ids of equal cost
    ties = 0
    for kind in PROBLEM_KINDS:
        for seed in range(6):
            inst = gen_random(kind, 3 + seed % 3, 5 + seed % 3, 1, seed)
            game = _Game(inst)
            by_cost = _by_cost_reference(game.costs)
            ties += len(set(game.costs)) < len(game.costs)
            for active in range(1, game.full_units + 1):
                natural = KINDS[kind].cover_table(
                    inst.payload, game.action_ids, game.unit_set(active))
                for owned in range(1 << len(game.costs)):
                    assert game.ranked.completion(
                        game.table(active), owned) == _first_cover_reference(
                        by_cost, lambda mask: natural >> mask & 1, owned)
                    assert game.feasible(owned, active) == natural >> owned & 1
    assert ties >= 8   # games with two actions of equal cost


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_invariant_chain_on_larger_instances(kind):
    # compare's chain past the tiny batch: n = 7-8, 10 actions, T <= 3,
    # under the default size limits
    for seed in range(8):
        inst = gen_random(kind, 7 + seed % 2, 10, 1 + seed % 3, seed)
        plan, report = solve_instance(inst)
        opt, _ = minimax_opt(inst)
        lb, _ = opt_bounds(inst)
        assert lb <= opt <= exhaustive_robcov(inst, plan) <= report.robcov


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_invariant_chain_at_nine_units(kind):
    # the same chain at n = 9 and 13 actions under widened limits
    limits = SizeLimits(9, 13, 3)
    for seed in range(4):
        inst = gen_random(kind, 9, 13, 1 + seed % 3, seed)
        plan, report = solve_instance(inst)
        opt, _ = minimax_opt(inst, limits)
        lb, _ = opt_bounds(inst)
        assert lb <= opt <= exhaustive_robcov(inst, plan, limits)
        assert exhaustive_robcov(inst, plan, limits) <= report.robcov


def test_exact_min_checks_the_limits_before_any_table():
    # a table over 40 actions would have 2^40 bits: exact_min must refuse
    # it at once, so run it where a table that size cannot be allocated
    script = (
        "from krobust.fixtures import gen_random\n"
        "from krobust.errors import TooLarge\n"
        "from krobust.oracle import exact_min\n"
        "for kind in ('setcover', 'mincut', 'steinertree', 'steinerforest'):\n"
        "    inst = gen_random(kind, 8, 40, 1, 0)\n"
        "    try:\n"
        "        exact_min(kind, inst.payload, inst.units())\n"
        "    except TooLarge as exc:\n"
        "        print(kind, exc)\n")

    def limit():
        cap = 1 << 30
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(krobust.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=60, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 0 and done.stderr == "", done.stderr
    assert done.stdout.splitlines() == [
        f"{kind} 40 actions exceed limit 12" for kind in PROBLEM_KINDS]


def test_minimax_inactive_days():
    assert minimax_opt(_sc_hand(), inactive_days=(0,))[0] == 4
    # with day 1 silent, day 0 must prepare for every possible survivor
    assert minimax_opt(_sc_hand(), inactive_days=(1,))[0] == F(5, 2)
    with pytest.raises(Infeasible):
        minimax_opt(_sc_hand(), inactive_days=(0, 1))


def test_minimax_too_large():
    inst = gen_subset_krobust_bad(2, 3)
    with pytest.raises(TooLarge):
        minimax_opt(inst)


def test_full_adversary_agrees():
    for kind in (SETCOVER, MINCUT, STEINERTREE, STEINERFOREST):
        for seed in range(3):
            inst = gen_random(kind, 3 + seed % 2, 5 + seed, 1 + seed % 2, seed)
            reduced = minimax_opt(inst)[0]
            full = minimax_opt(inst, full_adversary=True)[0]
            assert reduced == full


def _cardinality_moves(n_units, k, active, full):
    """The cardinality adversary by its definition: it shows k of all the
    units, and the active units it shows stay active.  Without full, only
    the inclusion-maximal results are moves."""
    shown = {sum(1 << i for i in keep) & active
             for keep in combinations(range(n_units), k)}
    if not full:
        shown = {m for m in shown
                 if not any(m != o and m & o == m for o in shown)}
    return tuple(sorted(shown))


def _partitioned_moves(game, next_day, active, full):
    """The partitioned adversary by explicit enumeration: it keeps
    min(k, |active & part|) active units of the day's part and every active
    unit outside it, or with full any at most that many of the part and any
    of the active units outside it."""
    bits = [i for i in range(len(game.units)) if active >> i & 1]
    k = game.schedule.k[next_day]
    part = game.parts_mask[next_day - 1]
    inside = [i for i in bits if part >> i & 1]
    rest = [i for i in bits if not part >> i & 1]
    sizes = (range(min(k, len(inside)) + 1) if full
             else [min(k, len(inside))])
    out = set()
    for size in sizes:
        for keep in combinations(inside, size):
            kept = sum(1 << i for i in keep)
            if not full:
                out.add(kept | active & ~part)
                continue
            for rsize in range(len(rest) + 1):
                for rk in combinations(rest, rsize):
                    out.add(kept | sum(1 << i for i in rk))
    return tuple(sorted(out))


def _move_games(seed):
    """A seeded random game under each model: k falls from the unit count
    to as low as 0, and each day's part is a random set of units, possibly
    empty or overlapping another day's."""
    rng = random.Random(f"moves:{seed}")
    kind = PROBLEM_KINDS[seed % len(PROBLEM_KINDS)]
    inst = gen_random(kind, 4 + seed % 4, 8, 1 + seed % 3, seed)
    units = inst.units()
    k = [len(units)]
    for _ in range(inst.schedule.horizon):
        k.append(rng.randint(0, k[-1]))
    inst = replace(inst, schedule=Schedule.of(k, inst.schedule.lam))
    parts = tuple(frozenset(u for u in units if rng.random() < 0.5)
                  for _ in range(inst.schedule.horizon))
    return inst, replace(inst, uncertainty=UncertaintySpec(SUBSET, parts))


def test_moves_follow_the_adversary_rule():
    # every active mask of every day, in both modes, under both models
    checked = 0
    for seed in range(40):
        for inst in _move_games(seed):
            game = _Game(inst)
            for day in range(1, inst.schedule.horizon + 1):
                for active in range(game.full_units + 1):
                    for full in (False, True):
                        want = (_cardinality_moves(len(game.units),
                                                   inst.schedule.k[day],
                                                   active, full)
                                if game.parts_mask is None else
                                _partitioned_moves(game, day, active, full))
                        assert game.moves(day, active, full) == want, \
                            (seed, inst.uncertainty.kind, day, active, full)
                        checked += 1
    assert checked > 8_000


def _check_no_idle_sets(system, node, bought=frozenset()):
    """Each node buys sets no ancestor bought, and every set it buys covers
    an active element that the ancestors' sets leave uncovered."""
    assert bought.isdisjoint(node.purchase)
    covered = system.covered_by(bought)
    for sid in node.purchase:
        assert set_pairs(system)[sid][0] & node.active - covered, (node, sid)
    for _, child in node.children:
        _check_no_idle_sets(system, child, bought | set(node.purchase))


def _subset_cover(seed):
    # a random set system whose elements split into one part per day
    inst = gen_random(SETCOVER, 5 + seed % 2, 7, 1 + seed % 3, seed)
    elements = list(inst.units())
    random.Random(seed).shuffle(elements)
    T = inst.schedule.horizon
    parts = tuple(frozenset(elements[day::T]) for day in range(T))
    return replace(inst, uncertainty=UncertaintySpec(SUBSET, parts))


def test_set_cover_traces_buy_no_idle_sets(tiny_batches):
    # cheapest-first search prefers a mask to any superset of it, so an
    # optimal trace never buys a set that adds no new active coverage
    insts = (tiny_batches[SETCOVER]
             + [gen_lowerbound_allstages(T, F(1, 5)) for T in (1, 2, 3)]
             + [_subset_cover(seed) for seed in range(6)])
    for inst in insts:
        for full in (False, True):
            _, trace = minimax_opt(inst, full_adversary=full)
            _check_no_idle_sets(inst.payload, trace)


def test_exhaustive_robcov_and_feasibility():
    inst = gen_lowerbound_allstages(2, F(2, 5))
    plan, report = solve_cover(inst.payload, inst.schedule)
    assert exhaustive_robcov(inst, plan) == F(343, 125)
    assert exhaustive_robcov(inst, plan) == report.robcov  # not conservative
    assert check_plan_feasible(inst, plan)
    broken = type(plan)(**{**plan.__dict__,
                           "residual_actions": {u: () for u in inst.units()},
                           "day0_purchase": (), "day0_cost": F(0)})
    assert not check_plan_feasible(inst, broken)


def test_exhaustive_below_conservative_eval():
    sys_ = SetSystem.build(2, [({1, 2}, 3), ({1}, 5)])
    sched = Schedule.of([2, 1], [1, 2])
    inst = ProblemInstance(SETCOVER, sys_, sched)
    plan, report = solve_cover(sys_, sched)
    assert report.conservative and report.robcov == 6
    # both elements trigger the same set, which is only charged once
    assert exhaustive_robcov(inst, plan) == 3


def test_opt_bounds_hand_values():
    assert opt_bounds(gen_lowerbound_allstages(2, F(2, 5))) == (F(7, 5), F(12, 5))
    assert opt_bounds(_triangle_inst()) == (3, 3)
    assert opt_bounds(_tree_inst()) == (2, 2)
    assert opt_bounds(_forest_inst()) == (3, 3)


def test_opt_bounds_trivial_and_disconnected():
    sys_ = _sc_hand().payload
    with pytest.raises(TrivialInstance):
        opt_bounds(ProblemInstance(SETCOVER, sys_, Schedule.of([2, 0], [1, 2])))
    g = WeightedGraph.build(3, [(0, 1, 1)])
    with pytest.raises(TrivialInstance):
        opt_bounds(ProblemInstance(
            STEINERTREE, g, Schedule.of([3, 1], [1, 2])))
    with pytest.raises(Infeasible):
        opt_bounds(ProblemInstance(STEINERTREE, g, Schedule.of([3, 2], [1, 2])))


def _part_instance(costs, lam, parts):
    size = len(costs)
    sys_ = SetSystem.build(size, [({i + 1}, c) for i, c in enumerate(costs)])
    k = [size] + [1] * (len(lam) - 1)
    sched = Schedule.of(k, lam)
    spec = UncertaintySpec(SUBSET, tuple(frozenset(p) for p in parts))
    return ProblemInstance(SETCOVER, sys_, sched, spec)


@pytest.mark.parametrize("sets,parts,k1,msg", [
    ([({1, 2}, 1), ({3}, 1)], [{1, 2, 3}], 1, "singleton"),
    ([({1}, 1), ({1}, 2), ({2}, 1)], [{1, 2}], 1, "multiple covering"),
    ([({1}, 1), ({2}, 1)], [{1}, {1}], 1, "disjoint"),
    ([({1}, 1), ({2}, 2)], [{1, 2}], 1, "mixed element costs"),
    ([({1}, 1), ({2}, 1), ({3}, 1)], [{1}], 1, "partition"),
    ([({1}, 1), ({2}, 1)], [{1}, {2}], 1, "one part per day"),
    ([({1}, 1), ({2}, 1)], [{1, 2}], 2, "k_i = 1"),
])
def test_partwise_validation(sets, parts, k1, msg):
    size = max(e for members, _ in sets for e in members)
    sys_ = SetSystem.build(size, sets)
    sched = Schedule.of([size, k1], [1, 2])
    with pytest.raises(BadParameters, match=msg):
        partwise_minimax(sys_, sched, tuple(frozenset(p) for p in parts))


def _value_or_none(evaluate):
    try:
        return evaluate()
    except Infeasible:
        return None


def test_partwise_matches_generic_game():
    cases = [
        (costs, lam, parts, off)
        for costs, lam, parts in [
            ((1, 1, 2, 2), (1, 2, 3), [{1, 2}, {3, 4}]),
            ((3, 3, 1, 1), (1, 2, 5), [{1, 2}, {3, 4}]),
            ((2, 2, 2), (1, 3), [{1, 2, 3}]),
        ]
        for off in [()] + [(day,) for day in range(1, len(lam))]
    ]
    # seeded instances: T <= 3, n <= 7, zero-cost and one-element parts,
    # nondecreasing inflations and inactive-day sets of every size
    rng = random.Random("partwise")
    seen = Counter()
    for _ in range(150):
        T = rng.randint(1, 3)
        sizes = [rng.randint(1, 7 // T) for _ in range(T)]
        costs = []
        for size in sizes:
            costs += [rng.choice((0, 1, 2, F(1, 2), 3))] * size
        lam = [1]
        for _ in range(T):
            lam.append(lam[-1] * rng.choice((1, F(3, 2), 2, 3)))
        starts = [1 + sum(sizes[:i]) for i in range(T + 1)]
        parts = [set(range(a, b)) for a, b in zip(starts, starts[1:])]
        off = tuple(rng.sample(range(T + 1), rng.randint(0, T + 1)))
        cases.append((costs, lam, parts, off))
        seen["zero cost"] += 0 in costs
        seen["one-element part"] += 1 in sizes
        seen["day 0 off"] += 0 in off
        seen["all days off"] += len(off) == T + 1
    assert min(seen.values()) >= 10, seen
    for costs, lam, parts, off in cases:
        inst = _part_instance(costs, lam, parts)
        want = _value_or_none(
            lambda: minimax_opt(inst, inactive_days=off)[0])
        got = _value_or_none(lambda: partwise_minimax(
            inst.payload, inst.schedule, inst.uncertainty.parts, off))
        assert got == want, (costs, lam, parts, off)


def test_partwise_geometric_family():
    inst = gen_subset_krobust_bad(2, 3)
    parts = inst.uncertainty.parts
    assert partwise_minimax(inst.payload, inst.schedule, parts) == 2
    assert partwise_minimax(inst.payload, inst.schedule, parts,
                            inactive_days=(1,)) == 4
    assert partwise_minimax(inst.payload, inst.schedule, parts,
                            inactive_days=(2,)) == 4


def test_scripted_worst_case():
    for lam in (3, 4):
        inst = gen_subset_krobust_bad(2, lam)
        assert scripted_worst_case(inst) == 2
    with pytest.raises(BadParameters):
        scripted_worst_case(_sc_hand())


def test_solver_plans_feasible_on_sample(tiny_batches):
    for kind, insts in tiny_batches.items():
        for inst in insts[:10]:
            plan, _ = solve_instance(inst)
            assert check_plan_feasible(inst, plan)


@pytest.mark.parametrize("kind", [MINCUT, STEINERTREE, STEINERFOREST])
def test_check_plan_feasible_rejects_empty_purchases(kind):
    checked = 0
    for seed in range(12):
        inst = gen_random(kind, 3 + seed % 3, 6, 1 + seed % 2, seed)
        plan, report = solve_instance(inst)
        if report.robcov == 0:
            continue
        assert check_plan_feasible(inst, plan)
        empty = replace(plan, day0_purchase=(),
                        residual_actions={u: () for u in inst.units()})
        assert not check_plan_feasible(inst, empty)
        checked += 1
    assert checked >= 6


def _collected_after(call):
    """Objects a cyclic collection finds right after one call, gc off."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("kind,args", [
    (SETCOVER, (5, 8, 2, 3)),
    (MINCUT, (3, 5, 2, 4)),
    (STEINERTREE, (4, 6, 2, 1)),
    (STEINERFOREST, (4, 6, 2, 1)),
])
def test_minimax_opt_leaves_no_reference_cycle(kind, args):
    # the memo and the game are freed by reference counting alone
    inst = gen_random(kind, *args)
    for with_trace in (True, False):
        assert _collected_after(
            lambda: minimax_opt(inst, with_trace=with_trace)) == 0


def test_minimax_opt_infeasible_leaves_no_reference_cycle():
    def call(with_trace):
        try:
            minimax_opt(_sc_hand(), inactive_days=(0, 1),
                        with_trace=with_trace)
        except Infeasible:
            return
        raise AssertionError("expected Infeasible")
    for with_trace in (True, False):
        assert _collected_after(lambda: call(with_trace)) == 0
