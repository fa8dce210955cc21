"""Exact minimax oracle, exhaustive plan evaluation, and bounds."""

import gc
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

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
)
from krobust.oracle import (
    _INF,
    SizeLimits,
    TraceNode,
    _Game,
    check_plan_feasible,
    exact_min,
    exhaustive_robcov,
    minimax_opt,
    opt_bounds,
    partwise_minimax,
    scripted_worst_case,
)
from krobust.setcover import SetSystem, solve as solve_cover
from conftest import solve_instance

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


def test_exact_min_rejects_ids_that_name_no_unit():
    # ids outside KINDS[kind].units would be ignored by covers and read 0
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


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_minimax_checks_each_coverage_once(kind, monkeypatch):
    calls = Counter()
    covers = KINDS[kind].covers

    def counted(payload, ids, units):
        calls[frozenset(ids), frozenset(units)] += 1
        return covers(payload, ids, units)

    monkeypatch.setitem(KINDS, kind, replace(KINDS[kind], covers=counted))
    for seed in range(4):
        calls.clear()
        minimax_opt(gen_random(kind, 4 + seed % 2, 6, 1 + seed % 2, seed))
        assert calls and max(calls.values()) == 1


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
        for cost, mask in [(0, 0)] if day in inactive_days else game.masks:
            if mask & owned:
                continue
            spend = lam[day] * cost
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
    # gives the plain search's value and trace, purchases and ties included
    for kind in PROBLEM_KINDS:
        for inst in tiny_batches[kind][::13]:
            for case, full, days in _settled_variants(inst):
                want = _backward_induction(case, full, days)
                got = minimax_opt(case, full_adversary=full,
                                  inactive_days=days)
                assert (got[0], repr(got[1])) == (want[0], repr(want[1]))


def test_settled_instance_scans_for_one_completion(monkeypatch):
    # with k = |A| on every day the adversary has no choice: the game is
    # one cheapest-first scan for a cover of everything, bought on day 0
    inst = gen_random(MINCUT, 5, 9, 2, 3)
    inst = replace(inst, schedule=replace(inst.schedule, k=(4, 4, 4)))
    game, units = _Game(inst), frozenset(inst.units())
    ids = [[aid for i, aid in enumerate(game.action_ids) if mask >> i & 1]
           for _, mask in game.masks]
    covers = KINDS[MINCUT].covers
    scan = 1 + next(i for i, owned in enumerate(ids)
                    if covers(inst.payload, owned, units))
    cheapest = exact_min(MINCUT, inst.payload, units)
    calls = Counter()

    def counted(payload, ids, units):
        calls[frozenset(ids), frozenset(units)] += 1
        return covers(payload, ids, units)

    monkeypatch.setitem(KINDS, MINCUT, replace(KINDS[MINCUT], covers=counted))
    opt, trace = minimax_opt(inst)
    assert opt == cheapest
    assert trace.purchase and sum(calls.values()) == scan < len(ids) // 2


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


def test_minimax_inactive_days():
    assert minimax_opt(_sc_hand(), inactive_days=(0,))[0] == 4
    # with day 1 silent, day 0 must prepare for every possible survivor
    assert minimax_opt(_sc_hand(), inactive_days=(1,))[0] == F(5, 2)
    with pytest.raises(Infeasible):
        minimax_opt(_sc_hand(), inactive_days=(0, 1))


def test_minimax_too_large():
    inst, _ = gen_subset_krobust_bad(2, 3)
    with pytest.raises(TooLarge):
        minimax_opt(inst)


def test_full_adversary_agrees():
    for kind in (SETCOVER, MINCUT, STEINERTREE, STEINERFOREST):
        for seed in range(3):
            inst = gen_random(kind, 3 + seed % 2, 5 + seed, 1 + seed % 2, seed)
            reduced = minimax_opt(inst)[0]
            full = minimax_opt(inst, full_adversary=True)[0]
            assert reduced == full


def _check_no_idle_sets(system, node, bought=frozenset()):
    """Each node buys sets no ancestor bought, and every set it buys covers
    an active element that the ancestors' sets leave uncovered."""
    assert bought.isdisjoint(node.purchase)
    covered = system.covered_by(bought)
    for sid in node.purchase:
        assert system.sets[sid][0] & node.active - covered, (node, sid)
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


def test_partwise_matches_generic_game():
    cases = [
        ((1, 1, 2, 2), (1, 2, 3), [{1, 2}, {3, 4}]),
        ((3, 3, 1, 1), (1, 2, 5), [{1, 2}, {3, 4}]),
        ((2, 2, 2), (1, 3), [{1, 2, 3}]),
    ]
    for costs, lam, parts in cases:
        inst = _part_instance(costs, lam, parts)
        want = minimax_opt(inst)[0]
        got = partwise_minimax(inst.payload, inst.schedule,
                               inst.uncertainty.parts)
        assert got == want
        for day in range(1, inst.schedule.horizon + 1):
            want_d = minimax_opt(inst, inactive_days=(day,))[0]
            got_d = partwise_minimax(inst.payload, inst.schedule,
                                     inst.uncertainty.parts,
                                     inactive_days=(day,))
            assert got_d == want_d


def test_partwise_geometric_family():
    inst, strategy = gen_subset_krobust_bad(2, 3)
    parts = inst.uncertainty.parts
    assert partwise_minimax(inst.payload, inst.schedule, parts) == 2
    assert partwise_minimax(inst.payload, inst.schedule, parts,
                            inactive_days=(1,)) == 4
    assert partwise_minimax(inst.payload, inst.schedule, parts,
                            inactive_days=(2,)) == 4
    assert strategy.horizon == 2 and strategy.active_days == (1, 2)


def test_scripted_worst_case():
    for lam in (3, 4):
        inst, _ = gen_subset_krobust_bad(2, lam)
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
    assert _collected_after(lambda: minimax_opt(inst)) == 0


def test_minimax_opt_infeasible_leaves_no_reference_cycle():
    def call():
        try:
            minimax_opt(_sc_hand(), inactive_days=(0, 1))
        except Infeasible:
            return
        raise AssertionError("expected Infeasible")
    assert _collected_after(call) == 0
