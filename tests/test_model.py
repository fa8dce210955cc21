"""Schedules, plan evaluation, and the shared numeric helpers."""

import itertools
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from krobust import graphcore, model
from krobust.errors import (BadParameters, BadSchedule, Infeasible,
                            KRobustError, MalformedSchedule, MissingResidual,
                            TrivialInstance)
from krobust.fixtures import gen_random
from krobust.graphcore import WeightedGraph
from krobust.model import (
    CARDINALITY,
    KINDS,
    MINCUT,
    PROBLEM_KINDS,
    SETCOVER,
    STEINERFOREST,
    STEINERTREE,
    SUBSET,
    CostReport,
    ProblemInstance,
    Schedule,
    ThriftyPlan,
    UncertaintySpec,
    _candidates,
    _divided,
    argmin_stage,
    evaluate_thrifty,
    free_plan,
    guess_grid,
    harmonic,
    ln_upper,
    merge_stages,
    solve_thrifty,
    threshold_tau,
    validate_schedule,
)
from krobust.oracle import _Game
from krobust.setcover import SetSystem

from conftest import (cost_guesses, floor_cases, grid_plans, record_scales,
                      scaled_candidates)

F = Fraction


def test_ln_upper_bounds_log():
    assert ln_upper(1) == 0
    for n in (2, 3, 7, 100, 10**6):
        approx = ln_upper(n)
        assert float(approx) > math.log(n)
        assert float(approx) - math.log(n) < 1e-5


def test_harmonic_exact():
    assert harmonic(1) == 1
    assert harmonic(4) == F(25, 12)
    assert harmonic(0) == 0


def test_schedule_of_coerces():
    s = Schedule.of([3, 2, 1], ["1", "3/2", 4])
    assert s.horizon == 2
    assert s.k == (3, 2, 1)
    assert s.lam == (F(1), F(3, 2), F(4))
    validate_schedule(s, 3)
    # k is kept as given, so a k that int() would truncate is refused
    with pytest.raises(BadSchedule, match=r"k\[0\] = 3\.9 is not an integer"):
        validate_schedule(Schedule.of([3.9, 1], [1, 2]), 3)


BAD_SCHEDULES = [
    (1, (3, 2), (F(1),), 3, "inflations must have", "lambda"),
    (1, (3,), (F(1), F(2)), 3, "cardinalities must have", "k"),
    (1, (3, -1), (F(1), F(2)), 3, "negative", "k[1]"),
    (1, (3, 2), (F(2), F(2)), 3, "lam[0] must be 1", "lambda[0]"),
    (1, (3, 2), (F(1), F(0)), 3, "not positive", "lambda[1]"),
    (1, (3, 2), (F(1), F(1, 2)), 3, "nondecreasing", "lambda[1]"),
    (1, (2, 3), (F(1), F(2)), 2, "nonincreasing", "k[1]"),
    (1, (3, 2), (F(1), F(2)), 4, "ground-set size", "k[0]"),
    (-1, (), (), 0, "horizon must be >= 0", "T"),
    (2, (3, 2, 1), (F(1), F(2), F(3, 2)), 3, "lam[2] < lam[1]", "lambda[2]"),
    (1, (3.0, 1), (F(1), F(2)), 3, "k[0] = 3.0 is not an integer", "k[0]"),
    (1, (3, True), (F(1), F(2)), 3, "k[1] = True is not an integer", "k[1]"),
    (1.0, (3, 1), (F(1), F(2)), 3, "horizon must be an integer", "T"),
    (True, (3, 1), (F(1), F(2)), 3, "horizon must be an integer", "T"),
]


# each row is named as pytest names it without the field column
@pytest.mark.parametrize("horizon,k,lam,ground,msg,field", BAD_SCHEDULES, ids=[
    f"{h}-k{i}-lam{i}-{g}-{m}"
    for i, (h, _, _, g, m, _) in enumerate(BAD_SCHEDULES)])
def test_validate_schedule_rejects(horizon, k, lam, ground, msg, field):
    sched = Schedule(horizon, k, lam)
    with pytest.raises(MalformedSchedule) as exc:
        validate_schedule(sched, ground)
    assert msg in str(exc.value)
    assert exc.value.field == field


def test_argmin_stage_breaks_ties_low():
    # lam*k is (4, 4, 6): the tie between days 0 and 1 goes to day 0.
    s = Schedule.of([4, 2, 1], [1, 2, 6])
    assert argmin_stage(s) == 0
    # (6, 4, 3): unique minimum on the last day.
    assert argmin_stage(Schedule.of([6, 2, 1], [1, 2, 3])) == 2


def test_argmin_stage_trivial():
    with pytest.raises(TrivialInstance):
        argmin_stage(Schedule.of([2, 0], [1, 2]))


def test_threshold_tau_hand_value():
    s = Schedule.of([2, 1], [1, 2])
    # max(2/(1*2), 2/(2*1)) = 1, scaled by beta.
    assert threshold_tau(F(2), s, F(3)) == 3
    with pytest.raises(TrivialInstance):
        threshold_tau(F(2), Schedule.of([2, 0], [1, 2]), F(3))


def test_threshold_tau_matches_the_max_over_days():
    # one division by the least lam[j]*k[j] is the largest guess/(lam*k)
    rng = random.Random(13)
    for _ in range(300):
        T = rng.randint(0, 5)
        k = sorted((rng.randint(1, 12) for _ in range(T + 1)), reverse=True)
        lam = [F(1)]
        for _ in range(T):
            lam.append(lam[-1] * F(rng.randint(2, 9), rng.randint(1, 4))
                       if rng.random() < 0.7 else lam[-1])
        s = Schedule.of(k, lam)
        guess = F(rng.randint(0, 500), rng.randint(1, 30))
        beta = rng.choice([F(10), F(50), F(0), F(rng.randint(1, 9), 7)])
        for g in (guess, guess.numerator):   # int guesses come from the grid
            tau = threshold_tau(g, s, beta)
            assert type(tau) is Fraction
            assert tau == beta * max(F(g) / (lam[j] * k[j])
                                     for j in range(T + 1))
        with pytest.raises(TrivialInstance):
            threshold_tau(guess, Schedule.of(k + [0], lam + [lam[-1]]), beta)


def test_schedule_keeps_its_products_and_merges():
    s = Schedule.of([6, 4, 3, 1], [1, F(3, 2), F(10, 3), 9])
    assert s.priced == (6, (6, 9, 20, 54), (36, 36, 60, 54))
    assert argmin_stage(s) == 0 and threshold_tau(F(6), s, F(2)) == 2
    for horizon in range(4):
        for r in (2, F(9, 4)):
            want = merge_stages(Schedule(horizon, s.k[:horizon + 1],
                                         s.lam[:horizon + 1]), r)
            assert s.merged(horizon, r) == want
            assert s.merged(horizon, r) is s.merged(horizon, r)


def test_merge_stages_keeps_growth_days():
    s = Schedule.of([5, 4, 3, 2], [1, F(3, 2), 2, 5])
    merged, kept = merge_stages(s, 2)
    assert merged.lam == (F(1), F(2), F(5))
    assert merged.k == (5, 3, 2)
    assert kept == (0, 2, 3)
    # Ratio 1 keeps every day verbatim.
    same, ident = merge_stages(s, 1)
    assert same == s and ident == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        merge_stages(s, F(1, 2))


def test_uncertainty_validation():
    s = Schedule.of([3, 1], [1, 2])
    UncertaintySpec().validate(s, (1, 2, 3))
    with pytest.raises(MalformedSchedule):
        UncertaintySpec(CARDINALITY, (frozenset({1}),)).validate(s, (1, 2, 3))
    with pytest.raises(MalformedSchedule):
        UncertaintySpec("fuzzy").validate(s, (1, 2, 3))
    with pytest.raises(MalformedSchedule):
        UncertaintySpec(SUBSET, ()).validate(s, (1, 2, 3))
    with pytest.raises(MalformedSchedule):
        UncertaintySpec(SUBSET, (frozenset({7}),)).validate(s, (1, 2, 3))
    UncertaintySpec(SUBSET, (frozenset({2}),)).validate(s, (1, 2, 3))


def _three_elements(k, uncertainty=UncertaintySpec()):
    system = SetSystem.build(3, [({1, 2, 3}, 1)])
    return _Game(ProblemInstance(SETCOVER, system, Schedule.of(k, [1, 2, 3]),
                                 uncertainty))


def test_adversary_moves_intersect():
    # each day's active set lies inside the day before's: it is the running
    # intersection of the sets the adversary reveals
    game = _three_elements([3, 2, 1])
    day1 = [game.unit_set(m) for m in game.moves(1, game.full_units, False)]
    assert day1 == [{1, 2}, {1, 3}, {2, 3}]
    one_two = game.moves(1, game.full_units, False)[0]
    day2 = [game.unit_set(m) for m in game.moves(2, one_two, False)]
    assert day2 == [{1}, {2}]
    assert (frozenset({1, 2}) & frozenset({2, 3})) in day2


def test_adversary_moves_respect_parts():
    # under subset uncertainty day i keeps at most k_i units of its part
    # P_i and every active unit outside it
    sub = UncertaintySpec(SUBSET, (frozenset({1, 2}), frozenset({3})))
    game = _three_elements([3, 1, 1], sub)
    day1 = [game.unit_set(m) for m in game.moves(1, game.full_units, False)]
    assert day1 == [{1, 3}, {2, 3}]
    reach = [game.unit_set(m) for m in game.moves(1, game.full_units, True)]
    assert all(len(a & {1, 2}) <= 1 for a in reach)
    assert {1, 2, 3} not in reach and {3} in reach
    wide = _three_elements([3, 2, 1], sub)
    day1 = [wide.unit_set(m) for m in wide.moves(1, wide.full_units, False)]
    assert day1 == [{1, 2, 3}]


def _plan(residuals, critical_day, conservative=False, day0_cost=F(0)):
    return ThriftyPlan(guess=F(1), beta=F(1), tau=F(1),
                       critical_day=critical_day, net=frozenset(),
                       day0_purchase=(), day0_cost=day0_cost,
                       residuals=residuals,
                       residual_actions={u: () for u in residuals},
                       conservative=conservative)


def test_evaluate_thrifty_top_k_witness():
    s = Schedule.of([3, 2, 1], [1, 2, 3])
    plan = _plan({1: F(5), 2: F(3), 3: F(3)}, critical_day=1, day0_cost=F(1))
    report = evaluate_thrifty(plan, s, units=(1, 2, 3))
    # Top two residuals are 5 and 3; the id-2 copy of the tie wins.
    assert report.worst_day_cost == 2 * (5 + 3)
    assert report.robcov == 17
    assert report.witness == (1, 2)
    assert not report.conservative


def test_evaluate_thrifty_drops_zero_witnesses():
    s = Schedule.of([2, 2], [1, 2])
    report = evaluate_thrifty(_plan({1: F(4), 2: F(0)}, 1), s)
    assert report.witness == (1,)
    assert report.worst_day_cost == 8


def test_evaluate_thrifty_missing_residual():
    s = Schedule.of([2, 1], [1, 2])
    with pytest.raises(MissingResidual):
        evaluate_thrifty(_plan({1: F(1)}, 1), s, units=(1, 2))


def test_trivial_and_free_plans():
    # the plan solve_thrifty picks when k_T leaves nothing to pay for
    t = free_plan((1, 2), (), 0, net=())
    assert t.day0_cost == 0 and t.residuals[2] == 0 and t.net == frozenset()
    f = free_plan((0, 1, 2), (4, 5), critical_day=1)
    assert f.day0_purchase == (4, 5)
    assert f.net == frozenset({0, 1, 2})
    g = free_plan((0, 1), (), critical_day=0, net=(1,))
    assert g.net == frozenset({1})


def test_guess_grid_doubles_and_caps():
    assert guess_grid(F(1), F(10)) == [1, 2, 4, 8, 10]
    assert guess_grid(F(3), F(3)) == [3]
    with pytest.raises(ValueError):
        guess_grid(F(0), F(1))


def test_guess_grid_always_hits_endpoints():
    rng = random.Random(7)
    for _ in range(50):
        lb = F(rng.randint(1, 50), rng.randint(1, 9))
        ub = lb + F(rng.randint(0, 400), rng.randint(1, 5))
        grid = guess_grid(lb, ub)
        assert grid[0] == lb and grid[-1] == ub
        assert all(b <= 2 * a for a, b in zip(grid, grid[1:]))


def _reference_evaluate(plan: ThriftyPlan, schedule: Schedule,
                        units) -> CostReport:
    """evaluate_thrifty as it was while every candidate was divided first:
    Fraction residuals, summed from Fraction(0)."""
    for u in units:
        if u not in plan.residuals:
            raise MissingResidual(u)
    j = plan.critical_day
    ranked = sorted(plan.residuals.items(), key=lambda kv: (-kv[1], kv[0]))
    top = ranked[:schedule.k[j]]
    worst = schedule.lam[j] * sum((v for _, v in top), Fraction(0))
    return CostReport(plan.day0_cost, worst, plan.day0_cost + worst,
                      tuple(u for u, v in top if v > 0), plan.conservative)


def _int_candidates(kind, payload, schedule, preprocess, beta=None):
    """L and every grid plan on the int-cost copy, one per guess (the
    driver stops at the first that buys nothing on day 0), in the
    driver's order."""
    spec = KINDS[kind]
    scale, work = payload.integral()
    candidates = []
    if schedule.k[schedule.horizon] <= spec.min_live:
        candidates.append(free_plan(spec.units(payload), (), 0, net=()))
    elif preprocess:
        seen_costs = set()
        for e in sorted(work.edges, key=lambda e: (e.cost, e.eid)):
            if e.cost in seen_costs:
                continue
            seen_costs.add(e.cost)
            try:
                candidates.extend(scaled_candidates(
                    kind, work, schedule, e.eid, beta, 2))
            except Infeasible:
                continue
    if not candidates:
        candidates = grid_plans(spec, work, schedule, beta)
    return scale, candidates


def _reference_candidates(kind, payload, schedule, preprocess):
    """Every grid plan, each divided back to the original money, in the
    driver's order."""
    scale, candidates = _int_candidates(kind, payload, schedule, preprocess)
    return [_divided(plan, scale) for plan in candidates]


def _reference_solve(kind, payload, schedule, preprocess):
    """The driver that divides every candidate, then evaluates each: the
    first with the least robcov wins."""
    units = KINDS[kind].units(payload)
    best = None
    for plan in _reference_candidates(kind, payload, schedule, preprocess):
        report = _reference_evaluate(plan, schedule, units)
        if best is None or report.robcov < best[1].robcov:
            best = (plan, report)
    return best


def _driver_cases():
    for kind in PROBLEM_KINDS:
        for preprocess in (False, True) if kind != SETCOVER else (False,):
            for seed in range(6):
                n = 4 + 2 * seed
                yield kind, preprocess, gen_random(
                    kind, n, n + 2 + seed, 1 + seed % 3, seed)


def test_scaled_driver_matches_dividing_every_candidate():
    # candidates compared on scaled ints, only the winner divided: the same
    # plan and report, to the repr, as dividing every candidate first
    ties = 0
    for kind, preprocess, inst in _driver_cases():
        got = solve_thrifty(kind, inst.payload, inst.schedule,
                            preprocess=preprocess)
        want = _reference_solve(kind, inst.payload, inst.schedule, preprocess)
        assert repr(got) == repr(want), (kind, preprocess, inst)
        units = KINDS[kind].units(inst.payload)
        robcovs = [_reference_evaluate(plan, inst.schedule, units).robcov
                   for plan in _reference_candidates(
                       kind, inst.payload, inst.schedule, preprocess)]
        ties += robcovs.count(min(robcovs)) > 1
    # the first of several equal candidates must win, so ties must occur
    assert ties >= 1


def _evaluated_selection(kind, payload, schedule, beta, preprocess):
    """The selection the int key replaced: every int candidate evaluated,
    the first with the least robcov divided by L and evaluated again."""
    units = KINDS[kind].units(payload)
    scale, candidates = _int_candidates(kind, payload, schedule, preprocess,
                                        beta)
    best = min(candidates,
               key=lambda plan: evaluate_thrifty(plan, schedule, units).robcov)
    plan = _divided(best, scale)
    return plan, evaluate_thrifty(plan, schedule, units)


@pytest.mark.parametrize("beta", [None, F(1)])
def test_int_key_selects_as_the_evaluated_robcov(beta):
    # ranked on robcov times D and only the winner evaluated, divided by L:
    # the same plan and report as evaluating every candidate
    ties = 0
    for kind, preprocess, inst in _driver_cases():
        got = solve_thrifty(kind, inst.payload, inst.schedule, beta,
                            preprocess)
        want = _evaluated_selection(kind, inst.payload, inst.schedule, beta,
                                    preprocess)
        assert got == want and repr(got) == repr(want), (kind, preprocess)
        if preprocess:
            continue
        scale, candidates = _int_candidates(kind, inst.payload,
                                            inst.schedule, False, beta)
        robcovs = [evaluate_thrifty(plan, inst.schedule).robcov
                   for plan in candidates]
        tied = [plan.guess for plan, robcov in zip(candidates, robcovs)
                if robcov == min(robcovs)]
        if len(tied) > 1:
            ties += 1
            assert got[0].guess == F(min(tied), scale) < F(max(tied), scale)
    # the smaller of several equal guesses must win, so ties must occur
    assert ties >= 1


def _raised(fn, *args):
    """fn's result, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except (KRobustError, ValueError) as exc:
        return type(exc), str(exc)


def _grids(payload, schedule, preprocess):
    """(payload, schedule) for each grid the driver runs: the int-cost
    copy's, or with preprocess each scaled graph's from the floor up."""
    _, work = payload.integral()
    floor = work.scaling_floor() if preprocess else None
    if floor is None:
        return [(work, schedule)]
    return [(pre.graph, pre.schedule) for pre in (
        graphcore.preprocess_cost_scaling(work, schedule, f, 2)
        for f in cost_guesses(work) if work.edge_by_id(f).cost >= floor)]


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_grid_stops_exactly_at_its_first_empty_day0_plan(tiny_batches, kind):
    # every plan after the first that buys nothing on day 0 is that plan
    # but for guess and tau, the driver builds the grid up to it and no
    # further, and it picks the winner of every guess, at five betas
    counts = Counter()
    spec = KINDS[kind]
    cases = [(inst.payload, inst.schedule) for inst in tiny_batches[
        kind] + [gen_random(kind, 5 + seed, 15 + 3 * seed,
                            1 + seed % 3, seed) for seed in range(10)]]
    if kind != SETCOVER:   # tied, zero-cost and disconnected graphs
        cases += [case for case in floor_cases(kind) if case[0].n < 9]
    if kind == STEINERTREE:   # stars, whose grids stop midway
        cases += [(WeightedGraph.build(n, [(0, v, 1) for v in range(1, n)] + [
            (v, v + 1, 3) for v in range(1, n - 1)]), Schedule.of(
                [n] + [max(2, n - i) for i in range(1, T + 1)],
                [2 ** i for i in range(T + 1)]))
            for n in range(4, 10) for T in (1, 2, 3)]
    for (payload, schedule), preprocess, beta in itertools.product(
            cases, (False, True) if kind != SETCOVER else (False,),
            (None, F(3), F(1), F(1, 4), F(0))):
        got = _raised(solve_thrifty, kind, payload, schedule, beta,
                      preprocess)
        want = _raised(_evaluated_selection, kind, payload, schedule,
                       beta, preprocess)
        assert repr(got) == repr(want), (kind, payload, preprocess, beta)
        if schedule.k[-1] <= spec.min_live:
            continue
        for g, sched in _grids(payload, schedule, preprocess):
            plans = _raised(grid_plans, spec, g, sched, beta)
            driven = _raised(_candidates, spec, g, sched, beta)
            if isinstance(plans, tuple):
                assert driven == plans
                counts["refused"] += 1
                continue
            stop = next((i for i, plan in enumerate(plans)
                         if not plan.day0_purchase), len(plans) - 1)
            assert driven == plans[:stop + 1], (kind, beta, stop)
            for plan in plans[stop + 1:]:
                assert replace(plan, guess=plans[stop].guess,
                               tau=plans[stop].tau) == plans[stop]
            counts["every" if stop + 1 == len(plans) else
                   "midway" if stop else "first"] += 1
    # every way the stop can go is seen: grids it cuts short at their
    # first plan or midway, grids whose every plan buys something or whose
    # last plan is the first empty one; and disconnected trees and forests
    # refuse alike
    assert counts["first"] >= 50 and counts["midway"] >= 4, counts
    assert counts["every"] >= 400, counts
    assert counts["refused"] >= 20 or kind in (SETCOVER, MINCUT), counts


@pytest.mark.parametrize("kind,sizes", [
    (SETCOVER, (160, 200, 240, 280)), (MINCUT, (30, 36, 42, 48)),
    (STEINERTREE, (24, 30, 36, 42)), (STEINERFOREST, (30, 36, 42, 48))])
def test_plain_solves_build_one_plan_and_rarely_cover_all(monkeypatch, kind,
                                                          sizes):
    # on gen_random(kind, n, 3n, 3, seed), seeds 1-2, at the paper's beta
    # the plan at the lower bound already buys nothing on day 0, so a solve
    # builds one plan and prices no all-units cover; only the set cover
    # with n = 240 and seed 1 buys its whole net, then stops at guess two
    spec, calls = KINDS[kind], Counter()

    def counted(name):
        def call(*args):
            calls[name] += 1
            return getattr(spec, name)(*args)
        return call

    monkeypatch.setitem(KINDS, kind, replace(
        spec, plan=counted("plan"), cover_all=counted("cover_all")))
    seen = {}
    for n, seed in itertools.product(sizes, (1, 2)):
        inst = gen_random(kind, n, 3 * n, 3, seed)
        calls.clear()
        solve_thrifty(kind, inst.payload, inst.schedule)
        seen[n, seed] = calls["plan"], calls["cover_all"]
    assert {case: got for case, got in seen.items() if got != (1, 0)} == (
        {(240, 1): (2, 1)} if kind == SETCOVER else {})


@pytest.mark.parametrize("kind", [MINCUT, STEINERTREE, STEINERFOREST])
def test_preprocessed_solve_restates_only_the_winner(monkeypatch, kind):
    # cost-scaled candidates are ranked in their own frame and only the
    # winner is restated in original terms, also on spread copies (every
    # third edge times n^3) whose guesses prepay edges
    restated, prepaying = [], 0
    reframe = model._reframe
    monkeypatch.setattr(model, "_reframe", lambda plan, pre: (
        restated.append(pre) or reframe(plan, pre)))
    scaled = record_scales(monkeypatch)
    for seed in range(1, 4):
        inst = gen_random(kind, 16, 48, 3, seed)
        g = inst.payload
        spread = WeightedGraph.build(g.n, [
            (e.u, e.v, e.cost * g.n ** 3 if i % 3 == 0 else e.cost)
            for i, e in enumerate(g.edges)], g.root,
            [(p.s, p.t) for p in g.pairs])
        for h in (g, spread):
            restated.clear()
            scaled.clear()
            plan, _ = solve_thrifty(kind, h, inst.schedule, None, True)
            pre, = [s for s in scaled if s.f_guess == plan.preprocess_f]
            assert len(restated) == 1 and restated[0] is pre
            owned = pre.prepaid.ids
            assert owned <= set(plan.day0_purchase)
            assert not owned & {i for acts in plan.residual_actions.values()
                                for i in acts}
            prepaying += sum(bool(s.prepaid.ids) for s in scaled)
    # the spread copies make candidates that prepay edges
    assert prepaying > 0


def test_driver_checks_every_candidate_for_missing_residuals(monkeypatch):
    # a unit missing from a losing plan raises, as it did when every
    # candidate was evaluated against the units
    inst = gen_random(SETCOVER, 10, 14, 2, 3)
    spec = KINDS[SETCOVER]
    won, _ = solve_thrifty(SETCOVER, inst.payload, inst.schedule, F(1))
    winner = won.guess * inst.payload.integral()[0]
    lost = []

    def lacking(system, schedule, guess, beta):
        plan = spec.plan(system, schedule, guess, beta)
        if guess == winner:
            return plan
        lost.append(guess)
        residuals = dict(plan.residuals)
        del residuals[1]
        return replace(plan, residuals=residuals)

    monkeypatch.setitem(KINDS, SETCOVER, replace(spec, plan=lacking))
    with pytest.raises(MissingResidual):
        solve_thrifty(SETCOVER, inst.payload, inst.schedule, F(1))
    assert lost


def test_cost_scaling_refuses_set_cover_before_its_schedule():
    # a set system is not a graph, which decides ahead of a bad k[0], which
    # raises without preprocess, and of k_T = 0, which is trivial without it
    system = gen_random(SETCOVER, 6, 9, 2, 1).payload
    lam = (1, 2, 4)
    for k, plain in [((5, 2, 1), BadSchedule), ((6, 2, 0), None)]:
        schedule = Schedule.of(k, lam)
        if plain is None:
            _, report = solve_thrifty(SETCOVER, system, schedule)
            assert report.robcov == 0
        else:
            with pytest.raises(plain, match=r"k\[0\] = 5"):
                solve_thrifty(SETCOVER, system, schedule)
        with pytest.raises(BadParameters, match="graph problems only"):
            solve_thrifty(SETCOVER, system, schedule, None, True)


@pytest.mark.parametrize("preprocess", [False, True])
def test_tree_solve_compares_fractions_a_fixed_number_of_times(
        monkeypatch, preprocess):
    # every threshold, day and candidate is decided on ints: the Fraction
    # comparisons left (the schedule's checks) do not grow with n
    counts = []
    compare = Fraction._richcmp
    for n in (12, 36):
        inst = gen_random(STEINERTREE, n, 3 * n, 3, 1)
        calls = []

        def counted(a, b, op):
            calls.append(op)
            return compare(a, b, op)

        with monkeypatch.context() as m:
            m.setattr(Fraction, "_richcmp", counted)
            solve_thrifty(STEINERTREE, inst.payload, inst.schedule,
                          preprocess=preprocess)
        counts.append(len(calls))
    assert counts[1] <= counts[0], counts
