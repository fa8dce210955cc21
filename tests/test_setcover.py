"""Set system construction, greedy cover, and the thrifty set cover solver."""

import random
from fractions import Fraction

import pytest

from krobust.cli import parse_instance
from krobust.errors import Infeasible
from krobust.fixtures import gen_lowerbound_allstages, gen_random
from krobust.model import SETCOVER, Schedule, evaluate_thrifty, guess_grid
from krobust.setcover import SetSystem, build_net, greedy_cover, solve, thrifty_plan

F = Fraction


def _system(*sets, universe=None):
    size = universe if universe is not None else max(e for m, _ in sets for e in m)
    return SetSystem.build(size, sets)


def test_build_tracks_cheapest_set():
    sys_ = _system(({1, 2}, 2), ({2}, F(1, 2)), ({1}, 2))
    assert sys_.minset_cost == {1: 2, 2: F(1, 2)}
    # the tie between sets 0 and 2 for element 1 goes to the smaller id
    assert sys_.minset_id == {1: 0, 2: 1}
    assert sys_.elements() == (1, 2)
    assert sys_.covered_by([1, 2]) == frozenset({1, 2})


def _spellings(cost):
    """Ways a document can write cost: "p/q", "2p/2q" and, if whole, an int."""
    cost = F(cost)
    out = [str(cost), f"{2 * cost.numerator}/{2 * cost.denominator}"]
    return out + [int(cost)] if cost.denominator == 1 else out


def test_build_cheapest_set_matches_brute_force():
    # equal costs written differently (1 and F(2, 2) here, "1", "2/2" and 1
    # in a document) tie, and ties go to the smallest set id
    rng = random.Random(5)
    costs = (0, 0, 1, F(2, 2), 2, F(1, 2), F(3, 2))
    for _ in range(300):
        size = rng.randint(1, 10)
        sets = [(frozenset(rng.sample(range(1, size + 1), rng.randint(0, size))),
                 rng.choice(costs)) for _ in range(rng.randint(0, 9))]
        sets.insert(rng.randint(0, len(sets)),
                    (frozenset(range(1, size + 1)), rng.choice(costs)))
        sys_ = SetSystem.build(size, sets)
        doc = {"problem": SETCOVER,
               "schedule": {"T": 0, "k": [size], "lambda": ["1"]},
               "sets": [{"members": sorted(members),
                         "cost": rng.choice(_spellings(c))}
                        for members, c in sets]}
        parsed = parse_instance(doc).payload
        for e in sys_.elements():
            cost, sid = min((F(c), sid) for sid, (members, c) in enumerate(sets)
                            if e in members)
            assert (sys_.minset_cost[e], sys_.minset_id[e]) == (cost, sid)
            assert (parsed.minset_cost[e], parsed.minset_id[e]) == (cost, sid)


BAD_SETS = [
    ((({1}, -1),), 1, "negative cost", "sets[0].cost"),
    ((({0}, 1),), 1, "unknown element", "sets[0].members[0]"),
    ((({2}, 1),), 1, "unknown element", "sets[0].members[0]"),
    ((({1}, 1),), 2, "not covered", "sets"),
    # two faults: the first in set order is named, whichever check found one
    ((({1}, 1), ({3}, 1), ({1}, -1)), 1, "set 1 contains unknown element 3",
     "sets[1].members[0]"),
    # the position in the caller's order, not in the set's
    ((([1, 9, 1, 0], 1),), 1, "unknown element 9", "sets[0].members[1]"),
]


# each row is named as pytest names it without the field column
@pytest.mark.parametrize("sets,universe,msg,field", BAD_SETS, ids=[
    f"sets{i}-{u}-{m}" for i, (_, u, m, _) in enumerate(BAD_SETS)])
def test_build_rejects(sets, universe, msg, field):
    with pytest.raises(Infeasible, match=msg) as exc:
        SetSystem.build(universe, sets)
    assert exc.value.field == field


def test_greedy_prefers_free_then_ratio():
    sys_ = _system(({1, 2}, 2), ({2, 3}, 2), ({3}, 0), ({1, 2, 3}, 5))
    chosen, total = greedy_cover(sys_, (1, 2, 3))
    assert chosen == [2, 0]
    assert total == 2


def test_greedy_tie_smallest_id():
    sys_ = _system(({1}, 1), ({1}, 1))
    chosen, total = greedy_cover(sys_, (1,))
    assert chosen == [0] and total == 1


def test_greedy_rejects_uncoverable_target():
    sys_ = _system(({1}, 1))
    with pytest.raises(Infeasible):
        greedy_cover(sys_, (9,))


def _rescan_greedy(system, targets):
    """Reference greedy: rescan every set on every pick."""
    want = set(targets)
    chosen, total, covered = [], F(0), set()
    while want - covered:
        best_sid, best_key = -1, None
        for sid, (members, cost) in enumerate(system.sets):
            new = len((members & want) - covered)
            if new == 0:
                continue
            key = (1, F(0)) if cost == 0 else (0, F(new, cost))
            if best_key is None or key > best_key:
                best_key, best_sid = key, sid
        if best_sid < 0:
            raise Infeasible("targets cannot be covered")
        chosen.append(best_sid)
        total += system.sets[best_sid][1]
        covered |= system.sets[best_sid][0]
    return chosen, total


def test_lazy_greedy_matches_full_rescan():
    # zero and repeated costs make ties between free sets and equal ratios
    rng = random.Random(11)
    costs = (0, 0, 1, 1, 1, 2, 2, F(1, 2), F(3, 2), F(2, 3))
    multi_pick = 0
    for _ in range(400):
        size = rng.randint(2, 12)
        sets = [(frozenset(rng.sample(range(1, size + 1), rng.randint(1, size))),
                 rng.choice(costs)) for _ in range(rng.randint(1, 14))]
        sets += [(frozenset({e}), rng.choice(costs)) for e in range(1, size + 1)]
        rng.shuffle(sets)
        sys_ = SetSystem.build(size, sets)
        targets = rng.sample(range(1, size + 1), rng.randint(0, size))
        want = _rescan_greedy(sys_, targets)
        assert greedy_cover(sys_, targets) == want
        multi_pick += len(want[0]) > 1
        with pytest.raises(Infeasible):
            greedy_cover(sys_, targets + [size + 1])
    assert multi_pick >= 200


def test_build_net_threshold_inclusive():
    sys_ = _system(({1}, 1), ({2}, 2))
    assert build_net(sys_, F(2)) == frozenset({2})
    assert build_net(sys_, F(1)) == frozenset({1, 2})
    assert build_net(sys_, F(3)) == frozenset()


def test_thrifty_plan_shared_minset_is_conservative():
    sys_ = _system(({1, 2}, 3), ({1}, 5))
    sched = Schedule.of([2, 1], [1, 2])
    plan = thrifty_plan(sys_, sched, F(3))
    assert plan.conservative
    assert plan.residual_actions == {1: (0,), 2: (0,)}
    report = evaluate_thrifty(plan, sched, sys_.elements())
    # both elements charge set 0 separately, so this is only an upper bound
    assert report.robcov == 6


def test_solve_multi_inflation_instance():
    inst = gen_lowerbound_allstages(2, F(2, 5))
    assert inst.kind == SETCOVER
    plan, report = solve(inst.payload, inst.schedule)
    assert report.robcov == F(343, 125)
    assert plan.guess == F(7, 5)
    assert plan.critical_day == 2
    assert plan.day0_purchase == () and plan.day0_cost == 0
    assert plan.net == frozenset()
    assert plan.tau == F(1559583, 43750)
    assert not plan.conservative
    assert report.witness == (1,)


def test_solve_trivial_when_nothing_survives():
    sys_ = _system(({1}, 1), ({2}, 1))
    plan, report = solve(sys_, Schedule.of([2, 0], [1, 2]))
    assert report.robcov == 0 and plan.day0_purchase == ()


def test_solve_free_cover_buys_day0():
    sys_ = _system(({1, 2}, 0))
    plan, report = solve(sys_, Schedule.of([2, 1], [1, 3]))
    assert report.robcov == 0
    assert plan.day0_purchase == (0,)


def test_solve_picks_best_grid_guess():
    for seed in range(8):
        inst = gen_random(SETCOVER, 4, 6, 2, seed)
        sys_, sched = inst.payload, inst.schedule
        plan, report = solve(sys_, sched)
        lb = max(sys_.minset_cost[e] for e in sys_.elements())
        _, ub = greedy_cover(sys_, sys_.elements())
        evals = [evaluate_thrifty(thrifty_plan(sys_, sched, g), sched).robcov
                 for g in guess_grid(lb, ub)]
        assert report.robcov == min(evals)
        assert plan.guess in guess_grid(lb, ub)


def test_plan_invariants_on_random_batch(solved_batches):
    for inst, plan, report in solved_batches[SETCOVER]:
        sys_ = inst.payload
        covered = sys_.covered_by(plan.day0_purchase)
        assert plan.net <= covered
        for e in sys_.elements():
            acts = plan.residual_actions[e]
            assert plan.residuals[e] == sum(
                (sys_.sets[s][1] for s in acts), F(0))
            if e in covered:
                assert acts == () and plan.residuals[e] == 0
        assert report.robcov == plan.day0_cost + report.worst_day_cost
