"""Set system construction, greedy cover, and the thrifty set cover solver."""

import heapq
import math
import random
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

import pytest

from krobust.cli import parse_instance
from krobust.errors import BadSetField, Infeasible
from krobust.fixtures import gen_lowerbound_allstages, gen_random
from krobust.model import (KINDS, SETCOVER, ProblemInstance, Schedule,
                           ThriftyPlan, argmin_stage, evaluate_thrifty,
                           guess_grid, ln_upper, scaled_to_ints,
                           threshold_tau)
from krobust.setcover import (SetSystem, build_net, elements_of, greedy_cover,
                              solve, thrifty_plan)
from conftest import set_pairs

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


def test_elements_of_decodes_every_bit():
    rng = random.Random(3)
    for _ in range(300):
        members = sorted(rng.sample(range(1, 3000), rng.randint(0, 6)))
        assert elements_of(sum(1 << e for e in members)) == members
    assert elements_of(0) == [] and elements_of(1 << 10**5) == [10**5]


def test_repr_prints_masks_in_hex_at_any_size():
    # 20,000 singletons: the top mask has 20,001 bits, over 6,000 decimal
    # digits, which str() of an int refuses
    big = SetSystem.build(20000, [([e], 1) for e in range(1, 20001)])
    inst = ProblemInstance(SETCOVER, big, Schedule.of([20000, 1], [1, 2]))
    assert "masks=(0x2, 0x4, 0x8, " in repr(big)
    assert hex(1 << 20000) in repr(inst)
    assert big == SetSystem.build(20000, [([e], 1) for e in range(1, 20001)])
    small = _system(({1}, 1), ({2}, 2), ({1, 2}, F(5, 2)))
    assert repr(small) == (
        "SetSystem(universe_size=2, masks=(0x2, 0x4, 0x6), costs=("
        "Fraction(1, 1), Fraction(2, 1), Fraction(5, 2)), minset_cost="
        "{1: Fraction(1, 1), 2: Fraction(2, 1)}, minset_id={1: 0, 2: 1})")
    assert repr(_system(({1}, 1))).startswith(
        "SetSystem(universe_size=1, masks=(0x2,), ")


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


class _Two(IntEnum):
    TWO = 2


_DENSE = [1, 2, 3] * 20
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
    # a member that is not an int is refused in the same words, and the
    # first type or range fault in list order is named; True == 1 is not
    # the element 1
    ((([1, True], 1),), 1, "set 0 contains unknown element True",
     "sets[0].members[1]"),
    ((([1], 1), ([0, "x"], 1)), 1, "unknown element 0", "sets[1].members[0]"),
    ((([1], 1), (["x", 0], 1)), 1, "unknown element 'x'",
     "sets[1].members[0]"),
    ((([1, [1]], 1), ([1], -1)), 1, r"unknown element \[1\]",
     "sets[0].members[1]"),
    ((([1], -1), (["x"], 1)), 1, "set 0 has negative cost", "sets[0].cost"),
    # a set that lists the universe 20 times is marked in a digit string,
    # where a negative index would wrap (-1 to element 3, -4 to the unused
    # digit 0) and an index past it raise; a short set is shifted in, where
    # 1 << 10**30 would not fit in memory.  Set 0 covers every element
    # first, so only the masks can find the fault in set 1
    ((([1, 2, 3], 1), ([*_DENSE, -1], 1)), 3, "unknown element -1",
     "sets[1].members[60]"),
    ((([1, 2, 3], 1), ([*_DENSE, -4], 1)), 3, "unknown element -4",
     "sets[1].members[60]"),
    ((([1, 2, 3], 1), ([*_DENSE, -5], 1)), 3, "unknown element -5",
     "sets[1].members[60]"),
    ((([1, 2, 3], 1), ([*_DENSE, 10**30], 1)), 3, "unknown element 10{30}",
     "sets[1].members[60]"),
    ((([1, 2, 3], 1), ([-1], 1)), 3, "set 1 contains unknown element -1",
     "sets[1].members[0]"),
    ((([1, 2, 3], 1), ([2, 10**30], 1)), 3, "unknown element 10{30}",
     "sets[1].members[1]"),
    # an int subclass indexes and shifts like an int, and is refused
    ((([1, 2, 3], 1), ([*_DENSE, _Two.TWO], 1)), 3,
     "unknown element <_Two.TWO: 2>", "sets[1].members[60]"),
    ((([1, 2, 3], 1), ([_Two.TWO], 1)), 3, "unknown element <_Two.TWO: 2>",
     "sets[1].members[0]"),
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
        for sid, (members, cost) in enumerate(set_pairs(system)):
            new = len((members & want) - covered)
            if new == 0:
                continue
            key = (1, F(0)) if cost == 0 else (0, F(new, cost))
            if best_key is None or key > best_key:
                best_key, best_sid = key, sid
        if best_sid < 0:
            raise Infeasible("targets cannot be covered")
        chosen.append(best_sid)
        total += set_pairs(system)[best_sid][1]
        covered |= set_pairs(system)[best_sid][0]
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
                (set_pairs(sys_)[s][1] for s in acts), F(0))
            if e in covered:
                assert acts == () and plan.residuals[e] == 0
        assert report.robcov == plan.day0_cost + report.worst_day_cost


# The frozenset implementation that the bitmask one replaced, kept as the
# reference it must agree with.

@dataclass(frozen=True)
class _FrozenSystem:
    universe_size: int
    sets: tuple
    minset_cost: dict
    minset_id: dict

    def elements(self):
        return tuple(range(1, self.universe_size + 1))

    def covered_by(self, set_ids):
        out = set()
        for sid in set_ids:
            out |= self.sets[sid][0]
        return frozenset(out)


def _frozen_build(universe_size, sets):
    sets = tuple(sets)
    norm = tuple((frozenset(members),
                  cost if isinstance(cost, Fraction) else Fraction(cost))
                 for members, cost in sets)
    _, keys = scaled_to_ints(cost for _, cost in norm)
    union = frozenset().union(*(members for members, _ in norm))
    if (min(keys, default=0) < 0 or union
            and not 1 <= min(union) <= max(union) <= universe_size):
        for sid, (members, _) in enumerate(sets):
            if norm[sid][1] < 0:
                raise BadSetField(f"sets[{sid}].cost",
                                  f"set {sid} has negative cost")
            for j, e in enumerate(members):
                if not 1 <= e <= universe_size:
                    raise BadSetField(
                        f"sets[{sid}].members[{j}]",
                        f"set {sid} contains unknown element {e}")
    if len(union) < universe_size:
        e = next(e for e in range(1, universe_size + 1) if e not in union)
        raise BadSetField("sets", f"element {e} is not covered by any set")
    minset_cost, minset_id = {}, {}
    for sid in sorted(range(len(norm)), key=keys.__getitem__):
        if len(minset_id) == universe_size:
            break
        members, cost = norm[sid]
        new = members.difference(minset_id)
        minset_cost.update(dict.fromkeys(new, cost))
        minset_id.update(dict.fromkeys(new, sid))
    return _FrozenSystem(universe_size, norm, minset_cost, minset_id)


def _frozen_covers(system, ids, units):
    return all(any(u in system.sets[sid][0] for sid in ids) for u in units)


def _frozen_greedy(system, targets):
    remaining = set(targets)
    chosen, total = [], Fraction(0)
    if not remaining:
        return chosen, total
    priced = math.lcm(*(cost.numerator for _, cost in system.sets if cost))
    weight = [cost.denominator * (priced // cost.numerator) if cost else 0
              for _, cost in system.sets]

    def rank(sid):
        new = len(system.sets[sid][0] & remaining)
        if new == 0:
            return None
        return (1, -new * weight[sid], sid) if weight[sid] else (0, 0, sid)

    heap = [key for key in map(rank, range(len(system.sets))) if key]
    heapq.heapify(heap)
    while remaining:
        if not heap:
            raise Infeasible("targets cannot be covered")
        stale = heapq.heappop(heap)
        fresh = rank(stale[2])
        if fresh != stale:
            if fresh:
                heapq.heappush(heap, fresh)
            continue
        members, cost = system.sets[stale[2]]
        chosen.append(stale[2])
        total += cost
        remaining -= members
    return chosen, total


def _frozen_net(system, tau):
    return frozenset(e for e in system.elements()
                     if system.minset_cost[e] >= tau)


def _frozen_plan(system, schedule, guess, beta=None):
    if beta is None:
        beta = 36 * ln_upper(len(system.sets))
    tau = threshold_tau(guess, schedule, beta)
    net = _frozen_net(system, tau)
    day0_ids, day0_cost = _frozen_greedy(system, net)
    covered = system.covered_by(day0_ids)
    residuals, actions = {}, {}
    for e in system.elements():
        if e in covered:
            residuals[e], actions[e] = Fraction(0), ()
        else:
            residuals[e] = system.minset_cost[e]
            actions[e] = (system.minset_id[e],)
    pending = [system.minset_id[e] for e in system.elements()
               if e not in covered and system.minset_cost[e] > 0]
    return ThriftyPlan(guess=Fraction(guess), beta=Fraction(beta), tau=tau,
                       critical_day=argmin_stage(schedule), net=net,
                       day0_purchase=tuple(day0_ids), day0_cost=day0_cost,
                       residuals=residuals, residual_actions=actions,
                       conservative=len(pending) != len(set(pending)))


def _random_sets(rng, size):
    """Sets over 1..size whose members come as a list (which may repeat a
    member), a set or a frozenset; costs include zero and equal values
    written differently."""
    costs = (0, 0, 1, F(2, 2), 2, F(1, 2), F(3, 2), F(2, 3), F(7, 3), 5)
    sets = []
    for _ in range(rng.randint(1, 10)):
        members = rng.choices(range(1, size + 1), k=rng.randint(0, size))
        shape = rng.choice((list, set, frozenset))
        sets.append((shape(members), rng.choice(costs)))
    if rng.random() < 0.8:
        sets.append((list(range(1, size + 1)), rng.choice(costs)))
    if rng.random() < 0.1:   # a member out of range
        sets.append(([rng.choice((0, size + 1))], 1))
    if rng.random() < 0.1:
        sets.insert(rng.randrange(len(sets) + 1), ([1], -1))
    rng.shuffle(sets)
    return sets


def _fault(build, size, sets):
    try:
        build(size, sets)
    except BadSetField as exc:
        return exc.field, str(exc)
    return None


def test_both_mask_regimes_match_the_frozenset_reference():
    # singletons and pairs are shifted into their masks, and sets holding
    # half or all of a universe of 100 or more are marked in a digit string
    # (setcover._masks); lists may repeat members
    rng = random.Random(32)
    costs = (0, 1, F(1, 2), F(2, 3), 5)
    shifted = marked = 0
    for _ in range(80):
        size = rng.randint(100, 400)
        sets = []
        for _ in range(rng.randint(1, 12)):
            members = rng.sample(range(1, size + 1),
                                 rng.choice((1, 2, (size + 1) // 2, size)))
            shifted += len(members) <= 2
            marked += len(members) > 2
            members += rng.choices(members, k=rng.randint(0, len(members)))
            shape = rng.choice((list, set, frozenset))
            sets.append((shape(members), rng.choice(costs)))
        if rng.random() < 0.8:
            sets.append((rng.sample(range(1, size + 1), size) * 2,
                         rng.choice(costs)))
        fault = _fault(_frozen_build, size, sets)
        assert _fault(SetSystem.build, size, sets) == fault
        if fault:
            continue
        ref, sys_ = _frozen_build(size, sets), SetSystem.build(size, sets)
        assert sys_.masks == tuple(sum(1 << e for e in set(m))
                                   for m, _ in sets)
        assert set_pairs(sys_) == ref.sets
        assert (sys_.minset_cost, sys_.minset_id) == (ref.minset_cost,
                                                      ref.minset_id)
    assert shifted >= 200 and marked >= 200


def test_bitmask_system_matches_frozenset_reference():
    rng = random.Random(18)
    guesses = (F(1, 3), F(1, 2), F(5, 4), F(7, 3), 4)
    betas = (F(1, 2), F(3, 2), F(11, 5))
    systems = repeated = below_ceiling = 0
    while systems < 200:
        size = rng.randint(1, 10)
        sets = _random_sets(rng, size)
        fault = _fault(_frozen_build, size, sets)
        assert _fault(SetSystem.build, size, sets) == fault
        if fault:
            continue
        systems += 1
        repeated += any(isinstance(m, list) and len(set(m)) < len(m)
                        for m, _ in sets)
        ref, sys_ = _frozen_build(size, sets), SetSystem.build(size, sets)
        assert set_pairs(sys_) == ref.sets
        assert (sys_.minset_cost, sys_.minset_id) == (ref.minset_cost,
                                                      ref.minset_id)
        for _ in range(5):
            ids = rng.sample(range(len(sets)), rng.randint(0, len(sets)))
            units = rng.sample(range(1, size + 1), rng.randint(0, size))
            assert sys_.covered_by(ids) == ref.covered_by(ids)
            assert (KINDS[SETCOVER].cover_table(sys_, ids, units)
                    >> (1 << len(ids)) - 1 & 1
                    == _frozen_covers(ref, ids, units))
            targets = units + rng.choice(([], [size + 1]))
            try:
                want = _frozen_greedy(ref, targets)
            except Infeasible:
                with pytest.raises(Infeasible):
                    greedy_cover(sys_, targets)
            else:
                assert greedy_cover(sys_, targets) == want
        k = [size]
        while len(k) < 3 and k[-1] > 1:
            k.append(rng.randint(1, k[-1]))
        sched = Schedule.of(k, [F(1), F(3, 2), F(4)][:len(k)])
        # the --guess path plans on the Fraction payload itself
        for guess in guesses:
            for beta in betas:
                plan = thrifty_plan(sys_, sched, guess, beta)
                want = _frozen_plan(ref, sched, guess, beta)
                assert plan == want
                assert (evaluate_thrifty(plan, sched, sys_.elements())
                        == evaluate_thrifty(want, sched, ref.elements()))
                below_ceiling += any(ref.minset_cost[e] < math.ceil(plan.tau)
                                     for e in plan.net)
        # solve runs on the int copy and divides only the winner back
        lb = max(ref.minset_cost.values())
        ub = _frozen_greedy(ref, ref.elements())[1]
        if ub > 0:
            best = None
            for guess in guess_grid(lb, ub):
                plan = _frozen_plan(ref, sched, guess)
                report = evaluate_thrifty(plan, sched, ref.elements())
                if best is None or report.robcov < best[1].robcov:
                    best = plan, report
            assert solve(sys_, sched) == best
    assert repeated >= 50
    # nets that an integer threshold ceil(tau) would shrink
    assert below_ceiling >= 100
