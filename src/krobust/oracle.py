"""Ground truth for tiny instances.

Provides exact optima by brute force (exact_min, for any kind), the
exact minimax value of the adaptive game by backward induction with
memoization, exhaustive worst-case evaluation and feasibility checking of
two-day plans, grid endpoints for the guessing loops, and an exact evaluator
specialized to partitioned single-survivor instances whose ground sets are
too large for the generic game solver.

Everything here is exponential by design and guarded by SizeLimits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping

from .errors import BadParameters, Infeasible, TooLarge
from .model import (KINDS, SUBSET, ProblemInstance, Schedule, ThriftyPlan,
                    on_integers, require_live, scaled_to_ints)
from .setcover import SetSystem

_INF = float("inf")


@dataclass(frozen=True)
class SizeLimits:
    """Hard caps checked before any exponential enumeration starts."""

    max_units: int = 8
    max_actions: int = 12
    max_horizon: int = 3

    def check(self, n_units: int, n_actions: int, horizon: int) -> None:
        if n_units > self.max_units:
            raise TooLarge(f"{n_units} ground units exceed limit {self.max_units}")
        if n_actions > self.max_actions:
            raise TooLarge(f"{n_actions} actions exceed limit {self.max_actions}")
        if horizon > self.max_horizon:
            raise TooLarge(f"horizon {horizon} exceeds limit {self.max_horizon}")


# ---------------------------------------------------------------- exact optima

def _by_cost(costs: tuple[int, ...]) -> list[tuple[int, int]]:
    """Every action mask with its total int cost, cheapest first (ties to
    the smaller mask)."""
    totals = [0] * (1 << len(costs))
    for mask in range(1, len(totals)):
        low = mask & -mask
        totals[mask] = totals[mask ^ low] + costs[low.bit_length() - 1]
    return sorted(zip(totals, range(len(totals))))


def _cheapest(actions, ok, limits: SizeLimits | None) -> Fraction:
    """Minimum total cost of an action subset whose ids satisfy ok: the
    first subset in cheapest-first order that passes."""
    (limits or SizeLimits()).check(0, len(actions), 0)
    scale, costs = scaled_to_ints(cost for _, cost in actions)
    for cost, mask in _by_cost(costs):
        if ok([aid for i, (aid, _) in enumerate(actions) if mask >> i & 1]):
            return Fraction(cost, scale)
    raise Infeasible("no action subset is feasible")


def exact_min(kind: str, payload, units: Iterable,
              limits: SizeLimits | None = None) -> Fraction:
    """Minimum cost of an action subset covering the units, by enumeration.

    The units are ids of the payload's own units (KINDS[kind].units):
    elements for set cover, non-root vertices to cut off from the root,
    vertices to join, and pair ids for a forest.  No action covers an id
    the payload does not have, so such an id raises Infeasible."""
    spec, want = KINDS[kind], frozenset(units)
    alien = want.difference(spec.units(payload))
    if alien:
        raise Infeasible(f"{sorted(alien)} name no unit of this instance")
    if spec.covers(payload, (), want):
        return Fraction(0)
    return _cheapest(payload.actions(),
                     lambda ids: spec.covers(payload, ids, want), limits)


# ------------------------------------------------------------- the exact game

@dataclass(frozen=True)
class TraceNode:
    """One state of an optimal strategy: what it buys at (day, active), its
    optimal cost-to-go, and a subtree per adversary move."""

    day: int
    active: frozenset
    purchase: tuple
    value: Fraction
    children: tuple


class _Game:
    """Bitmask encoding of one instance for the backward-induction solver.

    Money is integer: action costs are scaled by the LCM of their
    denominators and inflations by the LCM of theirs, so every value the
    search compares is an int in units of 1/money_scale.  The game never
    asks which kind it plays: its one feasibility test is the kind's
    covers.  Moves and coverage checks are pure functions of their masks
    and are cached here, so the caches live exactly as long as the game.
    """

    def __init__(self, instance: ProblemInstance):
        self.payload = instance.payload
        self.covers = KINDS[instance.kind].covers
        self.units = tuple(instance.units())
        uidx = {u: i for i, u in enumerate(self.units)}
        self.schedule = instance.schedule
        actions = instance.payload.actions()
        self.action_ids = tuple(aid for aid, _ in actions)
        cost_scale, self.costs = scaled_to_ints(cost for _, cost in actions)
        lam_scale, self.lam = scaled_to_ints(self.schedule.lam)
        self.money_scale = cost_scale * lam_scale
        self.full_units = (1 << len(self.units)) - 1
        self.parts_mask = None
        if instance.uncertainty.kind == SUBSET:
            self.parts_mask = tuple(
                sum(1 << uidx[u] for u in part)
                for part in instance.uncertainty.parts)
        self.move_cache: dict = {}
        self.feasible_cache: dict = {}

    def check(self, limits: SizeLimits | None) -> None:
        (limits or SizeLimits()).check(len(self.units), len(self.action_ids),
                                       self.schedule.horizon)

    def money(self, value: int) -> Fraction:
        return Fraction(value, self.money_scale)

    @cached_property
    def masks(self) -> list[tuple[int, int]]:
        """Every owned-action mask with its scaled cost, cheapest first."""
        return _by_cost(self.costs)

    def unit_set(self, mask: int) -> frozenset:
        return frozenset(self.units[i] for i in range(len(self.units))
                         if mask >> i & 1)

    def action_set(self, mask: int) -> tuple:
        return tuple(self.action_ids[i] for i in range(len(self.action_ids))
                     if mask >> i & 1)

    def feasible(self, owned: int, active: int) -> bool:
        key = owned << len(self.units) | active
        got = self.feasible_cache.get(key)
        if got is None:
            ids = {aid for i, aid in enumerate(self.action_ids)
                   if owned >> i & 1}
            got = self.feasible_cache[key] = self.covers(
                self.payload, ids, self.unit_set(active))
        return got

    def moves(self, next_day: int, active: int, full: bool) -> tuple[int, ...]:
        """Adversary's reachable next active-unit masks, ascending."""
        key = next_day, active, full
        got = self.move_cache.get(key)
        if got is None:
            got = self.move_cache[key] = tuple(
                sorted(self._reachable(next_day, active, full)))
        return got

    def _reachable(self, next_day: int, active: int, full: bool) -> set[int]:
        bits = [i for i in range(len(self.units)) if active >> i & 1]
        k = self.schedule.k[next_day]
        out = set()
        if self.parts_mask is not None:
            part = self.parts_mask[next_day - 1]
            inside = [i for i in bits if part >> i & 1]
            outside_mask = active & ~part
            keep_sizes = (range(min(k, len(inside)) + 1) if full
                          else [min(k, len(inside))])
            for size in keep_sizes:
                for keep in combinations(inside, size):
                    kept = sum(1 << i for i in keep)
                    if full:
                        rest = [i for i in bits if not part >> i & 1]
                        for rsize in range(len(rest) + 1):
                            for rk in combinations(rest, rsize):
                                out.add(kept | sum(1 << i for i in rk))
                    else:
                        out.add(kept | outside_mask)
            return out
        n_total = len(self.units)
        hi = min(k, len(bits))
        lo = max(0, k - (n_total - len(bits))) if full else hi
        for size in range(lo, hi + 1):
            for keep in combinations(bits, size):
                out.add(sum(1 << i for i in keep))
        return out

    def memo_key(self, day: int, active: int, owned: int) -> int:
        """One int per state, smaller than a tuple in the memo."""
        return ((owned << len(self.units) | active)
                * (self.schedule.horizon + 1) + day)


def minimax_opt(instance: ProblemInstance, limits: SizeLimits | None = None,
                full_adversary: bool = False,
                inactive_days: Iterable[int] = ()
                ) -> tuple[Fraction, TraceNode]:
    """Exact optimal adaptive value by backward induction, with one optimal
    strategy as a trace tree (children cover every adversary move).

    inactive_days forbids any purchase on the listed days; full_adversary
    enumerates every reachable next active set instead of only the
    maximal-cardinality ones (the values agree — kept for spot checks).
    The search runs on the game's integer money; the value and every trace
    node's value come back as exact Fractions.

    A state is settled once the adversary must keep the whole active set on
    every later day (always so on day T): nothing is left to learn, so the
    best play buys the cheapest completion of owned on the cheapest open
    day.  Such a state is answered from that completion alone, without
    searching: buy it today, or buy nothing if a later open day costs no
    more, since the search would reach the empty purchase first.
    """
    game = _Game(instance)
    game.check(limits)
    T = game.schedule.horizon
    lam = game.lam
    forbidden = frozenset(inactive_days)
    # the least inflation of an open day after each day, None if none is left
    least_later = [min((lam[i] for i in range(day + 1, T + 1)
                        if i not in forbidden), default=None)
                   for day in range(T + 1)]
    memo: dict = {}
    settled_cache: dict = {}
    empty_only = [(0, 0)]

    def settled(day: int, active: int) -> bool:
        """Whether the adversary must keep all of active on every day
        after day, so that the state has nothing left to learn."""
        key = active * (T + 1) + day
        got = settled_cache.get(key)
        if got is None:
            got = settled_cache[key] = day == T or (
                game.moves(day + 1, active, full_adversary) == (active,)
                and settled(day + 1, active))
        return got

    def completion(active: int, owned: int) -> tuple:
        """The first (cost, mask) in cheapest-first order that owned does
        not meet and that covers active together with owned."""
        for cost, mask in game.masks:
            if not mask & owned and game.feasible(owned | mask, active):
                return cost, mask
        return _INF, 0

    def value(day: int, active: int, owned: int):
        key = game.memo_key(day, active, owned)
        got = memo.get(key)
        if got is not None:
            return got[0]
        if day == T or settled(day, active):
            # buy the cheapest completion today, or buy nothing if the
            # cheapest later open day costs no more: the search reaches the
            # empty purchase first, so it wins a tie
            later = least_later[day]
            if later is None and day in forbidden:
                got = (0 if game.feasible(owned, active) else _INF), 0
            else:
                cost, mask = completion(active, owned)
                if cost == _INF:
                    got = _INF, 0
                elif day in forbidden or (later is not None
                                          and later * cost <= lam[day] * cost):
                    got = later * cost, 0
                else:
                    got = lam[day] * cost, mask
            memo[key] = got
            return got[0]
        best, best_mask = _INF, 0
        choices = empty_only if day in forbidden else game.masks
        moves = game.moves(day + 1, active, full_adversary)
        for cost, mask in choices:
            if mask & owned:
                continue
            spend = lam[day] * cost
            if spend >= best:
                break
            worst = 0
            for move in moves:
                worst = max(worst, value(day + 1, move, owned | mask))
                if spend + worst >= best:
                    break
            if spend + worst < best:
                best, best_mask = spend + worst, mask
        memo[key] = (best, best_mask)
        return best

    def trace(day: int, active: int, owned: int) -> TraceNode:
        value(day, active, owned)   # the search skips settled states' children
        val, mask = memo[game.memo_key(day, active, owned)]
        kids = ()
        if day < T:
            kids = tuple(
                (game.unit_set(move), trace(day + 1, move, owned | mask))
                for move in game.moves(day + 1, active, full_adversary))
        return TraceNode(day=day, active=game.unit_set(active),
                         purchase=game.action_set(mask),
                         value=game.money(val), children=kids)

    try:
        opt = value(0, game.full_units, 0)
        if opt == _INF:
            raise Infeasible("no strategy is feasible for every scenario")
        return game.money(opt), trace(0, game.full_units, 0)
    finally:
        # the recursive closures hold their own cells: break that cycle so
        # the memo and the game are freed without a cyclic collection
        del value, trace, settled


# -------------------------------------------------- plan evaluation & checking

def _triggered(instance: ProblemInstance, plan: ThriftyPlan,
               limits: SizeLimits | None):
    """Each active set the adversary can leave on the plan's critical day,
    with the residual action ids it triggers."""
    game = _Game(instance)
    game.check(limits)
    frontier = {game.full_units}
    for day in range(1, plan.critical_day + 1):
        frontier = {move for active in frontier
                    for move in game.moves(day, active, True)}
    for mask in frontier:
        active = game.unit_set(mask)
        yield active, {i for u in active for i in plan.residual_actions[u]}


def exhaustive_robcov(instance: ProblemInstance, plan: ThriftyPlan,
                      limits: SizeLimits | None = None) -> Fraction:
    """Exact worst case of executing a two-day plan: maximize over reachable
    critical-day active sets, charging each bought action once."""
    price = dict(instance.payload.actions())
    worst = max((sum((price[i] for i in ids), Fraction(0))
                 for _, ids in _triggered(instance, plan, limits)),
                default=Fraction(0))
    return plan.day0_cost + instance.schedule.lam[plan.critical_day] * worst


def check_plan_feasible(instance: ProblemInstance, plan: ThriftyPlan,
                        limits: SizeLimits | None = None) -> bool:
    """Whether the plan's purchases cover every scenario sequence: for each
    reachable critical-day active set, day-0 plus the triggered residual
    actions must already cover it (coverage is monotone, so later shrinking
    cannot break it)."""
    covers = KINDS[instance.kind].covers
    return all(covers(instance.payload, ids.union(plan.day0_purchase), active)
               for active, ids in _triggered(instance, plan, limits))


def opt_bounds(instance: ProblemInstance) -> tuple[Fraction, Fraction]:
    """Grid endpoints: a proven lower bound on the adaptive optimum and the
    cost of a feasible day-0-only solution."""
    require_live(instance.kind, instance.schedule)
    scale, payload = on_integers(instance.kind, instance.payload)
    lb, ub, _ = KINDS[instance.kind].bounds(payload)
    return Fraction(lb, scale), Fraction(ub, scale)


# ------------------------------------- partitioned single-survivor instances

def _partwise_check(system: SetSystem, schedule: Schedule,
                    parts) -> tuple[Mapping, Mapping]:
    """Validate the structure the specialized evaluator relies on: singleton
    sets only, one per element, parts partitioning the universe, uniform cost
    inside each part, and k_i = 1 on every revelation day."""
    by_elem: dict[int, Fraction] = {}
    for members, cost in system.sets:
        if len(members) != 1:
            raise BadParameters("specialized evaluator needs singleton sets")
        (e,) = members
        if e in by_elem:
            raise BadParameters(f"element {e} has multiple covering sets")
        by_elem[e] = cost
    seen: set[int] = set()
    part_cost: dict[int, Fraction] = {}
    part_size: dict[int, int] = {}
    for i, part in enumerate(parts, start=1):
        if not part or part & seen:
            raise BadParameters("parts must be disjoint and nonempty")
        seen |= part
        costs = {by_elem[e] for e in part}
        if len(costs) != 1:
            raise BadParameters(f"part {i} has mixed element costs")
        part_cost[i] = costs.pop()
        part_size[i] = len(part)
    if seen != set(system.elements()):
        raise BadParameters("parts must partition the universe")
    if len(parts) != schedule.horizon:
        raise BadParameters("need exactly one part per day 1..T")
    for i in range(1, schedule.horizon + 1):
        if schedule.k[i] != 1:
            raise BadParameters("specialized evaluator needs k_i = 1")
    return part_cost, part_size


def partwise_minimax(system: SetSystem, schedule: Schedule, parts,
                     inactive_days: Iterable[int] = ()) -> Fraction:
    """Exact adaptive optimum for partitioned single-survivor set cover.

    Day i's adversary keeps at most one element of part i.  Within a part all
    elements cost the same, so states collapse to which past survivors are
    still uncovered and which future parts were bought whole; buying a strict
    subset of a part in advance is wasted (the adversary survives an unowned
    element), so advance purchases are whole-part-or-nothing.  This matches
    the generic game solver wherever both are feasible to run.
    """
    part_cost, part_size = _partwise_check(system, schedule, parts)
    T = schedule.horizon
    forbidden = frozenset(inactive_days)
    prepay = {i: part_cost[i] * part_size[i] for i in part_cost}
    memo: dict = {}

    def strategy_turn(day: int, pending: frozenset, prepaid: frozenset
                      ) -> Fraction:
        """Best cost from the strategy's purchase on `day` onward."""
        key = (day, pending, prepaid)
        got = memo.get(key)
        if got is not None:
            return got
        lam = schedule.lam[day]
        if day == T:
            # last chance: cover everything still pending
            if day in forbidden:
                best = Fraction(0) if not pending else _INF
            else:
                best = lam * sum((part_cost[i] for i in pending), Fraction(0))
        else:
            best = None
            future = [m for m in range(day + 1, T + 1) if m not in prepaid]
            pend = sorted(pending)
            for ncov in range(len(pend) + 1):
                for cov in combinations(pend, ncov):
                    for npre in range(len(future) + 1):
                        for pre in combinations(future, npre):
                            if (cov or pre) and day in forbidden:
                                continue
                            spend = lam * (
                                sum((part_cost[i] for i in cov), Fraction(0))
                                + sum((prepay[m] for m in pre), Fraction(0)))
                            if best is not None and spend >= best:
                                continue
                            total = spend + adversary_turn(
                                day + 1, pending - frozenset(cov),
                                prepaid | frozenset(pre))
                            if best is None or total < best:
                                best = total
        memo[key] = best
        return best

    def adversary_turn(day: int, pending: frozenset, prepaid: frozenset
                       ) -> Fraction:
        """Day `day` reveals part `day`'s survivor (or none), then the
        strategy moves."""
        outcomes = [strategy_turn(day, pending, prepaid)]
        if day not in prepaid:
            outcomes.append(strategy_turn(day, pending | {day}, prepaid))
        return max(outcomes)

    result = strategy_turn(0, frozenset(), frozenset())
    if result == _INF:
        raise Infeasible("no strategy is feasible with these inactive days")
    return result


def scripted_worst_case(instance: ProblemInstance) -> Fraction:
    """Exhaustive worst case of the follow-along strategy that covers each
    day's revealed survivor immediately and buys nothing else."""
    if instance.uncertainty.kind != SUBSET:
        raise BadParameters("the follow-along strategy needs part structure")
    part_cost, _ = _partwise_check(instance.payload, instance.schedule,
                                   instance.uncertainty.parts)
    sched = instance.schedule

    def worst(day: int) -> Fraction:
        if day > sched.horizon:
            return Fraction(0)
        skip = worst(day + 1)
        reveal = sched.lam[day] * part_cost[day] + worst(day + 1)
        return max(skip, reveal)

    return worst(1)
