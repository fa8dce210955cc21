"""Ground truth for tiny instances.

Provides exact optima by brute force (exact_min, for any kind), the
exact minimax value of the adaptive game by backward induction with
memoization, exhaustive worst-case evaluation and feasibility checking of
two-day plans, grid endpoints for the guessing loops, and a closed form for
partitioned single-survivor instances whose ground sets are too large for
the generic game solver: a sum over parts, as each day's adversary touches
only its own part.

Every coverage check reads the kind's cover table, which decides at once
whether each subset of the actions covers a unit set.  Its bits are in rank
order, cheapest action mask first, so a cheapest cover is one lowest-set-bit
lookup.  SizeLimits is checked before a table of 2^actions bits is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .errors import BadParameters, Infeasible, TooLarge
from .model import (KINDS, SUBSET, ProblemInstance, Schedule, ThriftyPlan,
                    bit_columns, require_live, validate_schedule)
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

class _CostOrder:
    """totals[M], action mask M's int cost; order, every mask by (total,
    mask); columns, bit_columns in that rank order.  Totals add up, so
    owned | mask runs over owned's supersets in (total, mask) order as mask
    runs over the masks owned does not meet: owned's cheapest completion is
    order[p] ^ owned for the lowest bit p of the table ANDed with owned's
    supersets, the AND of owned's columns, cached per owned mask."""

    def __init__(self, costs: tuple[int, ...]) -> None:
        totals = [0]
        for cost in costs:   # the masks with bit i are those without it, plus i
            totals += [total + cost for total in totals]
        order = sorted(range(len(totals)), key=totals.__getitem__)   # stable
        full, columns = bit_columns(len(costs), order)
        sup = {0: full}

        def price(record: tuple, owned: int) -> tuple:
            """(rate * cost, mask) for the cheapest completion mask of
            owned | pad, pad a set of free actions, of total cost: mask is
            that completion, or 0 if pad is None; (_INF, 0) if none, or if
            rate is None and owned is no cover.  A closure: faster to call."""
            table, rate, pad = record
            if pad:
                owned |= pad
            got = sup.get(owned)
            if got is None:
                got, rest = full, owned
                while rest:
                    got &= columns[(rest & -rest).bit_length() - 1]
                    rest &= rest - 1
                sup[owned] = got
            hit = table & got
            if not hit:
                return _INF, 0
            top = order[(hit & -hit).bit_length() - 1]
            if rate is None:
                return (0 if top == owned else _INF), 0
            cost = totals[top] - totals[owned]
            return rate * cost, (0 if pad is None else top ^ owned)

        self.totals, self.order, self.columns = totals, order, (full, columns)
        self.price = price

    def completion(self, table: int, owned: int) -> tuple:
        """(cost, mask) of owned's cheapest completion to a cover in the
        rank-ordered table, ties to the smaller mask; (_INF, 0) if none."""
        return self.price((table, 1, 0), owned)


def exact_min(kind: str, payload, units: Iterable,
              limits: SizeLimits | None = None) -> Fraction:
    """Minimum cost of an action subset covering the units: the first
    mask in rank order that the kind's cover table marks.  The units are
    ids of the payload's own units (KINDS[kind].units): elements for set
    cover, non-root vertices to cut off from the root, vertices to join,
    and pair ids for a forest.  No action covers an id the payload does not
    have, so such an id raises Infeasible."""
    spec, want = KINDS[kind], frozenset(units)
    alien = want.difference(spec.units(payload))
    if alien:
        raise Infeasible(f"{sorted(alien)} name no unit of this instance")
    if spec.cover_table(payload, (), want):
        return Fraction(0)
    scale, work = payload.integral()
    actions = work.actions()
    # a table has 2^len(actions) bits: check before building one
    (limits or SizeLimits()).check(0, len(actions), 0)
    ranked = _CostOrder(tuple(cost for _, cost in actions))
    cost, _ = ranked.completion(spec.cover_table(
        payload, tuple(aid for aid, _ in actions), want, ranked.columns), 0)
    if cost == _INF:
        raise Infeasible("no action subset is feasible")
    return Fraction(cost, scale)


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

    Money is integer: action costs are those of payload.integral(), times
    L, and inflations those of schedule.priced, times D, so every value the
    search compares is an int in units of 1/money_scale = 1/(L*D).  The
    game never asks which kind it plays: its one feasibility test is the
    kind's cover table, built once per active mask in the rank order of the
    game's one _CostOrder.  Moves, tables and supersets are pure functions
    of their masks and are cached here, so the caches live exactly as long
    as the game.
    """

    def __init__(self, instance: ProblemInstance):
        self.payload = instance.payload
        self.cover_table = KINDS[instance.kind].cover_table
        self.units = tuple(instance.units())
        uidx = {u: i for i, u in enumerate(self.units)}
        self.schedule = instance.schedule
        instance.uncertainty.validate(self.schedule, self.units)
        cost_scale, work = instance.payload.integral()
        actions = work.actions()
        self.action_ids = tuple(aid for aid, _ in actions)
        self.costs = tuple(cost for _, cost in actions)
        lam_scale, self.lam, _ = self.schedule.priced
        self.money_scale = cost_scale * lam_scale
        self.full_units = (1 << len(self.units)) - 1
        self.parts_mask = None
        if instance.uncertainty.kind == SUBSET:
            self.parts_mask = tuple(
                sum(1 << uidx[u] for u in part)
                for part in instance.uncertainty.parts)
        self.move_cache: dict = {}
        self.tables: dict[int, int] = {}

    @classmethod
    def within(cls, instance: ProblemInstance,
               limits: SizeLimits | None) -> "_Game":
        """The game for an instance within the limits.  The schedule's
        rules but k[0]'s are checked first, then k[0], which
        validate_schedule pins to the unit count, against the limits before
        any unit is listed."""
        limits = limits or SizeLimits()
        validate_schedule(instance.schedule, None)
        limits.check(instance.schedule.k[0], 0, 0)
        game = cls(instance)
        limits.check(len(game.units), len(game.action_ids),
                     game.schedule.horizon)
        return game

    def money(self, value: int) -> Fraction:
        return Fraction(value, self.money_scale)

    @cached_property
    def ranked(self) -> _CostOrder:
        return _CostOrder(self.costs)

    def unit_set(self, mask: int) -> frozenset:
        return frozenset(self.units[i] for i in range(len(self.units))
                         if mask >> i & 1)

    def action_set(self, mask: int) -> tuple:
        return tuple(self.action_ids[i] for i in range(len(self.action_ids))
                     if mask >> i & 1)

    def table(self, active: int) -> int:
        """Bit p is set when the owned mask order[p] covers the active units."""
        got = self.tables.get(active)
        if got is None:
            got = self.tables[active] = self.cover_table(
                self.payload, self.action_ids, self.unit_set(active),
                self.ranked.columns)
        return got

    def feasible(self, owned: int, active: int) -> bool:
        return self.ranked.completion(self.table(active), owned) == (0, 0)

    def moves(self, next_day: int, active: int, full: bool) -> tuple[int, ...]:
        """Adversary's reachable next active-unit masks, ascending.

        The part is every unit in the cardinality model, or day next_day's
        part.  A move is a submask S of active with low <= |S & part| <=
        min(k, |active & part|).  Unless full, S keeps every active unit
        outside the part and low is that upper bound.  A full cardinality
        move shows k of all units, so low = k - |inactive|; a full
        partitioned move may keep none of the part."""
        key = next_day, active, full
        got = self.move_cache.get(key)
        if got is None:
            k = self.schedule.k[next_day]
            cardinality = self.parts_mask is None
            part = (self.full_units if cardinality
                    else self.parts_mask[next_day - 1])
            high = min(k, (active & part).bit_count())
            keep = 0 if full else active & ~part
            low = (high if not full else 0 if not cardinality
                   else k - len(self.units) + active.bit_count())
            out, sub = [], active
            while True:   # the submasks of active, descending
                if sub & keep == keep and low <= (sub & part).bit_count() <= high:
                    out.append(sub)
                if not sub:
                    break
                sub = (sub - 1) & active
            got = self.move_cache[key] = tuple(reversed(out))
        return got


def minimax_opt(instance: ProblemInstance, limits: SizeLimits | None = None,
                full_adversary: bool = False,
                inactive_days: Iterable[int] = (), with_trace: bool = True
                ) -> tuple[Fraction, TraceNode | None]:
    """Exact optimal adaptive value by backward induction, with one optimal
    strategy as a trace tree (children cover every adversary move); with
    with_trace False the tree is not built and None takes its place.

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
    more, since the search would reach the empty purchase first.  If a
    later open day costs more, today buys the cheapest completion of owned
    and every free action, which holds only priced actions: the search
    reaches that smaller mask first, and the free actions can wait.  Each
    (day, active) has one leaf record: None if it is not settled, else the
    cover table and the price rule of its states, which one lowest-set-bit
    lookup answers.

    A day e >= 1 with k[e] == k[e-1] reveals nothing in the cardinality
    model with maximal moves: every day e-1 active set has k[e-1] units, so
    the move into day e keeps it whole.  If day e-1 is open and
    lam[e-1] < lam[e], a priced mask bought on day e could have been bought
    on day e-1 with it, reaching the same state for strictly less.  So a
    day e state that a first best day e-1 mask leads to is answered first
    by a free mask (total cost 0), and the day's states scan only the free
    prefix of the rank order: values elsewhere can only rise, the winning
    masks' do not, so values, traces and ties stay those of the full scan.
    On tied inflations a day e purchase can win its tie, and under the
    subset model or the full adversary a day e state is also reached by a
    move that revealed something, so every mask is scanned there.

    The search is windowed (alpha-beta with an upper bound only: the root
    is a min node).  value(day, active, owned, bound) returns the state's
    memo entry, (value, mask) exact below bound, else (bound, None), a
    lower bound that answers only bounds up to its own.  Masks stop at
    spend >= cap, the lesser of bound and the best so far, and a child is
    asked with cap - spend: failing that puts the mask at or above cap.
    Masks are taken only below cap, so ties stay on the first.  Settled
    states are exact; the root and the trace ask with an infinite bound.

    A searched (day, active) keeps one child record per move, built once:
    (move, leaf(day + 1, move), the child's memo key less its owned part).
    The move loop prices a settled child (record not None) itself, from
    its memo entry or, on a miss, settle(record, child), which it stores;
    only unsettled children enter value.
    """
    game = _Game.within(instance, limits)
    T = game.schedule.horizon
    lam = game.lam
    forbidden = frozenset(inactive_days)
    # the least inflation of an open day after each day, None if none is left
    least_later = [min((lam[i] for i in range(day + 1, T + 1)
                        if i not in forbidden), default=None)
                   for day in range(T + 1)]
    memo: dict = {}   # state key -> (value, mask) or (lower bound, None)
    leaves: dict = {}
    children: dict = {}   # active * span + day -> its child records
    n_units, span = len(game.units), T + 1
    totals, order, settle = (game.ranked.totals, game.ranked.order,
                             game.ranked.price)
    # the masks each day's states scan: mask 0 on an inactive day, the free
    # prefix of the rank order on a day that reveals nothing, else all
    zero_cost = sum(1 << i for i, cost in enumerate(game.costs) if not cost)
    k, free = game.schedule.k, order[:1 << zero_cost.bit_count()]
    maximal = game.parts_mask is None and not full_adversary
    scans = [(0,) if day in forbidden
             else free if (maximal and day and k[day] == k[day - 1]
                           and day - 1 not in forbidden
                           and lam[day - 1] < lam[day])
             else order for day in range(T + 1)]

    def leaf(day: int, active: int):
        """None unless the adversary must keep all of active on every day
        after day, else the record (table, rate, pad): settle(record,
        owned) is the memo entry of the state (day, active, owned)."""
        key = active * span + day
        if key in leaves:
            return leaves[key]
        got = None
        if day == T or (game.moves(day + 1, active, full_adversary)
                        == (active,) and leaf(day + 1, active) is not None):
            # buy the cheapest completion on the cheapest open day; on a
            # tie a later day wins, as the search reaches the empty purchase
            # first
            later, today = least_later[day], lam[day]
            if day in forbidden:
                rate, pad = later, None
            elif later is None:       # the last open day: buy now
                rate, pad = today, 0
            elif later <= today:      # a later open day costs no more
                rate, pad = later, None
            else:                     # the free actions can still wait
                rate, pad = today, zero_cost
            got = game.table(active), rate, pad
        leaves[key] = got
        return got

    def value(day: int, active: int, owned: int, bound=_INF) -> tuple:
        """The state's memo entry: exact below bound, else a lower bound."""
        key = (owned << n_units | active) * span + day
        got = memo.get(key)
        if got is not None and (got[1] is not None or got[0] >= bound):
            return got
        record = leaf(day, active)
        if record is not None:
            got = memo[key] = settle(record, owned)
            return got
        cap, best_mask = bound, None   # cap: min(bound, best so far)
        moves, rate = game.moves(day + 1, active, full_adversary), lam[day]
        kids = children.get(active * span + day)
        if kids is None:
            kids = children[active * span + day] = tuple(
                (move, leaf(day + 1, move), move * span + day + 1)
                for move in moves)
        for mask in scans[day]:
            if mask & owned:
                continue
            spend = rate * totals[mask]
            if spend >= cap:
                break
            child, worst = owned | mask, 0
            base = (child << n_units) * span
            for move, record, offset in kids:
                if record is None:
                    got = value(day + 1, move, child, cap - spend)[0]
                else:   # a settled child: its memo entry, priced on a miss
                    got = memo.get(base + offset)
                    if got is None:
                        got = memo[base + offset] = settle(record, child)
                    got = got[0]
                if got > worst:
                    worst = got
                    if spend + worst >= cap:
                        break
            if spend + worst < cap:
                cap, best_mask = spend + worst, mask
        got = memo[key] = cap, best_mask
        return got

    def trace(day: int, active: int, owned: int) -> TraceNode:
        val, mask = value(day, active, owned)
        kids = tuple((game.unit_set(move), trace(day + 1, move, owned | mask))
                     for move in (game.moves(day + 1, active, full_adversary)
                                  if day < T else ()))
        return TraceNode(day=day, active=game.unit_set(active),
                         purchase=game.action_set(mask),
                         value=game.money(val), children=kids)

    try:
        opt = value(0, game.full_units, 0)[0]
        if opt == _INF:
            raise Infeasible("no strategy is feasible for every scenario")
        return (game.money(opt),
                trace(0, game.full_units, 0) if with_trace else None)
    finally:
        # the recursive closures hold their own cells: break that cycle so
        # the memo and the game are freed without a cyclic collection
        del value, trace, leaf


# -------------------------------------------------- plan evaluation & checking

def _triggered(game: _Game, plan: ThriftyPlan):
    """Each active mask the adversary can leave on the plan's critical day,
    with the residual action ids it triggers."""
    frontier = {game.full_units}
    for day in range(1, plan.critical_day + 1):
        frontier = {move for active in frontier
                    for move in game.moves(day, active, True)}
    for mask in frontier:
        yield mask, {i for u in game.unit_set(mask)
                     for i in plan.residual_actions[u]}


def exhaustive_robcov(instance: ProblemInstance, plan: ThriftyPlan,
                      limits: SizeLimits | None = None) -> Fraction:
    """Exact worst case of executing a two-day plan: maximize over reachable
    critical-day active sets, charging each bought action once."""
    price = dict(instance.payload.actions())
    worst = max((sum((price[i] for i in ids), Fraction(0)) for _, ids
                 in _triggered(_Game.within(instance, limits), plan)),
                default=Fraction(0))
    return plan.day0_cost + instance.schedule.lam[plan.critical_day] * worst


def check_plan_feasible(instance: ProblemInstance, plan: ThriftyPlan,
                        limits: SizeLimits | None = None) -> bool:
    """Whether the plan's purchases cover every scenario sequence: for each
    reachable critical-day active set, day-0 plus the triggered residual
    actions must already cover it (coverage is monotone, so later shrinking
    cannot break it)."""
    game = _Game.within(instance, limits)
    bit = {aid: 1 << i for i, aid in enumerate(game.action_ids)}
    return all(game.feasible(sum(map(bit.__getitem__, ids.union(
        plan.day0_purchase))), active) for active, ids in _triggered(game, plan))


def opt_bounds(instance: ProblemInstance) -> tuple[Fraction, Fraction]:
    """Grid endpoints, which the solver prices only as far as it needs
    them: a proven lower bound on the adaptive optimum (Kind.lower) and the
    cost of a feasible day-0-only solution (Kind.cover_all)."""
    validate_schedule(instance.schedule, None)
    require_live(instance.kind, instance.schedule)
    scale, payload = instance.payload.integral()
    spec = KINDS[instance.kind]
    return (Fraction(spec.lower(payload), scale),
            Fraction(spec.cover_all(payload)[0], scale))


# ------------------------------------- partitioned single-survivor instances

def _partwise_check(system: SetSystem, schedule: Schedule,
                    parts) -> tuple[Mapping, Mapping]:
    """Validate the structure the specialized evaluator relies on: singleton
    sets only, one per element, parts partitioning the universe, uniform cost
    inside each part, and k_i = 1 on every revelation day."""
    by_elem: dict[int, Fraction] = {}
    for mask, cost in zip(system.masks, system.costs):
        if mask.bit_count() != 1:
            raise BadParameters("specialized evaluator needs singleton sets")
        e = mask.bit_length() - 1
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

    Day i's adversary touches only part i, keeping at most one element of
    it, and each element lies in one part, so the game separates into a sum
    over parts.  Part i costs the cheaper of buying it whole on the first
    open day before i (a strict subset bought early is wasted: the adversary
    keeps an unowned element) or its survivor on the first open day from i
    on; inflations are nondecreasing, so the first open day is the cheapest.
    """
    part_cost, part_size = _partwise_check(system, schedule, parts)
    lam = schedule.lam
    open_days = sorted(set(range(schedule.horizon + 1)).difference(inactive_days))
    total = Fraction(0)
    for i, cost in part_cost.items():
        early = [lam[d] * cost * part_size[i] for d in open_days[:1] if d < i]
        late = [lam[d] * cost for d in open_days if d >= i][:1]
        if not early + late:
            raise Infeasible("no strategy is feasible with these inactive days")
        total += min(early + late)
    return total


def scripted_worst_case(instance: ProblemInstance) -> Fraction:
    """Exhaustive worst case of the follow-along strategy that covers each
    day's revealed survivor immediately and buys nothing else: the adversary
    leaves one every day, so it pays lam[i] * cost_i for each part i."""
    if instance.uncertainty.kind != SUBSET:
        raise BadParameters("the follow-along strategy needs part structure")
    part_cost, _ = _partwise_check(instance.payload, instance.schedule,
                                   instance.uncertainty.parts)
    return sum((instance.schedule.lam[i] * cost
                for i, cost in part_cost.items()), Fraction(0))
