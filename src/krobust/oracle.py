"""Ground truth for tiny instances.

Provides exact optima by brute force (exact_min, for any kind), the
exact minimax value of the adaptive game by backward induction with
memoization, exhaustive worst-case evaluation and feasibility checking of
two-day plans, grid endpoints for the guessing loops, and a closed form for
partitioned single-survivor instances whose ground sets are too large for
the generic game solver: a sum over parts, as each day's adversary touches
only its own part.

Every coverage check reads the kind's cover table, which decides at once
whether each subset of the actions covers a unit set; each cheapest cover is
the first hit of one cheapest-first scan.  The search is guarded by
SizeLimits, checked before a table of 2^actions bits is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .errors import BadParameters, Infeasible, TooLarge
from .model import (KINDS, SUBSET, ProblemInstance, Schedule, ThriftyPlan,
                    require_live, scaled_to_ints)
from .setcover import SetSystem

_INF = float("inf")
_BITS = bytes.maketrans(b"01", b"\0\1")


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
    totals = [0]
    for cost in costs:   # the masks with bit i are the ones without it, plus i
        totals += [total + cost for total in totals]
    order = sorted(range(len(totals)), key=totals.__getitem__)   # stable
    return list(zip(map(totals.__getitem__, order), order))


def _truth_bytes(table: int, n_actions: int) -> bytes:
    """A cover table as bytes: byte M is 1 when bit M of the table is set,
    so a lookup by owned mask is one index."""
    return bin(table | 1 << (1 << n_actions))[:2:-1].encode().translate(_BITS)


def _first_cover(by_cost: list[tuple[int, int]], table: bytes,
                 owned: int) -> tuple:
    """The first (cost, mask) of by_cost that owned does not meet and that
    the table marks as covering with owned; (_INF, 0) if there is none."""
    for cost, mask in by_cost:
        if not mask & owned and table[owned | mask]:
            return cost, mask
    return _INF, 0


def exact_min(kind: str, payload, units: Iterable,
              limits: SizeLimits | None = None) -> Fraction:
    """Minimum cost of an action subset covering the units, by enumeration:
    the first subset in cheapest-first order that the kind's cover table
    marks.

    The units are ids of the payload's own units (KINDS[kind].units):
    elements for set cover, non-root vertices to cut off from the root,
    vertices to join, and pair ids for a forest.  No action covers an id
    the payload does not have, so such an id raises Infeasible."""
    spec, want = KINDS[kind], frozenset(units)
    alien = want.difference(spec.units(payload))
    if alien:
        raise Infeasible(f"{sorted(alien)} name no unit of this instance")
    if spec.cover_table(payload, (), want):
        return Fraction(0)
    actions = payload.actions()
    # a table has 2^len(actions) bits: check before building one
    (limits or SizeLimits()).check(0, len(actions), 0)
    table = _truth_bytes(spec.cover_table(
        payload, tuple(aid for aid, _ in actions), want), len(actions))
    scale, costs = scaled_to_ints(cost for _, cost in actions)
    cost, _ = _first_cover(_by_cost(costs), table, 0)
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

    Money is integer: action costs are scaled by the LCM of their
    denominators and inflations by the LCM of theirs, so every value the
    search compares is an int in units of 1/money_scale.  The game never
    asks which kind it plays: its one feasibility test is the kind's cover
    table, built once per active mask and kept as bytes indexed by the
    owned mask.  Moves and tables are pure functions of their masks and are
    cached here, so the caches live exactly as long as the game.
    """

    def __init__(self, instance: ProblemInstance):
        self.payload = instance.payload
        self.cover_table = KINDS[instance.kind].cover_table
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
        self.tables: dict[int, bytes] = {}

    @classmethod
    def within(cls, instance: ProblemInstance,
               limits: SizeLimits | None) -> "_Game":
        """The game for an instance within the limits; k[0], which
        validate_schedule pins to the unit count, is checked first."""
        limits = limits or SizeLimits()
        limits.check(instance.schedule.k[0], 0, 0)
        game = cls(instance)
        limits.check(len(game.units), len(game.action_ids),
                     game.schedule.horizon)
        return game

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

    def table(self, active: int) -> bytes:
        """Byte M is 1 when the owned mask M covers the active units."""
        got = self.tables.get(active)
        if got is None:
            got = self.tables[active] = _truth_bytes(self.cover_table(
                self.payload, self.action_ids, self.unit_set(active)),
                len(self.action_ids))
        return got

    def feasible(self, owned: int, active: int) -> int:
        return self.table(active)[owned]

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

    def memo_key(self, day: int, active: int, owned: int) -> int:
        """One int per state, smaller than a tuple in the memo."""
        return ((owned << len(self.units) | active)
                * (self.schedule.horizon + 1) + day)


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
    more, since the search would reach the empty purchase first.  Each
    (day, active) has one leaf record: None if it is not settled, else the
    scan, the cover table and the price rule of its states.  The move loop
    reads its children's records and prices a settled child itself, so only
    unsettled children cost a call into the recursion.
    """
    game = _Game.within(instance, limits)
    T = game.schedule.horizon
    lam = game.lam
    forbidden = frozenset(inactive_days)
    # the least inflation of an open day after each day, None if none is left
    least_later = [min((lam[i] for i in range(day + 1, T + 1)
                        if i not in forbidden), default=None)
                   for day in range(T + 1)]
    memo: dict = {}
    leaves: dict = {}
    empty_only = [(0, 0)]
    n_units, span = len(game.units), T + 1

    def leaf(day: int, active: int):
        """The leaf record of (day, active): None unless the adversary must
        keep all of active on every day after day, else (scan, table, rate,
        floor).  A state owning owned then has the memo entry (rate * cost,
        mask if cost > floor else 0), where (cost, mask) is owned's first
        cover in the scan."""
        key = active * span + day
        if key in leaves:
            return leaves[key]
        got = None
        if day == T or (game.moves(day + 1, active, full_adversary)
                        == (active,) and leaf(day + 1, active) is not None):
            # buy the cheapest completion on the cheapest open day; on a
            # tie a later day wins, as the search reaches the empty purchase
            # first.  Inflations are positive, so rate * _INF is _INF
            later, today = least_later[day], lam[day]
            if day in forbidden:
                scan, rate, floor = ((game.masks, later, _INF) if later
                                     is not None else (empty_only, 1, _INF))
            elif later is None:       # the last open day: buy now
                scan, rate, floor = game.masks, today, -1
            elif later <= today:      # a later open day costs no more
                scan, rate, floor = game.masks, later, _INF
            else:                     # a free completion can still wait
                scan, rate, floor = game.masks, today, 0
            got = scan, game.table(active), rate, floor
        leaves[key] = got
        return got

    def settle(record, owned: int) -> tuple:
        """The memo entry of a settled state, from its leaf record."""
        scan, table, rate, floor = record
        cost, mask = _first_cover(scan, table, owned)
        return rate * cost, (mask if cost > floor else 0)

    def value(day: int, active: int, owned: int):
        key = game.memo_key(day, active, owned)
        got = memo.get(key)
        if got is not None:
            return got[0]
        record = leaf(day, active)
        if record is not None:
            got = memo[key] = settle(record, owned)
            return got[0]
        best, best_mask = _INF, 0
        choices = empty_only if day in forbidden else game.masks
        kids = [(move, leaf(day + 1, move))
                for move in game.moves(day + 1, active, full_adversary)]
        rate = lam[day]
        for cost, mask in choices:
            if mask & owned:
                continue
            spend = rate * cost
            if spend >= best:
                break
            # game.memo_key of each child is base + move * span: look it
            # up here, price a settled child from its record, and call
            # value only for an unsettled one
            child = owned | mask
            base = (child << n_units) * span + day + 1
            worst = 0
            for move, record in kids:
                kid = base + move * span
                got = memo.get(kid)
                if got is None and record is not None:
                    got = memo[kid] = settle(record, child)
                got = value(day + 1, move, child) if got is None else got[0]
                if got > worst:
                    worst = got
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
    return all(game.table(active)[sum(map(bit.__getitem__, ids.union(
        plan.day0_purchase)))] for active, ids in _triggered(game, plan))


def opt_bounds(instance: ProblemInstance) -> tuple[Fraction, Fraction]:
    """Grid endpoints: a proven lower bound on the adaptive optimum and the
    cost of a feasible day-0-only solution."""
    require_live(instance.kind, instance.schedule)
    scale, payload = instance.payload.integral()
    lb, ub, _ = KINDS[instance.kind].bounds(payload)
    return Fraction(lb, scale), Fraction(ub, scale)


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
