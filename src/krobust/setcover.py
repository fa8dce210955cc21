"""Thrifty solver for multistage robust set cover.

The solver acts on day 0 and on the critical day j* = argmin lam[j]*k[j].
Day 0 greedily covers a net of expensive elements; on day j* each still
active element buys its cheapest covering set.  Each set is one int
bitmask, so unions, coverage tests and coverage counts are int operations.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count
from math import lcm
from operator import or_
from typing import Iterable, Mapping

from .errors import BadSetField, Infeasible
from .model import (KINDS, SETCOVER, CostReport, Kind, Schedule, ThriftyPlan,
                    argmin_stage, bit_columns, harmonic, ln_upper,
                    scaled_to_ints, solve_thrifty, threshold_tau)

_BITS = bytes.maketrans(b"01", b"\0\1")


def elements_of(mask: int) -> list[int]:
    """The elements whose bits are set in mask, ascending.  The scan starts
    at the lowest set bit, so a sparse mask costs its span, not its top."""
    if not mask:
        return []
    low = (mask & -mask).bit_length() - 1
    return list(compress(count(low),
                         bin(mask >> low)[:1:-1].encode().translate(_BITS)))


def _union(masks, ids: Iterable[int]) -> int:
    return functools.reduce(or_, map(masks.__getitem__, ids), 0)


def _masks(universe_size: int, members) -> tuple[int, ...] | None:
    """Each set's bitmask, or None if a member is not an int in 1..U, where
    U = universe_size.  One pass over a set checks and marks its L members
    in the regime that costs fewer byte ops.  Dense marks a digit string of
    U + 1 ASCII '0' bytes and parses it with int(, 2): a byte op per
    universe element, plus about 200 to allocate it and call int.  Sparse
    ORs in 1 << e per member: the shift and the OR walk a 30-bit digit per
    30 universe elements, about U / 360 byte ops, plus about 25 for the
    interpreter step beyond a dense member's.  So a set is sparse while
    L * (25 + U / 360) < U + 200: up to 15 members at U = 200 and 330 at
    U = 10**5, where CPython 3.11 on x86-64 crosses over at 14 and 350."""
    masks = []
    for listed in members:
        if len(listed) * (universe_size + 9000) < 360 * (universe_size + 200):
            mask = 0
            for e in listed:
                if type(e) is int and 0 < e <= universe_size:
                    mask |= 1 << e
                else:
                    return None
        else:
            digits = bytearray(b"0") * (universe_size + 1)
            try:
                for e in listed:
                    if type(e) is int and e > 0:   # a negative e would wrap
                        digits[e] = 49
                    else:
                        return None
            except IndexError:   # e > universe_size
                return None
            mask = int(digits[::-1], 2)
        masks.append(mask)
    return tuple(masks)


def _first_fault(universe_size: int, members, keys) -> BadSetField:
    """The first fault in set order (a negative cost, then each member in
    the order the set lists it) or, if there is none, the first element
    that no set covers."""
    for sid, (listed, key) in enumerate(zip(members, keys)):
        if key < 0:
            return BadSetField(f"sets[{sid}].cost",
                               f"set {sid} has negative cost")
        for j, e in enumerate(listed):
            if type(e) is not int or not 1 <= e <= universe_size:
                return BadSetField(f"sets[{sid}].members[{j}]",
                                   f"set {sid} contains unknown element {e!r}")
    union = set().union(*members)
    e = next(e for e in count(1) if e not in union)
    return BadSetField("sets", f"element {e} is not covered by any set")


@dataclass(frozen=True)
class SetSystem:
    """Universe 1..universe_size plus, per set, its members as one int
    bitmask (bit e set when the set holds element e) and its cost.

    Set ids are positions in masks and costs.  minset_id gives, per
    element, its cheapest covering set (ties to the smallest set id).
    scaled is build's (L, keys): the LCM of the costs' denominators and
    each cost times L as an int.
    """

    universe_size: int
    masks: tuple[int, ...]
    costs: tuple[Fraction, ...]
    minset_id: Mapping
    scaled: tuple[int, tuple[int, ...]] = field(repr=False, compare=False)

    def __repr__(self) -> str:
        """The dataclass repr with each mask in hex, which prints at any
        size: str() refuses an int past 4,300 decimal digits, a mask past
        about 14,000 bits."""
        masks = ", ".join(map(hex, self.masks)) + "," * (len(self.masks) == 1)
        return (f"SetSystem(universe_size={self.universe_size!r}, "
                f"masks=({masks}), costs={self.costs!r}, "
                f"minset_id={self.minset_id!r})")

    @staticmethod
    def build(universe_size: int, sets: Iterable) -> "SetSystem":
        """sets holds (members, cost) pairs, members a list, set or
        frozenset of element ids, which a list may repeat.  Raises
        BadSetField naming the first fault in set order: sets[i].cost for a
        negative cost, sets[i].members[j] (j in the order members lists
        them) for a member that is not an int in 1..universe_size, or sets
        for an element that no set covers.  Each set's checks, mask
        (_masks) and cheapest-set pass cost its own length, and a dense
        set's digit string is at most one byte longer than the document."""
        sets = tuple(sets)
        members = [m for m, _ in sets]
        costs = tuple(cost if isinstance(cost, Fraction) else Fraction(cost)
                      for _, cost in sets)
        # the scale is positive, so the int keys keep every cost's sign,
        # order and tie
        scale, keys = scaled_to_ints(costs)
        # a universe above the members listed leaves an element uncovered
        masks = (_masks(universe_size, members)
                 if min(keys, default=0) >= 0
                 and universe_size <= sum(map(len, members)) else None)
        # sets in (cost, id) order, as the sort is stable: the first set to
        # reach an element is its cheapest, ties to the smallest id
        minset_id: dict[int, int] = {}
        for sid in sorted(range(len(members)), key=keys.__getitem__):
            if masks is None or len(minset_id) == universe_size:
                break
            minset_id.update(dict.fromkeys(
                set(members[sid]).difference(minset_id), sid))
        if masks is None or len(minset_id) != universe_size:
            raise _first_fault(universe_size, members, keys)
        return SetSystem(universe_size, masks, costs, minset_id,
                         (scale, keys))

    def integral(self) -> tuple[int, "SetSystem"]:
        """L and a copy of the system with every cost times L as an int.
        Every comparison the solver makes is between costs and thresholds
        linear in the costs, so a plan for the copy is the plan for the
        system with its money divided by L."""
        scale, keys = self.scaled
        return scale, SetSystem(self.universe_size, self.masks, keys,
                                self.minset_id, (1, keys))

    @functools.cached_property
    def weights(self) -> tuple[int, ...]:
        """One int per set that orders newly-covered-per-cost exactly:
        new / (p/q) = new * q * (P // p) / P with P the LCM of the priced
        numerators; 0 for a free set."""
        priced = lcm(*(cost.numerator for cost in self.costs if cost))
        return tuple(cost.denominator * (priced // cost.numerator)
                     if cost else 0 for cost in self.costs)

    def elements(self) -> tuple[int, ...]:
        return tuple(range(1, self.universe_size + 1))

    def actions(self) -> tuple[tuple[int, Fraction], ...]:
        """(set id, cost) for every purchasable set."""
        return tuple(enumerate(self.costs))

    def covered_by(self, set_ids: Iterable[int]) -> frozenset[int]:
        return frozenset(elements_of(_union(self.masks, set_ids)))


def greedy_cover(system: SetSystem, targets: Iterable[int]) -> tuple[list[int], Fraction]:
    """Classic greedy cover of the target elements.

    Picks the set maximizing newly-covered-per-cost (free sets with any new
    coverage first), ties broken by the smallest set id.  Returns chosen set
    ids in pick order and their total cost.

    Lazy: a set's ratio only falls as coverage grows, so the heap holds an
    upper bound per set and a popped set whose bound is still exact beats
    every other set, ties included.
    """
    remaining = functools.reduce(or_, map((1).__lshift__, targets), 0)
    chosen: list[int] = []
    total = 0
    if not remaining:
        return chosen, total
    masks, weight = system.masks, system.weights

    def rank(sid: int):
        """Heap key, smaller is better: free sets above every priced ratio,
        None once the set adds nothing."""
        new = (masks[sid] & remaining).bit_count()
        if new == 0:
            return None
        return (1, -new * weight[sid], sid) if weight[sid] else (0, 0, sid)

    heap = [key for key in map(rank, range(len(masks))) if key]
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
        chosen.append(stale[2])
        total += system.costs[stale[2]]
        remaining &= ~masks[stale[2]]
    return chosen, total


def build_net(system: SetSystem, tau: Fraction) -> frozenset[int]:
    """Elements whose cheapest covering set costs at least tau = p/q,
    compared as cost * q >= p: exact for int and Fraction costs alike."""
    p, q, costs = tau.numerator, tau.denominator, system.costs
    return frozenset(e for e, sid in system.minset_id.items()
                     if costs[sid] * q >= p)


def thrifty_plan(system: SetSystem, schedule: Schedule, guess: Fraction,
                 beta: Fraction | None = None) -> ThriftyPlan:
    """Build the two-day plan for one guess of the optimal value.  The net
    only shrinks as the guess grows, and the day-0 purchase is empty
    exactly when it is (greedy buys a set for any target), so from then on
    every guess builds this plan but for guess and tau."""
    beta = 36 * ln_upper(len(system.masks)) if beta is None else beta
    tau = threshold_tau(guess, schedule, beta)
    net = build_net(system, tau)
    day0_ids, day0_cost = greedy_cover(system, net)
    covered = system.covered_by(day0_ids)
    residuals = {}
    actions = {}
    # top-k residual sums are exact only while no two pending elements share
    # their cheapest set; otherwise the realized union cost can be smaller
    pending = []
    for e in system.elements():
        if e in covered:
            residuals[e] = 0
            actions[e] = ()
        else:
            sid = system.minset_id[e]
            residuals[e], actions[e] = system.costs[sid], (sid,)
            if residuals[e] > 0:
                pending.append(sid)
    conservative = len(pending) != len(set(pending))
    return ThriftyPlan(guess=Fraction(guess), beta=Fraction(beta), tau=tau,
                       critical_day=argmin_stage(schedule), net=net,
                       day0_purchase=tuple(day0_ids), day0_cost=day0_cost,
                       residuals=residuals, residual_actions=actions,
                       conservative=conservative)


def _cover_all(system: SetSystem):
    """The greedy cover of everything: its cost and set ids."""
    all_ids, ub = greedy_cover(system, system.elements())
    return ub, all_ids


def _cover_table(system: SetSystem, ids, units, columns=None) -> int:
    """Bit M set when the sets {ids[i] : bit i of M} hold every unit: per
    unit, the OR of the columns of the sets holding it, ANDed."""
    table, columns = columns or bit_columns(len(ids))   # full, until ANDed
    for u in units:
        table &= _union(columns, (i for i, sid in enumerate(ids)
                                  if system.masks[sid] >> u & 1))
    return table


def solve(system: SetSystem, schedule: Schedule, beta: Fraction | None = None,
          preprocess: bool = False,
          merge_r=2) -> tuple[ThriftyPlan, CostReport]:
    """Best evaluated plan over the doubling grid, which runs from the
    largest per-element minimum cover cost up to the greedy cover of the
    whole universe.  Cost scaling applies to graph problems only, so
    preprocess=True raises BadParameters."""
    return solve_thrifty(SETCOVER, system, schedule, beta, preprocess, merge_r)


KINDS[SETCOVER] = Kind(
    units=SetSystem.elements,
    lower=lambda system: max(map(system.costs.__getitem__,
                                 system.minset_id.values())),
    cover_all=_cover_all,
    plan=lambda *args: thrifty_plan(*args),
    solve=lambda *args: solve(*args),
    cover_table=_cover_table,
    ratio_bound=lambda system, schedule: (
        36 * ln_upper(len(system.masks))
        + 12 * harmonic(system.universe_size)))
