"""Thrifty solver for multistage robust set cover.

The solver acts on day 0 and on the critical day j* = argmin lam[j]*k[j].
Day 0 greedily covers a net of expensive elements; on day j* each still
active element buys its cheapest covering set.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from .errors import BadSetField, Infeasible
from .model import (KINDS, SETCOVER, CostReport, Kind, Schedule, ThriftyPlan,
                    argmin_stage, ln_upper, scaled_to_ints, solve_thrifty,
                    threshold_tau)


@dataclass(frozen=True)
class SetSystem:
    """Universe 1..universe_size plus a tuple of (members, cost) sets.

    Set ids are positions in the tuple.  minset_cost/minset_id give, per
    element, its cheapest covering set (ties to the smallest set id).
    """

    universe_size: int
    sets: tuple[tuple[frozenset[int], Fraction], ...]
    minset_cost: Mapping
    minset_id: Mapping

    @staticmethod
    def build(universe_size: int, sets: Iterable) -> "SetSystem":
        """sets holds (members, cost) pairs, each members a collection.
        Raises BadSetField naming sets[i].cost, sets[i].members[j] (j in
        the order members lists them) or, for an element that no set
        covers, sets."""
        sets = tuple(sets)
        norm = tuple((frozenset(members),
                      cost if isinstance(cost, Fraction) else Fraction(cost))
                     for members, cost in sets)
        # the scale is positive, so the int keys keep every cost's sign,
        # order and tie
        _, keys = scaled_to_ints(cost for _, cost in norm)
        union = frozenset().union(*(members for members, _ in norm))
        if (min(keys, default=0) < 0 or union
                and not 1 <= min(union) <= max(union) <= universe_size):
            for sid, (members, _) in enumerate(sets):   # the first fault
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
        # sets in (cost, id) order, as the sort is stable: the first set to
        # reach an element is its cheapest, ties to the smallest id
        minset_cost: dict[int, Fraction] = {}
        minset_id: dict[int, int] = {}
        for sid in sorted(range(len(norm)), key=keys.__getitem__):
            if len(minset_id) == universe_size:
                break
            members, cost = norm[sid]
            new = members.difference(minset_id)
            minset_cost.update(dict.fromkeys(new, cost))
            minset_id.update(dict.fromkeys(new, sid))
        return SetSystem(universe_size, norm, minset_cost, minset_id)

    def elements(self) -> tuple[int, ...]:
        return tuple(range(1, self.universe_size + 1))

    def actions(self) -> tuple[tuple[int, Fraction], ...]:
        """(set id, cost) for every purchasable set."""
        return tuple((sid, cost) for sid, (_, cost) in enumerate(self.sets))

    def covered_by(self, set_ids: Iterable[int]) -> frozenset[int]:
        out: set[int] = set()
        for sid in set_ids:
            out |= self.sets[sid][0]
        return frozenset(out)


def greedy_cover(system: SetSystem, targets: Iterable[int]) -> tuple[list[int], Fraction]:
    """Classic greedy cover of the target elements.

    Picks the set maximizing newly-covered-per-cost (free sets with any new
    coverage first), ties broken by the smallest set id.  Returns chosen set
    ids in pick order and their total cost.

    Lazy: a set's ratio only falls as coverage grows, so the heap holds an
    upper bound per set and a popped set whose bound is still exact beats
    every other set, ties included.
    """
    remaining = set(targets)
    chosen: list[int] = []
    total = Fraction(0)
    if not remaining:
        return chosen, total
    # new / (p/q) = new * q * (P // p) / P with P the LCM of the priced
    # numerators, so one int weight per set orders the ratios exactly
    priced = lcm(*(cost.numerator for _, cost in system.sets if cost))
    weight = [cost.denominator * (priced // cost.numerator) if cost else 0
              for _, cost in system.sets]

    def rank(sid: int):
        """Heap key, smaller is better: free sets above every priced ratio,
        None once the set adds nothing."""
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


def build_net(system: SetSystem, tau: Fraction) -> frozenset[int]:
    """Elements whose cheapest covering set costs at least tau."""
    return frozenset(e for e in system.elements() if system.minset_cost[e] >= tau)


def thrifty_plan(system: SetSystem, schedule: Schedule, guess: Fraction,
                 beta: Fraction | None = None) -> ThriftyPlan:
    """Build the two-day plan for one guess of the optimal value."""
    if beta is None:
        beta = 36 * ln_upper(len(system.sets))
    tau = threshold_tau(guess, schedule, beta)
    net = build_net(system, tau)
    day0_ids, day0_cost = greedy_cover(system, net)
    covered = system.covered_by(day0_ids)
    residuals = {}
    actions = {}
    for e in system.elements():
        if e in covered:
            residuals[e] = Fraction(0)
            actions[e] = ()
        else:
            residuals[e] = system.minset_cost[e]
            actions[e] = (system.minset_id[e],)
    # top-k residual sums are exact only while no two pending elements share
    # their cheapest set; otherwise the realized union cost can be smaller
    pending = [system.minset_id[e] for e in system.elements()
               if e not in covered and system.minset_cost[e] > 0]
    conservative = len(pending) != len(set(pending))
    return ThriftyPlan(guess=Fraction(guess), beta=Fraction(beta), tau=tau,
                       critical_day=argmin_stage(schedule), net=net,
                       day0_purchase=tuple(day0_ids), day0_cost=day0_cost,
                       residuals=residuals, residual_actions=actions,
                       conservative=conservative)


def _bounds(system: SetSystem):
    """The costliest cheapest-set price and the greedy cover of everything."""
    units = system.elements()
    all_ids, ub = greedy_cover(system, units)
    return max(system.minset_cost[e] for e in units), ub, all_ids


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
    bounds=_bounds,
    plan=lambda *args: thrifty_plan(*args),
    solve=lambda *args: solve(*args),
    covers=lambda system, ids, units: all(
        any(u in system.sets[sid][0] for sid in ids) for u in units))
