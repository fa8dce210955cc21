"""Thrifty solver for multistage robust set cover.

The solver acts on day 0 and on the critical day j* = argmin lam[j]*k[j].
Day 0 greedily covers a net of expensive elements; on day j* each still
active element buys its cheapest covering set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import Infeasible
from .model import (KINDS, SETCOVER, CostReport, Kind, Schedule, ThriftyPlan,
                    argmin_stage, ln_upper, solve_thrifty, threshold_tau)


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
        norm = tuple((frozenset(members), Fraction(cost)) for members, cost in sets)
        for sid, (members, cost) in enumerate(norm):
            if cost < 0:
                raise Infeasible(f"set {sid} has negative cost")
            if members and not 1 <= min(members) <= max(members) <= universe_size:
                e = next(e for e in members if not 1 <= e <= universe_size)
                raise Infeasible(f"set {sid} contains unknown element {e}")
        # sets in (cost, id) order, as the sort is stable: the first set to
        # reach an element is its cheapest, ties to the smallest id
        minset_cost: dict[int, Fraction] = {}
        minset_id: dict[int, int] = {}
        for sid in sorted(range(len(norm)), key=lambda sid: norm[sid][1]):
            members, cost = norm[sid]
            new = members.difference(minset_id)
            minset_cost.update(dict.fromkeys(new, cost))
            minset_id.update(dict.fromkeys(new, sid))
        for e in range(1, universe_size + 1):
            if e not in minset_cost:
                raise Infeasible(f"element {e} is not covered by any set")
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
    """
    want = set(targets)
    chosen: list[int] = []
    total = Fraction(0)
    covered: set[int] = set()
    while want - covered:
        best_sid = -1
        best_key: tuple | None = None
        for sid, (members, cost) in enumerate(system.sets):
            new = len((members & want) - covered)
            if new == 0:
                continue
            # free sets sort above every priced ratio
            key = (1, Fraction(0)) if cost == 0 else (0, Fraction(new, cost))
            if best_key is None or key > best_key:
                best_key, best_sid = key, sid
        if best_sid < 0:
            raise Infeasible("targets cannot be covered")
        chosen.append(best_sid)
        total += system.sets[best_sid][1]
        covered |= system.sets[best_sid][0]
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
    return max(system.minset_cost[e] for e in units), ub, all_ids, None


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
    plan=lambda system, schedule, guess, beta, _: thrifty_plan(
        system, schedule, guess, beta),
    solve=lambda *args: solve(*args),
    covers=lambda system, ids, units: all(
        any(u in system.sets[sid][0] for sid in ids) for u in units))
