"""Thrifty solver for multistage robust minimum cut.

Units are the non-root vertices; buying an edge means cutting it.  Day 0
separates a net of hard-to-cut vertices from the root, and on the critical
day each still-active vertex buys its own minimum cut in what is left of the
graph.  Residual cuts of different vertices may share edges, so evaluated
worst cases are upper bounds (plans are always marked conservative).
Once cost scaling has contracted edges, a vertex acts through its
representative, the vertex it was merged into.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import Infeasible
from .graphcore import (WeightedGraph, delete_or_contract, min_cut,
                        preprocess_cost_scaling, separates)
from .model import (KINDS, MINCUT, CostReport, Kind, Schedule, ThriftyPlan,
                    argmin_stage, solve_thrifty, threshold_tau)

BETA = Fraction(50)


def _require_root(g: WeightedGraph) -> int:
    if g.root is None:
        raise ValueError("min-cut instance needs a root vertex")
    return g.root


def _reps(g: WeightedGraph, root: int) -> dict[int, int]:
    """Each unit's representative vertex; vertices merged into the root are
    not units."""
    return {v: g.representative(v) for v in range(g.n)
            if g.representative(v) != root}


def units_of(g: WeightedGraph) -> tuple[int, ...]:
    return tuple(_reps(g, _require_root(g)))


def _root_cuts(g: WeightedGraph, root: int, reps) -> dict[int, Fraction]:
    return {r: min_cut(g, root, [r])[0] for r in sorted(set(reps))}


def build_net(g: WeightedGraph, root: int,
              threshold: Fraction) -> frozenset[int]:
    """Units whose representative's min cut from the root strictly exceeds
    the threshold (the solvers pass 2*T*tau)."""
    reps = _reps(g, root)
    cuts = _root_cuts(g, root, reps.values())
    return frozenset(v for v, r in reps.items() if cuts[r] > threshold)


def thrifty_plan(g: WeightedGraph, schedule: Schedule, guess: Fraction,
                 beta: Fraction | None = None) -> ThriftyPlan:
    """Build the two-day plan for one guess of the optimal value."""
    root = _require_root(g)
    if beta is None:
        beta = BETA
    tau = threshold_tau(guess, schedule, beta)
    net = build_net(g, root, 2 * schedule.horizon * tau)
    reps = _reps(g, root)
    day0_cost, day0 = min_cut(g, root, {reps[v] for v in net})
    rest = delete_or_contract(g, day0.ids, "delete")
    residual = {r: min_cut(rest, root, [r]) for r in sorted(set(reps.values()))}
    return ThriftyPlan(guess=Fraction(guess), beta=Fraction(beta), tau=tau,
                       critical_day=argmin_stage(schedule), net=net,
                       day0_purchase=tuple(sorted(day0.ids)),
                       day0_cost=day0_cost,
                       residuals={v: residual[r][0] for v, r in reps.items()},
                       residual_actions={v: tuple(sorted(residual[r][1].ids))
                                         for v, r in reps.items()},
                       conservative=True)


def _bounds(g: WeightedGraph):
    """The costliest single-unit root cut and the cut of every unit."""
    root = _require_root(g)
    reps = _reps(g, root).values()
    cuts = _root_cuts(g, root, reps)
    ub, ub_set = min_cut(g, root, reps)
    return max(cuts.values()), ub, sorted(ub_set.ids)


def _scale(g: WeightedGraph, schedule: Schedule, f_guess: int, merge_r):
    """Cost scaling under edge f_guess.  Raises Infeasible when the guess
    contracts a unit into the root, meaning every cut for it would need a
    costlier edge."""
    pre = preprocess_cost_scaling(g, schedule, f_guess, merge_r)
    for v in units_of(g):
        if pre.graph.representative(v) == pre.graph.root:
            raise Infeasible(f"vertex {v} is only separable by costlier edges")
    return pre


def solve(g: WeightedGraph, schedule: Schedule, beta: Fraction | None = None,
          preprocess: bool = False, merge_r=2) -> tuple[ThriftyPlan, CostReport]:
    """Best evaluated plan over the doubling guess grid.

    With preprocess=True the grid runs once per guess of the costliest edge
    instead, after cost scaling; guesses that cannot stay feasible are
    skipped (the costliest edge of the graph always can).
    """
    return solve_thrifty(MINCUT, g, schedule, beta, preprocess, merge_r)


KINDS[MINCUT] = Kind(
    units=units_of,
    bounds=_bounds,
    plan=lambda *args: thrifty_plan(*args),
    solve=lambda *args: solve(*args),
    covers=lambda g, ids, units: separates(g, g.root, ids, units),
    scale=_scale)
