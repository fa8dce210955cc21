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

from .errors import KRobustError
from .graphcore import WeightedGraph, delete_or_contract, min_cut, reach_tables
from .model import (KINDS, MINCUT, CostReport, Kind, Schedule, ThriftyPlan,
                    argmin_stage, solve_thrifty, threshold_tau)

BETA = Fraction(50)


def _require_root(g: WeightedGraph) -> int:
    if g.root is None:
        raise ValueError("min-cut instance needs a root vertex")
    return g.root


def _reps(g: WeightedGraph, root: int) -> dict[int, int]:
    """Each unit's representative vertex; vertices merged into the root are
    not units.  A vertex no edge touches is a unit too, so a huge graph.n
    may not fit in memory: that is refused by name, not as a traceback."""
    try:
        return {v: g.representative(v) for v in range(g.n)
                if g.representative(v) != root}
    except MemoryError:
        raise KRobustError(f"graph.n: {g.n} vertices are more cut units "
                           "than fit in memory") from None


def units_of(g: WeightedGraph) -> tuple[int, ...]:
    return tuple(_reps(g, _require_root(g)))


def _root_cuts(g: WeightedGraph, root: int, reps) -> dict[int, Fraction]:
    return {r: min_cut(g, root, [r])[0] for r in sorted(set(reps))}


def build_net(g: WeightedGraph, root: int,
              threshold: Fraction) -> frozenset[int]:
    """Units whose representative's min cut from the root strictly exceeds
    the threshold p/q (the solvers pass 2*T*tau), tested as cut * q > p."""
    reps = _reps(g, root)
    cuts = _root_cuts(g, root, reps.values())
    p, q = threshold.numerator, threshold.denominator
    return frozenset(v for v, r in reps.items() if cuts[r] * q > p)


def thrifty_plan(g: WeightedGraph, schedule: Schedule, guess: Fraction,
                 beta: Fraction | None = None) -> ThriftyPlan:
    """Build the two-day plan for one guess of the optimal value.  The net
    only shrinks as the guess grows, and a net unit's root cut exceeds
    2T*tau >= 0, so the day-0 cut is empty exactly when the net is: from
    then on every guess builds this plan but for guess and tau."""
    root = _require_root(g)
    beta = BETA if beta is None else beta
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


def _lower(g: WeightedGraph) -> Fraction:
    """The costliest single-unit root cut."""
    root = _require_root(g)
    return max(_root_cuts(g, root, _reps(g, root).values()).values())


def _cover_all(g: WeightedGraph):
    """The cut of every unit: its cost and edge ids."""
    root = _require_root(g)
    ub, ub_set = min_cut(g, root, _reps(g, root).values())
    return ub, sorted(ub_set.ids)


def _cover_table(g: WeightedGraph, ids, units, columns=None) -> int:
    """Bit M set when removing the edges {ids[i] : bit i of M} leaves no
    unit reachable from the root."""
    table, reach = reach_tables(g, ids, g.root, cut=True, columns=columns)
    for v in units:
        table &= ~reach[v]
    return table


def solve(g: WeightedGraph, schedule: Schedule, beta: Fraction | None = None,
          preprocess: bool = False, merge_r=2) -> tuple[ThriftyPlan, CostReport]:
    """Best evaluated plan over the doubling guess grid (and, with
    preprocess=True, over every guess of the costliest edge after scaling)."""
    return solve_thrifty(MINCUT, g, schedule, beta, preprocess, merge_r)


KINDS[MINCUT] = Kind(
    units=units_of,
    lower=_lower,
    cover_all=_cover_all,
    plan=lambda *args: thrifty_plan(*args),
    solve=lambda *args: solve(*args),
    cover_table=_cover_table,
    ratio_bound=lambda g, schedule: Fraction(150 * schedule.horizon))
