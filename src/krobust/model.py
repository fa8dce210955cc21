"""Core multistage model: schedules, uncertainty, plans, and plan evaluation.

A problem runs over days 0..T.  Day 0 is fully uncertain; on each later day i
the adversary reveals a set A_i and only units inside every revealed set so
far remain active.  Purchases on day i cost their base price times the
inflation lam[i].  The solvers in the sibling modules act on day 0 and on one
critical later day; everything here is solver-agnostic, including the one
thrifty driver they all run through and the registry of their Kind records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .errors import (BadParameters, Infeasible, MalformedSchedule,
                     MissingResidual, TrivialInstance)

if TYPE_CHECKING:
    from .graphcore import PreprocessResult, WeightedGraph
    from .setcover import SetSystem

CARDINALITY = "cardinality"
SUBSET = "subset"


def ln_upper(n: int) -> Fraction:
    """Rational upper bound on ln(n), tight to 6 decimal digits.

    The extra 1/10**6 absorbs float rounding so the result is always an
    upper bound; callers rely on that direction when scaling thresholds.
    """
    if n <= 1:
        return Fraction(0)
    return Fraction(math.ceil(math.log(n) * 10**6) + 1, 10**6)


def harmonic(n: int) -> Fraction:
    """Exact n-th harmonic number."""
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


@dataclass(frozen=True)
class Schedule:
    """Horizon T with per-day cardinality bounds k and inflations lam."""

    horizon: int
    k: tuple[int, ...]
    lam: tuple[Fraction, ...]

    @staticmethod
    def of(k: Sequence[int], lam: Sequence) -> "Schedule":
        return Schedule(len(k) - 1, tuple(int(x) for x in k),
                        tuple(Fraction(x) for x in lam))


def validate_schedule(schedule: Schedule, ground_size: int) -> None:
    """Raise MalformedSchedule naming the first violated invariant."""
    T = schedule.horizon
    if T < 0:
        raise MalformedSchedule(f"horizon must be >= 0, got {T}")
    if len(schedule.k) != T + 1:
        raise MalformedSchedule(
            f"cardinalities must have {T + 1} entries, got {len(schedule.k)}")
    if len(schedule.lam) != T + 1:
        raise MalformedSchedule(
            f"inflations must have {T + 1} entries, got {len(schedule.lam)}")
    for i, ki in enumerate(schedule.k):
        if ki < 0:
            raise MalformedSchedule(f"k[{i}] = {ki} is negative")
    if schedule.lam[0] != 1:
        raise MalformedSchedule(f"lam[0] must be 1, got {schedule.lam[0]}")
    for i, li in enumerate(schedule.lam):
        if li <= 0:
            raise MalformedSchedule(f"lam[{i}] = {li} is not positive")
    for i in range(T):
        if schedule.lam[i + 1] < schedule.lam[i]:
            raise MalformedSchedule(
                f"inflations must be nondecreasing, lam[{i + 1}] < lam[{i}]")
        if schedule.k[i + 1] > schedule.k[i]:
            raise MalformedSchedule(
                f"cardinalities must be nonincreasing, k[{i + 1}] > k[{i}]")
    if schedule.k[0] != ground_size:
        raise MalformedSchedule(
            f"k[0] = {schedule.k[0]} must equal the ground-set size {ground_size}")


def argmin_stage(schedule: Schedule) -> int:
    """Day j in 0..T minimizing lam[j]*k[j]; ties go to the smallest day."""
    if schedule.k[schedule.horizon] == 0:
        raise TrivialInstance("k_T = 0: nothing is ever required")
    best = 0
    best_val = schedule.lam[0] * schedule.k[0]
    for j in range(1, schedule.horizon + 1):
        val = schedule.lam[j] * schedule.k[j]
        if val < best_val:
            best, best_val = j, val
    return best


def threshold_tau(guess: Fraction, schedule: Schedule, beta: Fraction) -> Fraction:
    """beta * max_j guess/(lam[j]*k[j]) over all days j in 0..T."""
    if any(ki == 0 for ki in schedule.k):
        raise TrivialInstance("k_j = 0 for some day j")
    guess = Fraction(guess)
    best = max(guess / (schedule.lam[j] * schedule.k[j])
               for j in range(schedule.horizon + 1))
    return Fraction(beta) * best


def merge_stages(schedule: Schedule, r) -> tuple[Schedule, tuple[int, ...]]:
    """Restrict the schedule to a greedy subsequence of days whose inflations
    grow by at least a factor r.

    Day 0 is always kept and each kept day retains its own (k, lam).  Returns
    the merged schedule and a map sending each original day to the latest kept
    day at or before it (in original day numbers).  Acting only on kept days
    stays feasible: covering everything active on the last kept day covers a
    superset of what is active on day T.
    """
    r = Fraction(r)
    if r < 1:
        raise ValueError(f"merge ratio must be >= 1, got {r}")
    kept = [0]
    for i in range(1, schedule.horizon + 1):
        if schedule.lam[i] >= r * schedule.lam[kept[-1]]:
            kept.append(i)
    merged = Schedule(len(kept) - 1,
                      tuple(schedule.k[i] for i in kept),
                      tuple(schedule.lam[i] for i in kept))
    day_map = []
    last = 0
    for d in range(schedule.horizon + 1):
        if d in kept:
            last = d
        day_map.append(last)
    return merged, tuple(day_map)


@dataclass(frozen=True)
class UncertaintySpec:
    """Adversary model: plain cardinality bounds, or per-part bounds where
    day i may keep at most k_i units of part i alive (parts index days 1..T)."""

    kind: str = CARDINALITY
    parts: tuple[frozenset[int], ...] | None = None

    def validate(self, schedule: Schedule, units: Iterable) -> None:
        if self.kind == CARDINALITY:
            if self.parts is not None:
                raise MalformedSchedule("cardinality model takes no parts")
            return
        if self.kind != SUBSET:
            raise MalformedSchedule(f"unknown uncertainty kind {self.kind!r}")
        if self.parts is None or len(self.parts) != schedule.horizon:
            raise MalformedSchedule(
                "subset model needs one part per day 1..T")
        ground = set(units)
        for i, part in enumerate(self.parts):
            if not part <= ground:
                raise MalformedSchedule(f"part {i + 1} is not inside the ground set")


@dataclass(frozen=True)
class ScenarioSequence:
    """Revealed sets A_1..A_T; the active set on day j is their running
    intersection (day 0 starts from the whole ground set)."""

    revelations: tuple[frozenset[int], ...]

    def actives(self, universe: Iterable) -> tuple[frozenset[int], ...]:
        cur = frozenset(universe)
        out = [cur]
        for rev in self.revelations:
            cur = cur & rev
            out.append(cur)
        return tuple(out)

    def validate(self, schedule: Schedule, uncertainty: UncertaintySpec) -> None:
        if len(self.revelations) != schedule.horizon:
            raise MalformedSchedule(
                f"expected {schedule.horizon} revelations, got {len(self.revelations)}")
        for i, rev in enumerate(self.revelations, start=1):
            if uncertainty.kind == CARDINALITY:
                if len(rev) != schedule.k[i]:
                    raise MalformedSchedule(
                        f"|A_{i}| = {len(rev)} but k_{i} = {schedule.k[i]}")
            else:
                part = uncertainty.parts[i - 1]
                if len(rev & part) > schedule.k[i]:
                    raise MalformedSchedule(
                        f"|A_{i} ∩ P_{i}| exceeds k_{i} = {schedule.k[i]}")


@dataclass(frozen=True)
class ThriftyPlan:
    """A two-day strategy: a day-0 purchase plus, on the critical day, a
    precomputed per-unit residual purchase for whatever is still active.

    residuals maps every ground unit to the cost of its day-critical purchase;
    residual_actions maps it to the action ids bought then (empty if the unit
    is already handled by day 0).  conservative marks plans whose residual
    purchases may share actions, making the evaluated robcov an upper bound
    rather than exact.
    """

    guess: Fraction
    beta: Fraction
    tau: Fraction
    critical_day: int
    net: frozenset[int]
    day0_purchase: tuple[int, ...]
    day0_cost: Fraction
    residuals: Mapping
    residual_actions: Mapping
    conservative: bool
    preprocess_f: int | None = None


@dataclass(frozen=True)
class CostReport:
    day0_cost: Fraction
    worst_day_cost: Fraction
    robcov: Fraction
    witness: tuple
    conservative: bool


def evaluate_thrifty(plan: ThriftyPlan, schedule: Schedule,
                     units: Iterable | None = None) -> CostReport:
    """Worst-case cost of a thrifty plan under the cardinality adversary.

    The adversary keeps the k_j* units with the largest residuals active, so
    the worst critical-day cost is lam[j*] times the sum of the top residuals.
    The witness lists the attaining units (ties to the smallest id), keeping
    only those with positive residual.
    """
    if units is not None:
        for u in units:
            if u not in plan.residuals:
                raise MissingResidual(u)
    j = plan.critical_day
    kj = schedule.k[j]
    ranked = sorted(plan.residuals.items(), key=lambda kv: (-kv[1], kv[0]))
    top = ranked[:kj]
    worst = schedule.lam[j] * sum((v for _, v in top), Fraction(0))
    witness = tuple(u for u, v in top if v > 0)
    return CostReport(day0_cost=plan.day0_cost,
                      worst_day_cost=worst,
                      robcov=plan.day0_cost + worst,
                      witness=witness,
                      conservative=plan.conservative)


def trivial_plan(units: Iterable) -> ThriftyPlan:
    """Empty plan used when k_T leaves nothing to pay for."""
    return free_plan(units, (), 0, net=())


def free_plan(units: Iterable, purchase: Iterable[int], critical_day: int,
              net: Iterable[int] | None = None) -> ThriftyPlan:
    """Plan for instances whose full day-0 solution costs nothing."""
    units = tuple(units)
    return ThriftyPlan(guess=Fraction(0), beta=Fraction(0), tau=Fraction(0),
                       critical_day=critical_day,
                       net=frozenset(units if net is None else net),
                       day0_purchase=tuple(purchase), day0_cost=Fraction(0),
                       residuals={u: Fraction(0) for u in units},
                       residual_actions={u: () for u in units},
                       conservative=False)


def guess_grid(lb: Fraction, ub: Fraction) -> list[Fraction]:
    """Geometric grid of ratio 2 from lb to ub, both endpoints included."""
    if lb <= 0:
        raise ValueError("guess grid needs a positive lower bound")
    grid = [lb]
    g = lb
    while g < ub:
        g = min(2 * g, ub)
        grid.append(g)
    return grid


SETCOVER = "setcover"
MINCUT = "mincut"
STEINERTREE = "steinertree"
STEINERFOREST = "steinerforest"

PROBLEM_KINDS = (SETCOVER, MINCUT, STEINERTREE, STEINERFOREST)


@dataclass(frozen=True)
class Kind:
    """How one covering problem plugs into the thrifty driver.

    units(payload) lists the ground units.  bounds(payload) returns the grid
    endpoints (a proven lower bound on the adaptive optimum and the cost of a
    day-0 solution covering every unit) and that solution's action ids;
    plan(payload, schedule, guess, beta) builds the plan for one guess.
    solve is the public per-kind entry point.  covers(payload, ids, units)
    tells whether the owned action ids cover the active units; the exact
    oracle checks every strategy with it.  For graph problems,
    scale(payload, schedule, f_guess, merge_r) cost-scales the instance
    under a guess of the costliest edge ever bought and raises Infeasible
    when that guess cannot stay feasible.  A graph payload has a root
    exactly when it is a cut instance.  min_live is the largest k_T for
    which the instance is trivial.
    """

    units: Callable
    bounds: Callable
    plan: Callable
    solve: Callable
    covers: Callable
    scale: Callable | None = None
    min_live: int = 0


KINDS: dict[str, Kind] = {}
"""Problem kind name -> its Kind record; each solver module adds its own."""


def require_live(kind: str, schedule: Schedule) -> None:
    """Raise TrivialInstance when k_T is at most the kind's min_live."""
    kT = schedule.k[schedule.horizon]
    if kT <= KINDS[kind].min_live:
        raise TrivialInstance(f"k_T = {kT}: nothing is ever required")


def _candidates(spec: Kind, payload, schedule: Schedule,
                beta) -> list[ThriftyPlan]:
    """One plan per grid guess, or the day-0 plan when covering all is free."""
    lb, ub, purchase = spec.bounds(payload)
    if ub == 0:
        return [free_plan(spec.units(payload), purchase,
                          argmin_stage(schedule))]
    return [spec.plan(payload, schedule, guess, beta)
            for guess in guess_grid(lb, ub)]


def _reframe(inner: ThriftyPlan, pre: "PreprocessResult") -> ThriftyPlan:
    """Restate a plan computed on a preprocessed instance in original terms:
    prepaid edges join day 0 and its cost, action lists drop them, and the
    critical day is mapped back to original day numbering."""
    owned = pre.prepaid.ids
    return replace(
        inner,
        critical_day=pre.kept_days[inner.critical_day],
        day0_purchase=tuple(sorted(owned | set(inner.day0_purchase))),
        day0_cost=pre.prepaid.cost + inner.day0_cost,
        residual_actions={u: tuple(i for i in acts if i not in owned)
                          for u, acts in inner.residual_actions.items()},
        preprocess_f=pre.f_guess)


def scaled_candidates(kind: str, payload, schedule: Schedule, f_guess: int,
                      beta, merge_r) -> list[ThriftyPlan]:
    """All grid plans for one guess of the costliest edge ever bought, in
    original terms.  Raises Infeasible when the guess cannot stay feasible."""
    spec = KINDS[kind]
    pre = spec.scale(payload, schedule, f_guess, merge_r)
    return [_reframe(plan, pre)
            for plan in _candidates(spec, pre.graph, pre.schedule, beta)]


def solve_thrifty(kind: str, payload, schedule: Schedule, beta=None,
                  preprocess: bool = False,
                  merge_r=2) -> tuple[ThriftyPlan, CostReport]:
    """Best evaluated plan over the doubling guess grid; ties keep the
    smaller guess.

    With preprocess=True the grid runs once per distinct edge cost instead,
    on the instance cost-scaled under the first edge of that cost as the
    costliest one ever bought.  Guesses that cannot stay feasible are
    skipped.  If none is left (a graph without edges, or a disconnected
    one) the plain grid decides: it returns the free plan or raises the
    instance's own error.
    """
    spec = KINDS[kind]
    if preprocess and spec.scale is None:
        raise BadParameters("cost scaling applies to graph problems only")
    units = spec.units(payload)
    validate_schedule(schedule, len(units))
    candidates: list[ThriftyPlan] = []
    if schedule.k[schedule.horizon] <= spec.min_live:
        candidates.append(trivial_plan(units))
    elif preprocess:
        seen_costs = set()
        for e in sorted(payload.edges, key=lambda e: (e.cost, e.eid)):
            if e.cost in seen_costs:
                continue
            seen_costs.add(e.cost)
            try:
                candidates.extend(scaled_candidates(
                    kind, payload, schedule, e.eid, beta, merge_r))
            except Infeasible:
                continue
    if not candidates:
        candidates = _candidates(spec, payload, schedule, beta)
    best: tuple[ThriftyPlan, CostReport] | None = None
    for plan in candidates:
        report = evaluate_thrifty(plan, schedule, units)
        if best is None or report.robcov < best[1].robcov:
            best = (plan, report)
    return best


@dataclass(frozen=True)
class ProblemInstance:
    """One covering problem plus its schedule and uncertainty model.

    payload is a SetSystem for set cover and a WeightedGraph otherwise.
    Ground units are: elements (set cover), non-root vertices (min-cut),
    all vertices (Steiner tree), pair ids (Steiner forest).
    """

    kind: str
    payload: "SetSystem | WeightedGraph"
    schedule: Schedule
    uncertainty: UncertaintySpec = field(default_factory=UncertaintySpec)

    def units(self) -> tuple:
        return KINDS[self.kind].units(self.payload)
