"""Core multistage model: schedules, uncertainty, plans, and plan evaluation.

A problem runs over days 0..T.  Day 0 is fully uncertain; on each later day i
the adversary reveals a set A_i and only units inside every revealed set so
far remain active.  Purchases on day i cost their base price times the
inflation lam[i].  The solvers in the sibling modules act on day 0 and on one
critical later day; everything here is solver-agnostic, including the one
thrifty driver they all run through and the registry of their Kind records.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .errors import (BadParameters, BadSchedule, MalformedSchedule,
                     MissingResidual, TrivialInstance)

if TYPE_CHECKING:
    from .graphcore import PreprocessResult, WeightedGraph
    from .setcover import SetSystem

CARDINALITY = "cardinality"
SUBSET = "subset"
# per bit i < 8, the table that maps a byte to the ASCII digit of its bit i
_DIGITS = tuple(bytes(48 + (b >> i & 1) for b in range(256)) for i in range(8))


def ln_upper(n: int) -> Fraction:
    """Rational upper bound on ln(n), tight to 6 decimal digits.

    The extra 1/10**6 absorbs float rounding so the result is always an
    upper bound; callers rely on that direction when scaling thresholds.
    """
    if n <= 1:
        return Fraction(0)
    return Fraction(math.ceil(math.log(n) * 10**6) + 1, 10**6)


def scaled_to_ints(values) -> tuple[int, tuple[int, ...]]:
    """L, the LCM of the int or Fraction values' denominators, and each
    value times L as an int.  Scaling by a positive constant keeps every
    order and tie."""
    values = tuple(values)
    scale = math.lcm(*(v.denominator for v in values))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)


def bit_columns(m: int, order=None) -> tuple[int, tuple[int, ...]]:
    """The truth-table columns of m action bits (Knuth, TAOCP 4A 7.1.3) for
    order, a list of every mask (mask order by default): full, one bit per
    mask, and per i < m the int whose bit p is set when order[p] holds bit
    i.  ANDs, ORs and complements of columns decide a formula over the
    actions for every mask at once, with order[p]'s answer at bit p."""
    order = range(1 << m) if order is None else order
    # byte j of each 64-bit mask, highest rank first: eight columns' digits
    masks = struct.pack(f"<{len(order)}Q", *reversed(order))
    return (1 << len(order)) - 1, tuple(
        int(masks[i // 8::8].translate(_DIGITS[i % 8]), 2) for i in range(m))


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

    @functools.cached_property
    def priced(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """D, the LCM of the inflations' denominators, and per day j the
        ints lam[j]*D and lam[j]*k[j]*D, which keep each order and tie."""
        scale, lam = scaled_to_ints(self.lam)
        return scale, lam, tuple(x * k for x, k in zip(lam, self.k))

    def merged(self, horizon: int, r) -> tuple["Schedule", tuple[int, ...]]:
        """merge_stages of days 0..horizon, kept for the next cost guess."""
        memo = self.__dict__.setdefault("_merged", {})
        if (horizon, r) not in memo:
            memo[horizon, r] = merge_stages(Schedule(
                horizon, self.k[:horizon + 1], self.lam[:horizon + 1]), r)
        return memo[horizon, r]


def validate_schedule(schedule: Schedule, ground_size: int) -> None:
    """Raise BadSchedule naming the first violated invariant and its field:
    T, k, lambda, k[i] or lambda[i]."""
    T, k, lam = schedule.horizon, schedule.k, schedule.lam
    if T < 0:
        raise BadSchedule("T", f"horizon must be >= 0, got {T}")
    if len(k) != T + 1:
        raise BadSchedule(
            "k", f"cardinalities must have {T + 1} entries, got {len(k)}")
    if len(lam) != T + 1:
        raise BadSchedule(
            "lambda", f"inflations must have {T + 1} entries, got {len(lam)}")
    for i, ki in enumerate(k):
        if ki < 0:
            raise BadSchedule(f"k[{i}]", f"k[{i}] = {ki} is negative")
    if lam[0] != 1:
        raise BadSchedule("lambda[0]", f"lam[0] must be 1, got {lam[0]}")
    for i, li in enumerate(lam):
        if li <= 0:
            raise BadSchedule(f"lambda[{i}]",
                              f"lam[{i}] = {li} is not positive")
    for i in range(1, T + 1):
        if lam[i] < lam[i - 1]:
            raise BadSchedule(f"lambda[{i}]", "inflations must be "
                              f"nondecreasing, lam[{i}] < lam[{i - 1}]")
        if k[i] > k[i - 1]:
            raise BadSchedule(f"k[{i}]", "cardinalities must be "
                              f"nonincreasing, k[{i}] > k[{i - 1}]")
    if k[0] != ground_size:
        raise BadSchedule("k[0]", f"k[0] = {k[0]} must equal the ground-set "
                          f"size {ground_size}")


def argmin_stage(schedule: Schedule) -> int:
    """Day j in 0..T minimizing lam[j]*k[j]; ties go to the smallest day."""
    if schedule.k[schedule.horizon] == 0:
        raise TrivialInstance("k_T = 0: nothing is ever required")
    return min(range(schedule.horizon + 1), key=schedule.priced[2].__getitem__)


def threshold_tau(guess: Fraction, schedule: Schedule, beta: Fraction) -> Fraction:
    """beta * max_j guess/(lam[j]*k[j]) over all days j in 0..T, which for
    a guess >= 0 is beta * guess / min_j lam[j]*k[j]: one division."""
    if any(ki == 0 for ki in schedule.k):
        raise TrivialInstance("k_j = 0 for some day j")
    scale, _, products = schedule.priced
    return Fraction(beta) * Fraction(guess) * scale / min(products)


def merge_stages(schedule: Schedule, r) -> tuple[Schedule, tuple[int, ...]]:
    """Restrict the schedule to a greedy subsequence of days whose inflations
    grow by at least a factor r.

    Day 0 is always kept and each kept day retains its own (k, lam).  Returns
    the merged schedule and the kept days, ascending, in original day
    numbers.  Acting only on kept days stays feasible: covering everything
    active on the last kept day covers a superset of what is active on day
    T.
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
    return merged, tuple(kept)


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
            raise BadSchedule(
                "parts", "subset model needs one part per day 1..T")
        ground = set(units)
        for i, part in enumerate(self.parts):
            if not part <= ground:
                raise BadSchedule(
                    f"parts[{i}]", f"part {i + 1} is not inside the ground set")


@dataclass(frozen=True)
class ThriftyPlan:
    """A two-day strategy: a day-0 purchase plus, on the critical day, a
    precomputed per-unit residual purchase for whatever is still active.

    guess is the grid's guess of the optimum and tau the threshold it sets;
    net holds the units tau marks expensive, which day 0 covers.  residuals
    maps every ground unit to the cost of its day-critical purchase;
    residual_actions maps it to the action ids bought then (empty if the unit
    is already handled by day 0).  conservative marks plans whose residual
    purchases may share actions, making the evaluated robcov an upper bound
    rather than exact.  preprocess_f is the id of the edge guessed costliest
    under cost scaling (None for the plain grid), solve's preprocess_f key.
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
    for u in units or ():
        if u not in plan.residuals:
            raise MissingResidual(u)
    j = plan.critical_day
    top = sorted(plan.residuals.items(),
                 key=lambda kv: (-kv[1], kv[0]))[:schedule.k[j]]
    worst = schedule.lam[j] * Fraction(sum(v for _, v in top))
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
    a, b = lb.numerator * ub.denominator, ub.numerator * lb.denominator
    if a <= 0:
        raise ValueError("guess grid needs a positive lower bound")
    grid = [lb]
    while a < b:
        grid.append(2 * grid[-1] if (a := 2 * a) <= b else ub)
    return grid


SETCOVER = "setcover"
MINCUT = "mincut"
STEINERTREE = "steinertree"
STEINERFOREST = "steinerforest"

PROBLEM_KINDS = (SETCOVER, MINCUT, STEINERTREE, STEINERFOREST)


@dataclass(frozen=True)
class Kind:
    """How one covering problem plugs into the thrifty driver.

    units(payload) lists the ground units.  lower(payload) is the grid's
    bottom, a proven lower bound on the adaptive optimum; cover_all(payload)
    is its top, the cost of a day-0 solution covering every unit, and that
    solution's action ids.  plan(payload, schedule, guess, beta) builds the
    plan for one guess.  Along the grid the threshold tau only grows, so
    each kind's net only shrinks, and a plan whose day-0 purchase is empty
    has the net that every larger guess keeps: no element whose cheapest
    set reaches tau, no unit whose root cut exceeds 2T*tau, the net {0}
    when vertex 0's ball of radius 4T*tau holds every vertex, no pair that
    sfnet_build picks because every pair lies within 4*gamma.  Any other
    net buys something: a set, or edges joining or cutting units a
    positive distance or cut apart.  So every larger guess builds the same
    plan but for guess and tau, and _candidates stops there.
    solve is the public per-kind entry point.  cover_table(payload, ids,
    units, columns=bit_columns(len(ids), order)) is an int whose bit p is
    set when the actions {ids[i] : bit i of order[p]} cover the units; the
    exact oracle checks every strategy against these tables, in its
    cheapest-first order.  ratio_bound(payload, schedule) is the proven
    bound on a plan's robcov over the adaptive optimum.  A graph payload
    has a root exactly when it is a cut instance.  min_live is the largest
    k_T for which the instance is trivial.
    """

    units: Callable
    lower: Callable
    cover_all: Callable
    plan: Callable
    solve: Callable
    cover_table: Callable
    ratio_bound: Callable
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
    """The grid's plans in guess order, up to the first whose day-0
    purchase is empty: every larger guess builds that plan again but for
    guess and tau (see Kind), so it ties and, coming later, loses.  The
    all-units cover that tops the grid is priced only when the plan at the
    lower bound buys something, or the bound is 0; a cover that costs
    nothing gives the free day-0 plan."""
    lb = spec.lower(payload)
    plans = [spec.plan(payload, schedule, lb, beta)] if lb else []
    if plans and not plans[0].day0_purchase:
        return plans
    ub, purchase = spec.cover_all(payload)
    if ub == 0:
        return [free_plan(spec.units(payload), purchase,
                          argmin_stage(schedule))]
    for guess in guess_grid(lb, ub)[1:]:
        plans.append(spec.plan(payload, schedule, guess, beta))
        if not plans[-1].day0_purchase:
            break
    return plans


def _reframe(inner: ThriftyPlan, pre: "PreprocessResult") -> ThriftyPlan:
    """Restate a plan computed on a preprocessed instance in original terms:
    prepaid edges join day 0 and its cost, action lists drop them, and the
    critical day is mapped back to original day numbering.  With nothing
    prepaid, the purchase (sorted already) and the action lists stay as
    they are."""
    owned = pre.prepaid.ids
    if owned:
        inner = replace(
            inner,
            day0_purchase=tuple(sorted(owned | set(inner.day0_purchase))),
            residual_actions={u: tuple(i for i in acts if i not in owned)
                              for u, acts in inner.residual_actions.items()})
    return replace(inner, critical_day=pre.kept_days[inner.critical_day],
                   day0_cost=pre.prepaid.cost + inner.day0_cost,
                   preprocess_f=pre.f_guess)


def _divided(plan: ThriftyPlan, scale: int) -> ThriftyPlan:
    """A plan computed on costs multiplied by scale, with its money stated
    in the original costs as exact Fractions."""
    return replace(
        plan, guess=Fraction(plan.guess, scale), tau=Fraction(plan.tau, scale),
        day0_cost=Fraction(plan.day0_cost, scale),
        residuals={u: Fraction(v, scale) for u, v in plan.residuals.items()})


def solve_thrifty(kind: str, payload, schedule: Schedule, beta=None,
                  preprocess: bool = False,
                  merge_r=2) -> tuple[ThriftyPlan, CostReport]:
    """Best evaluated plan over the doubling guess grid; ties keep the
    smaller guess, so the grid stops at its first plan that buys nothing
    on day 0, which every later guess ties (_candidates).  The payload is
    solved on its int-cost copy (its integral(), which a graph memoises
    for every caller), where all money is int: the candidates are ranked
    on robcov times D, which keeps every order and tie, and only the
    winner is evaluated and divided back by L.

    With preprocess=True (a graph only) the grid runs instead on the
    instance's graphcore.preprocess_cost_scaling under the first edge of
    each distinct cost from its scaling_floor() up, costliest first so
    cheaper scaled graphs find the instance's results.  Each plan is ranked
    in its own frame, cheapest cost first, with the prepaid cost and kept
    day of its PreprocessResult; only the winner is restated in original
    terms.  If no cost is left (a graph without edges, or a disconnected
    one) the plain grid decides: the free plan, or the instance's error.
    """
    from . import graphcore   # looked up per call: graphcore imports model
    spec = KINDS[kind]
    if preprocess and not isinstance(payload, graphcore.WeightedGraph):
        raise BadParameters("cost scaling applies to graph problems only")
    units = spec.units(payload)
    validate_schedule(schedule, len(units))
    scale, work = payload.integral()
    candidates: list[tuple[ThriftyPlan, PreprocessResult | None]] = []
    if schedule.k[schedule.horizon] <= spec.min_live:
        candidates.append((trivial_plan(units), None))
    elif preprocess and (floor := work.scaling_floor()) is not None:
        # each distinct cost's first id from the floor, scaled costliest first
        first = {e.cost: e.eid for e in sorted(
            work.edges, key=lambda e: e.eid, reverse=True) if e.cost >= floor}
        for cost in sorted(first, reverse=True):
            pre = graphcore.preprocess_cost_scaling(work, schedule,
                                                    first[cost], merge_r)
            candidates[:0] = [(plan, pre) for plan in _candidates(
                spec, pre.graph, pre.schedule, beta)]
    if not candidates:
        candidates = [(plan, None)
                      for plan in _candidates(spec, work, schedule, beta)]
    missing = [u for plan, _ in candidates for u in units
               if u not in plan.residuals]
    if missing:
        raise MissingResidual(missing[0])
    days, lam, _ = schedule.priced

    def robcov(candidate) -> int:
        """robcov * D in original terms, an int; the first least wins, so
        ties keep the cheaper cost guess, then the smaller grid guess."""
        plan, pre = candidate
        day, day0 = plan.critical_day, plan.day0_cost
        if pre is not None:
            day, day0 = pre.kept_days[day], pre.prepaid.cost + day0
        return day0.numerator * days + lam[day] * sum(
            sorted(plan.residuals.values(), reverse=True)[:schedule.k[day]])

    best, pre = min(candidates, key=robcov)
    best = best if pre is None else _reframe(best, pre)
    report = evaluate_thrifty(best, schedule)
    return _divided(best, scale), replace(report, **{
        money: Fraction(getattr(report, money), scale)
        for money in ("day0_cost", "worst_day_cost", "robcov")})


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
