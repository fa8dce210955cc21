"""Command-line front end: instance I/O, solvers, oracle, comparison.

Instances travel as JSON documents whose numbers are exact: rationals are
written as "p/q" or decimal strings and floating-point literals are rejected
outright, so a parse -> serialize -> parse round trip is the identity.
Reports go to standard output, diagnostics to standard error.

Exit codes: 0 success, 2 bad input or parameters, 3 trivial instance,
4 instance too large for exhaustive search, 5 internal invariant violation,
141 standard output closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .errors import (BadParameters, FieldError, InstanceFormatError,
                     InvariantViolation, KRobustError, TooLarge,
                     TrivialInstance)
from .fixtures import gen_lowerbound_allstages, gen_random, gen_subset_krobust_bad
from .graphcore import WeightedGraph
from .model import (CARDINALITY, KINDS, MINCUT, PROBLEM_KINDS, SETCOVER,
                    STEINERFOREST, STEINERTREE, SUBSET, ProblemInstance,
                    Schedule, UncertaintySpec, evaluate_thrifty,
                    require_live, validate_schedule)
from .oracle import (SizeLimits, exhaustive_robcov, minimax_opt, opt_bounds,
                     partwise_minimax)
from .setcover import SetSystem, elements_of

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TRIVIAL = 3
EXIT_TOOLARGE = 4
EXIT_INVARIANT = 5
EXIT_PIPE = 141   # 128 + SIGPIPE, as a shell reports a process a pipe killed


# ------------------------------------------------------------- document I/O

def _frac(value, path: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InstanceFormatError(path, f"expected an exact rational, got {value!r}")
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceFormatError(path, f"bad rational {value!r} ({exc})") from None


def _int(value, path: str, low=None) -> int:
    """value, if it is an int and at least low (any int if low is None)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceFormatError(path, f"expected an integer, got {value!r}")
    if low is not None and value < low:
        raise InstanceFormatError(path, f"must be at least {low}, got {value}")
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise InstanceFormatError(path, f"expected a list, got {value!r}")
    return value


def load_document(path: str):
    """Read a JSON document, rejecting floating-point literals."""

    def no_floats(text: str):
        raise InstanceFormatError(
            path, f"floating-point literal {text}; write rationals as strings")

    with open(path, encoding="utf-8") as fh:   # RFC 8259 requires UTF-8
        try:
            return json.load(fh, parse_float=no_floats)
        except (ValueError, RecursionError) as exc:
            # bad syntax, bytes that are not UTF-8, an integer literal past
            # int's digit limit, or nesting past the parser's recursion limit
            raise InstanceFormatError(path, f"invalid JSON: {exc}") from None


def _checked(prefix: str, build, *args, **kwargs):
    """build(*args, **kwargs), with the FieldError a model constructor
    raises reported as the document field prefix + its field."""
    try:
        return build(*args, **kwargs)
    except FieldError as exc:
        raise InstanceFormatError(prefix + exc.field, str(exc)) from None


def parse_instance(doc) -> ProblemInstance:
    """Validate a document into a ProblemInstance, naming the bad field.
    Only the document's shape is read here; the model owns each value rule."""
    if not isinstance(doc, dict):
        raise InstanceFormatError("$", "instance document must be an object")
    kind = doc.get("problem")
    if kind not in PROBLEM_KINDS:
        raise InstanceFormatError(
            "problem", f"must be one of {', '.join(PROBLEM_KINDS)}, got {kind!r}")
    sched_doc = doc.get("schedule")
    if not isinstance(sched_doc, dict):
        raise InstanceFormatError("schedule", "expected an object")
    T = _int(sched_doc.get("T"), "schedule.T")
    k = [_int(x, f"schedule.k[{i}]")
         for i, x in enumerate(_list(sched_doc.get("k"), "schedule.k"))]
    lams = [_frac(x, f"schedule.lambda[{i}]")
            for i, x in enumerate(_list(sched_doc.get("lambda"), "schedule.lambda"))]
    schedule = Schedule(T, tuple(k), tuple(lams))

    unc_doc = doc.get("uncertainty", {"kind": CARDINALITY})
    if not isinstance(unc_doc, dict):
        raise InstanceFormatError("uncertainty", "expected an object")
    unc_kind = unc_doc.get("kind")
    if unc_kind == CARDINALITY:
        uncertainty = UncertaintySpec(CARDINALITY)
    elif unc_kind == SUBSET:
        parts = []
        for i, raw in enumerate(_list(unc_doc.get("parts"), "uncertainty.parts")):
            parts.append(frozenset(
                _int(e, f"uncertainty.parts[{i}][{j}]")
                for j, e in enumerate(_list(raw, f"uncertainty.parts[{i}]"))))
        uncertainty = UncertaintySpec(SUBSET, tuple(parts))
    else:
        raise InstanceFormatError(
            "uncertainty.kind", f"must be cardinality or subset, got {unc_kind!r}")

    fracs: dict[str, Fraction] = {}   # each distinct cost string, parsed once

    def cost(value, path: str) -> Fraction:
        if type(value) is not str:
            return _frac(value, path)
        if value not in fracs:
            fracs[value] = _frac(value, path)
        return fracs[value]

    if kind == SETCOVER:
        # the elements are 1..k[0]; an empty k fails its length rule first
        size = k[0] if k else 0
        sets = []
        for i, raw in enumerate(_list(doc.get("sets"), "sets")):
            if not isinstance(raw, dict):
                raise InstanceFormatError(f"sets[{i}]", "expected an object")
            price = cost(raw.get("cost"), f"sets[{i}].cost")
            sets.append((_list(raw.get("members"), f"sets[{i}].members"),
                         price))
    else:
        gdoc = doc.get("graph")
        if not isinstance(gdoc, dict):
            raise InstanceFormatError("graph", "expected an object")
        n = _int(gdoc.get("n"), "graph.n", 0)
        edges = []
        for i, raw in enumerate(_list(gdoc.get("edges"), "graph.edges")):
            raw = _list(raw, f"graph.edges[{i}]")
            if len(raw) != 3:
                raise InstanceFormatError(f"graph.edges[{i}]",
                                          "expected [u, v, cost]")
            edges.append((_int(raw[0], f"graph.edges[{i}][0]"),
                          _int(raw[1], f"graph.edges[{i}][1]"),
                          cost(raw[2], f"graph.edges[{i}][2]")))
        root = gdoc.get("root")
        pairs = []
        for i, raw in enumerate(_list(gdoc.get("pairs", []), "graph.pairs")):
            raw = _list(raw, f"graph.pairs[{i}]")
            if len(raw) != 2:
                raise InstanceFormatError(f"graph.pairs[{i}]", "expected [s, t]")
            pairs.append((_int(raw[0], f"graph.pairs[{i}][0]"),
                          _int(raw[1], f"graph.pairs[{i}][1]")))
        if kind == MINCUT:
            root = _int(root, "graph.root")
        elif root is not None:
            raise InstanceFormatError("graph.root", f"{kind} takes no root")
        if kind == STEINERFOREST:
            if not pairs:
                raise InstanceFormatError("graph.pairs",
                                          "steinerforest needs at least one pair")
        elif pairs:
            raise InstanceFormatError("graph.pairs", f"{kind} takes no pairs")
        payload = _checked("graph.", WeightedGraph.build, n, edges, root=root,
                           pairs=pairs)
        size = (n - 1 if kind == MINCUT else n if kind == STEINERTREE
                else len(pairs))

    # k[0] is checked against the unit count before anything lists the
    # units, so a huge graph.n fails here instead of being materialised
    _checked("schedule.", validate_schedule, schedule, size)
    if kind == SETCOVER:
        payload = _checked("", SetSystem.build, size, sets)
    elif kind == STEINERTREE and k[T] >= 2:
        # the adversary can keep a vertex that no edge touches alive beside
        # another one, and no tree joins them
        touched = {x for e in payload.edges for x in (e.u, e.v)}
        if len(touched) < n:
            v = next(v for v in range(n) if v not in touched)
            raise InstanceFormatError(
                "graph.n", f"vertex {v} touches no edge, so no tree reaches "
                f"it while k_T = {k[T]} >= 2")
    inst = ProblemInstance(kind, payload, schedule, uncertainty)
    if uncertainty.kind == SUBSET:   # only the parts are checked against units
        _checked("uncertainty.", uncertainty.validate, schedule, inst.units())
    return inst


def serialize_instance(inst: ProblemInstance) -> dict:
    doc = {
        "problem": inst.kind,
        "schedule": {"T": inst.schedule.horizon,
                     "k": list(inst.schedule.k),
                     "lambda": [str(x) for x in inst.schedule.lam]},
    }
    if inst.uncertainty.kind == SUBSET:
        doc["uncertainty"] = {"kind": SUBSET,
                              "parts": [sorted(p) for p in inst.uncertainty.parts]}
    else:
        doc["uncertainty"] = {"kind": CARDINALITY}
    if inst.kind == SETCOVER:
        doc["sets"] = [{"members": elements_of(mask), "cost": str(cost)}
                       for mask, cost in zip(inst.payload.masks,
                                             inst.payload.costs)]
    else:
        g = inst.payload
        graph: dict = {"n": g.n,
                       "edges": [[e.u, e.v, str(e.cost)] for e in g.edges]}
        if g.root is not None:
            graph["root"] = g.root
        if g.pairs:
            graph["pairs"] = [[p.s, p.t] for p in g.pairs]
        doc["graph"] = graph
    return doc


# ------------------------------------------------------------------ commands

def _run_solver(inst: ProblemInstance, beta, guess, preprocess: bool,
                merge_r):
    if guess is not None and preprocess:
        raise BadParameters(
            "--guess cannot be combined with --preprocess cost-scaling")
    if inst.uncertainty.kind == SUBSET:
        raise BadParameters(
            "thrifty solvers handle the cardinality adversary only; "
            "use the oracle subcommand for part-structured uncertainty")
    require_live(inst.kind, inst.schedule)
    spec = KINDS[inst.kind]
    if guess is None:
        return spec.solve(inst.payload, inst.schedule, beta, preprocess,
                          merge_r)
    plan = spec.plan(inst.payload, inst.schedule, guess, beta)
    return plan, evaluate_thrifty(plan, inst.schedule, inst.units())


def _solve_report(plan, report) -> dict:
    doc = {
        "robcov": str(report.robcov),
        "day0_cost": str(plan.day0_cost),
        "jstar": plan.critical_day,
        "tau": str(plan.tau),
        "guess": str(plan.guess),
        "net": sorted(plan.net),
        "day0_purchase": sorted(plan.day0_purchase),
        "conservative": report.conservative,
        "witness": list(report.witness),
    }
    if plan.preprocess_f is not None:
        doc["preprocess_f"] = plan.preprocess_f
    return doc


def _emit(doc) -> None:
    print(json.dumps(doc))


def cmd_generate(args) -> int:
    if args.family == "lowerbound-allstages":
        inst = gen_lowerbound_allstages(args.horizon, Fraction(args.eps))
    elif args.family == "subset-krobust-bad":
        try:
            inst = gen_subset_krobust_bad(args.horizon, args.lam)
        except MemoryError:   # part i holds lam^(i+1) elements
            n = sum(args.lam ** i for i in range(2, args.horizon + 2))
            raise BadParameters(f"--horizon {args.horizon} and --lam {args.lam}"
                                f" make {n} elements, too many for memory") from None
    else:
        if args.kind is None:
            raise BadParameters("generate needs --kind or --family")
        inst = gen_random(args.kind, args.n, args.actions, args.horizon,
                          args.seed)
    _emit(serialize_instance(inst))
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = parse_instance(load_document(args.instance))
    plan, report = _run_solver(inst, args.beta_override, args.guess,
                               args.preprocess == "cost-scaling", args.merge_r)
    _emit(_solve_report(plan, report))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    inst = parse_instance(load_document(args.instance))
    plan, report = _run_solver(inst, args.beta_override, args.guess,
                               args.preprocess == "cost-scaling", args.merge_r)
    doc = {
        "robcov": str(report.robcov),
        "day0_cost": str(report.day0_cost),
        "worst_day_cost": str(report.worst_day_cost),
        "witness": list(report.witness),
        "conservative": report.conservative,
    }
    try:
        doc["exhaustive"] = str(exhaustive_robcov(inst, plan, args.limits))
    except TooLarge:
        pass
    _emit(doc)
    return EXIT_OK


def cmd_oracle(args) -> int:
    inst = parse_instance(load_document(args.instance))
    T = inst.schedule.horizon
    bad = sorted(d for d in set(args.inactive_days) if not 0 <= d <= T)
    if bad:
        raise BadParameters(f"--inactive-days {bad} outside days 0..{T}")
    try:
        opt, trace = minimax_opt(inst, args.limits,
                                 full_adversary=args.full_adversary,
                                 inactive_days=args.inactive_days)
    except TooLarge:
        # Partitioned single-survivor instances get arbitrarily many ground
        # units but stay exactly evaluable by the closed form, which yields
        # no trace (so no days_with_purchase).  It is cheap at any horizon,
        # but the horizon cap holds for it too: a document's exit code does
        # not depend on which evaluator answers it.
        if (inst.uncertainty.kind != SUBSET or args.full_adversary
                or T > (args.limits or SizeLimits()).max_horizon):
            raise
        try:
            opt = partwise_minimax(inst.payload, inst.schedule,
                                   inst.uncertainty.parts, args.inactive_days)
        except BadParameters:
            raise TooLarge(
                "instance exceeds game-search limits and lacks the "
                "partitioned single-survivor structure") from None
        _emit({"opt": str(opt)})
        return EXIT_OK
    days, stack = set(), [trace]
    while stack:
        node = stack.pop()
        days.update([node.day] if node.purchase else ())
        stack.extend(child for _, child in node.children)
    _emit({"opt": str(opt), "days_with_purchase": sorted(days)})
    return EXIT_OK


def _compare_one(inst: ProblemInstance, limits) -> tuple[dict, str | None]:
    """One comparison document plus a diagnostic if the invariant chain broke."""
    try:
        require_live(inst.kind, inst.schedule)
    except TrivialInstance:
        return ({"opt": "0", "algo": "0", "ratio": "n/a",
                 "exhaustive_algo": "0",
                 "bounds": {"lb": "0", "ub": "0"}}, None)
    plan, report = _run_solver(inst, None, None, False, 2)
    opt, _ = minimax_opt(inst, limits, with_trace=False)
    exhaustive = exhaustive_robcov(inst, plan, limits)
    lb, ub = opt_bounds(inst)
    doc = {
        "opt": str(opt),
        "algo": str(report.robcov),
        "ratio": "n/a" if opt == 0 else str(report.robcov / opt),
        "exhaustive_algo": str(exhaustive),
        "bounds": {"lb": str(lb), "ub": str(ub)},
    }
    problem = None
    if not lb <= opt <= exhaustive <= report.robcov:
        problem = (f"invariant chain violated: lb={lb} opt={opt} "
                   f"exhaustive={exhaustive} algo={report.robcov}")
    return doc, problem


def cmd_compare(args) -> int:
    if args.batch is not None:
        if args.instance is not None:
            raise BadParameters("--batch replaces the instance argument")
        if args.kind is None:
            raise BadParameters("--batch needs --kind")
        labelled = ((f"instance {i}: ", gen_random(
            args.kind, args.n, args.actions, args.horizon,
            args.seed * 1_000_003 + i)) for i in range(args.batch))
    elif args.instance is None:
        raise BadParameters("compare needs an instance file or --batch")
    else:
        labelled = [("", parse_instance(load_document(args.instance)))]
    for label, inst in labelled:
        doc, problem = _compare_one(inst, args.limits)
        _emit(doc)
        if problem:
            print(label + problem, file=sys.stderr)
            return EXIT_INVARIANT
    return EXIT_OK


# -------------------------------------------------------------------- parser

def _frac_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _at_least(low: int, convert=_frac_arg):
    """An argument type that reads a value with convert, an exact rational
    by default, and rejects values below low."""

    def parse(text: str):
        value = convert(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text!r}")
        return value

    parse.__name__ = convert.__name__   # argparse names it in its errors
    return parse


def _limits_arg(text: str) -> SizeLimits:
    try:
        units, actions, horizon = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected max_units,max_actions,max_horizon, got {text!r}")
    return SizeLimits(units, actions, horizon)


def _days_arg(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected day,day,..., got {text!r}")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta-override", type=_at_least(0), default=None,
                   dest="beta_override",
                   help="replace the per-problem threshold constant")
    p.add_argument("--guess", type=_at_least(0), default=None,
                   help="skip the doubling grid and use this single guess")
    p.add_argument("--preprocess", choices=("none", "cost-scaling"),
                   default="none",
                   help="graph problems: scale costs and merge stages first")
    p.add_argument("--merge-r", type=_at_least(1), default=Fraction(2),
                   dest="merge_r",
                   help="inflation ratio kept by stage merging (default 2)")


def _add_sizes(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=5,
                   help="ground size: elements or vertices (default 5)")
    p.add_argument("--actions", type=int, default=8,
                   help="number of sets or edges (default 8)")
    p.add_argument("--horizon", type=int, default=2,
                   help="number of revelation days T (default 2)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs far more than
    a parse."""
    parser = argparse.ArgumentParser(
        prog="krobust",
        description="Thrifty solvers and exact oracles for multistage "
                    "k-robust covering problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a random or adversarial instance")
    p.add_argument("--kind", choices=PROBLEM_KINDS, default=None,
                   help="random instance of this problem")
    p.add_argument("--family",
                   choices=("lowerbound-allstages", "subset-krobust-bad"),
                   default=None, help="adversarial family instead of random")
    _add_sizes(p)
    p.add_argument("--eps", type=_frac_arg, default=Fraction(2, 5),
                   help="inflation step of the all-stages family (default 2/5)")
    p.add_argument("--lam", type=int, default=4,
                   help="inflation base of the partitioned family (default 4)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run the thrifty solver on an instance")
    p.add_argument("instance", help="instance JSON file")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("evaluate",
                       help="solve, then report worst-case cost details")
    p.add_argument("instance", help="instance JSON file")
    _add_solver_flags(p)
    p.add_argument("--limits", type=_limits_arg, default=None,
                   help="exhaustive-search caps as units,actions,horizon")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("oracle", help="exact adaptive optimum by game search")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--limits", type=_limits_arg, default=None,
                   help="exhaustive-search caps as units,actions,horizon")
    p.add_argument("--full-adversary", action="store_true",
                   dest="full_adversary",
                   help="enumerate non-maximal adversary moves too")
    p.add_argument("--inactive-days", type=_days_arg, default=(),
                   dest="inactive_days",
                   help="forbid purchases on these days, e.g. 1,2")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare",
                       help="solver vs exact oracle with invariant checks")
    p.add_argument("instance", nargs="?", default=None,
                   help="instance JSON file (omit with --batch)")
    p.add_argument("--limits", type=_limits_arg, default=None,
                   help="exhaustive-search caps as units,actions,horizon")
    p.add_argument("--batch", type=_at_least(1, int), default=None,
                   help="compare this many seeded random instances")
    p.add_argument("--kind", choices=PROBLEM_KINDS, default=None,
                   help="problem kind for --batch")
    _add_sizes(p)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()   # a reader that has gone shows here at the latest
    except BrokenPipeError:
        # point stdout at devnull, so that the flush at interpreter
        # shutdown has nothing left to fail on
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    return code


def _run(args) -> int:
    """The command's exit code, with each library error reported on
    stderr under its own code."""
    try:
        return args.func(args)
    except TrivialInstance as exc:
        _emit({"robcov": "0"})
        print(f"trivial instance: {exc}", file=sys.stderr)
        return EXIT_TRIVIAL
    except TooLarge as exc:
        print(f"too large for exhaustive search: {exc}", file=sys.stderr)
        return EXIT_TOOLARGE
    except InstanceFormatError as exc:
        print(f"bad instance: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except KRobustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        raise   # stdout's reader has gone; main reports it
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
