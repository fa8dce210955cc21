"""Seeded benchmark of the `krobust` command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 35 --trace 0

A run imports krobust from the checkout's `src/`, generates the workload's
fixed instance pool (workloads.py) and writes one JSON file per instance; it
does this SETUP_ROUNDS times and reports the median as `setup_s`.  It then
times in-process `cli.main([...])` calls with stdout captured, which is the
path a `krobust` user takes.  The loop is closed, with one client: the next
call starts when the previous one returns.  Each pass visits every instance
once, in an order drawn from --seed, and passes repeat while the next one
still fits in --seconds.  Every call's exit code and stdout digest are checked
against reference.json; a run with a mismatch reports `correct: false` and
exits 1, so its timings carry no verdict.

A shared machine's speed drifts: on the 2-vCPU VM these sizes were set on,
by up to 2x over seconds and 20% over minutes.  So a fixed pure-Python probe is
timed before every call, and each call's time is scaled by
PROBE_REFERENCE_S / probe time: the metrics are seconds at a fixed
reference speed, and an instance's sample is the median of its scaled
calls.  Set-up rounds are scaled the same way.  With --trace 1 the passes
alternate between untraced and traced (tracer.py) and the per-layer
metrics, in unscaled seconds, are printed instead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it list every metric with its unit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracer
from workloads import KINDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_ROUNDS = 3
MIN_PASSES = 2   # with --trace 1: one untraced and one traced pass
TAIL_BEYOND = 10  # the tail is the highest rank with this many samples above
# About the probe's time on the unloaded 2-vCPU machine that set the sizes.
PROBE_REFERENCE_S = 0.0025

END_TO_END_UNITS = {"total_s": "s", "instance_p50_s": "s",
                    "instance_tail_s": "s",
                    **{f"{kind}_s": "s" for kind in KINDS},
                    "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    """The benchmark cannot run here: sources or references are missing."""


class Terminated(BaseException):
    """SIGTERM arrived.  It is not an Exception and not a SystemExit, so
    run_call lets it through and the run stops at once, removing its
    instance files on the way out."""


def on_sigterm(signum, _frame):
    raise Terminated(signum)


def import_krobust():
    """Import krobust afresh from the checkout's src/; (cli, fixtures)."""
    if not (SRC / "krobust" / "__init__.py").is_file():
        raise BenchError(f"no krobust package under {SRC}")
    for name in [n for n in sys.modules
                 if n == "krobust" or n.startswith("krobust.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("krobust.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"krobust imported from {cli.__file__}, not {SRC}")
    return cli, importlib.import_module("krobust.fixtures")


def probe() -> float:
    """Seconds taken by a fixed workload of the kind krobust runs: Fraction
    arithmetic, a heap and a dict.  It calls no krobust code, and it runs
    with the cyclic collector off, whose passes would cost more the more
    live objects krobust has left on the heap."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        heap, seen = [], {}
        for i in range(250):
            f = Fraction(i % 7 + 1, i % 5 + 1)
            heapq.heappush(heap, (f, i))
            seen[i] = f
        total = Fraction(0)
        while heap:
            total += heapq.heappop(heap)[0]
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def setup(cases, workdir: Path):
    """Import, generate and write the pool; (seconds, cli, paths, digests)."""
    start = perf_counter()
    cli, fixtures = import_krobust()
    paths, digests = [], []
    for case in cases:
        inst = fixtures.gen_random(case.kind, case.n, case.actions,
                                   case.horizon, case.gen_seed)
        text = json.dumps(cli.serialize_instance(inst)) + "\n"
        path = workdir / f"{case.name}.json"
        path.write_text(text)
        paths.append(path)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    return perf_counter() - start, cli, paths, digests


def run_call(cli, argv: list[str]):
    """One in-process CLI call; (seconds, (exit code, stdout sha256))."""
    out = io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:   # argparse rejects bad arguments this way
        code = exc.code
    except Exception as exc:    # a crash is a failed call, not a failed run
        traceback.print_exc()
        code = f"raised {type(exc).__name__}"
    elapsed = perf_counter() - start
    return elapsed, (code, hashlib.sha256(out.getvalue().encode()).hexdigest())


def expected_outcomes(cases, digests, reference: dict):
    """Reference (exit code, stdout sha256) per case; None where the instance
    file differs from the recorded one or no reference exists."""
    out = []
    for case, digest in zip(cases, digests):
        ref = reference.get(case.name)
        ok = ref is not None and ref["instance_sha256"] == digest
        out.append((ref["exit"], ref["stdout_sha256"]) if ok else None)
    return out


@dataclass
class Timed:
    """What the timed phase saw.  times[traced][i] holds case i's scaled
    call times in untraced (False) or traced (True) passes."""

    times: dict
    probes: list = field(default_factory=list)
    recorders: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def measure(cli, cases, paths, expected, seed: int, seconds: float,
            trace: bool) -> Timed:
    """Timed passes over the pool, each in a seeded order."""
    rng = random.Random(seed)
    out = Timed(times={False: [[] for _ in cases], True: [[] for _ in cases]})
    passes = 0
    start = perf_counter()
    while True:
        traced = trace and passes % 2 == 1
        order = list(range(len(cases)))
        rng.shuffle(order)
        recorder = tracer.Recorder() if traced else None
        gc.collect()
        pass_start = perf_counter()
        with tracer.traced(recorder) if traced else nullcontext():
            for i in order:
                if recorder is not None:
                    recorder.begin_call(i)
                probe_s = probe()
                elapsed, outcome = run_call(cli, cases[i].argv(str(paths[i])))
                out.probes.append(probe_s)
                out.times[traced][i].append(elapsed * PROBE_REFERENCE_S / probe_s)
                out.attempted += 1
                if outcome != expected[i]:
                    out.failed += 1
                    print(f"mismatch: {cases[i].name}: got {outcome}, "
                          f"expected {expected[i]}", file=sys.stderr)
        if recorder is not None:
            out.recorders.append(recorder)
        passes += 1
        now = perf_counter()
        if passes >= MIN_PASSES and now - start + (now - pass_start) > seconds:
            return out


def tail_rank(m: int) -> int:
    """Index, in ascending order, of the highest-ranked of m samples that
    still has TAIL_BEYOND samples above it (0 when there are too few)."""
    return max(m - 1 - TAIL_BEYOND, 0)


def end_to_end_metrics(cases, samples: list[float],
                       setup_times: list[float]):
    """samples[i] is case i's median scaled call.  The tail is taken over
    these and not over single calls: the call ten from the top is one noisy
    call, and which instance it belongs to changes with the pass count."""
    values = {"total_s": sum(samples),
              "instance_p50_s": statistics.median(samples),
              "instance_tail_s": sorted(samples)[tail_rank(len(samples))]}
    for kind in KINDS:
        values[f"{kind}_s"] = sum(x for case, x in zip(cases, samples)
                                  if case.kind == kind)
    values["setup_s"] = statistics.median(setup_times)
    values["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024)
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def per_layer_metrics(recorders, plain: list[float], traced: list[float]):
    metrics = {}
    for name in tracer.TRACED:
        metrics[f"{name}.calls"] = {
            "value": statistics.median(r.calls[name] for r in recorders),
            "unit": "count"}
        metrics[f"{name}.self_s"] = {
            "value": statistics.median(r.self_s[name] for r in recorders),
            "unit": "s"}
    for name in tracer.DISTINCT:
        keyed = sum(r.keyed[name] for r in recorders)
        distinct = sum(r.distinct[name] for r in recorders)
        metrics[f"{name}.distinct_frac"] = {
            "value": distinct / keyed if keyed else 0.0, "unit": "fraction"}
    metrics["trace_overhead_frac"] = {
        "value": sum(traced) / sum(plain) - 1, "unit": "fraction"}
    return metrics


def write_spans(path: Path, recorders) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "parent", "call", "name", "start", "end"],
                   "passes": [r.spans for r in recorders]}, fh)


def run(workload: str, cases, reference: dict, seed: int, seconds: float,
        trace: bool) -> tuple[dict, float]:
    """Set up, measure and check one workload; the result object and the
    median probe time."""
    workdir = WORK_DIR / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_times = []
        for _ in range(SETUP_ROUNDS):
            probe_s = probe()
            elapsed, cli, paths, digests = setup(cases, workdir)
            setup_times.append(elapsed * PROBE_REFERENCE_S / probe_s)
        expected = expected_outcomes(cases, digests, reference)
        timed = measure(cli, cases, paths, expected, seed, seconds, trace)
    finally:
        shutil.rmtree(workdir)
        try:
            WORK_DIR.rmdir()
        except OSError:   # another run still has its directory there
            pass
    plain = [statistics.median(t) for t in timed.times[False]]
    if trace:
        traced = [statistics.median(t) for t in timed.times[True]]
        metrics = per_layer_metrics(timed.recorders, plain, traced)
        write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.json",
                    timed.recorders)
    else:
        metrics = end_to_end_metrics(cases, plain, setup_times)
    result = {"correct": timed.failed == 0, "attempted": timed.attempted,
              "failed": timed.failed, "metrics": metrics}
    return result, statistics.median(timed.probes)


def load_reference(workload: str) -> dict:
    try:
        return json.loads(REFERENCE.read_text())["workloads"][workload]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no reference digests for {workload}: {exc}") from None


def summary(workload: str, cases, result: dict, probe_s: float,
            trace: bool) -> list[str]:
    m = len(cases)
    calls = result["attempted"]
    lines = [f"workload {workload}: {m} instances, {calls} calls "
             f"({calls / m:g} per instance), failed {result['failed']} "
             f"(failed_frac {result['failed'] / calls:g})"]
    if not result["correct"]:
        lines.append("outputs differ from the reference: no timing verdict")
    if not trace:
        rank = tail_rank(m)
        lines.append(f"samples: {m}, each an instance's median scaled call; "
                     f"instance_tail_s is rank {rank + 1} of {m} "
                     f"(p{100 * (rank + 1) / m:.1f})")
        lines.append(f"probe: median {probe_s * 1e3:.3f} ms against the "
                     f"reference {PROBE_REFERENCE_S * 1e3:g} ms; times below "
                     f"are scaled by the ratio")
    for name, metric in result["metrics"].items():
        lines.append(f"{name:48} {metric['value']:>14.6g} {metric['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, on_sigterm)
    cases = WORKLOADS[args.workload]()
    try:
        result, probe_s = run(args.workload, cases,
                              load_reference(args.workload), args.seed,
                              args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Terminated:
        print("perfbench: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    print("\n".join(summary(args.workload, cases, result, probe_s,
                            bool(args.trace))))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
