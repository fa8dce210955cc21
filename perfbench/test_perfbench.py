"""Tests of the benchmark itself, on a tiny pool.  From the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import io
import json
import os
import signal
from contextlib import redirect_stdout

import pytest

import run
import tracer
from record_reference import record
from workloads import KINDS, Case

TINY = [Case(f"{kind}-5", kind, 5, 8, 2, 3, "solve") for kind in KINDS] + [
    Case("mincut-compare", "mincut", 4, 6, 1, 2, "compare"),
    Case("steinertree-scaled", "steinertree", 6, 9, 2, 1, "solve",
         ("--preprocess", "cost-scaling")),
]


@pytest.fixture(autouse=True)
def scratch_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")


@pytest.fixture(scope="module")
def reference():
    return record(TINY)


def test_smoke_emits_every_named_metric(reference):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = run.run("tiny", TINY, reference, 1, 0.1, trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= run.MIN_PASSES * len(TINY)
        assert result["metrics"] == {
            m["name"]: {"value": result["metrics"][m["name"]]["value"],
                        "unit": m["unit"]} for m in spec[group]}
    assert (run.OUT_DIR / "spans-tiny-seed1.json").is_file()


def _stdout(cli, argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_traced_stdout_is_byte_identical_and_originals_restored(tmp_path):
    _, cli, paths, _ = run.setup(TINY, tmp_path)
    modules = tracer.krobust_modules()
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    recorder = tracer.Recorder()
    for call, (case, path) in enumerate(zip(TINY, paths)):
        plain = _stdout(cli, case.argv(str(path)))
        with tracer.traced(recorder):
            recorder.begin_call(call)
            assert _stdout(cli, case.argv(str(path))) == plain
    assert recorder.calls["graphcore.min_cut"] > 0
    assert recorder.calls["cli.parse_instance"] == len(TINY)
    for name, mod in modules.items():
        assert all(vars(mod)[attr] is value
                   for attr, value in before[name].items()), name


def test_sigterm_during_a_call_stops_the_run_and_cleans_up(reference,
                                                          monkeypatch):
    real_run_call = run.run_call

    class TerminatedMidCall:
        def __init__(self, cli):
            self.cli = cli

        def main(self, argv):
            os.kill(os.getpid(), signal.SIGTERM)
            return self.cli.main(argv)

    monkeypatch.setattr(run, "run_call", lambda cli, argv: real_run_call(
        TerminatedMidCall(cli), argv))
    previous = signal.signal(signal.SIGTERM, run.on_sigterm)
    try:
        with pytest.raises(run.Terminated):
            run.run("tiny", TINY, reference, 1, 30.0, False)
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert not run.WORK_DIR.exists()


def test_corrupted_reference_digest_is_a_failure(reference):
    bad = copy.deepcopy(reference)
    bad[TINY[0].name]["stdout_sha256"] = "0" * 64
    result, _ = run.run("tiny", TINY, bad, 1, 0.1, False)
    assert not result["correct"]
    assert result["failed"] * len(TINY) == result["attempted"]
