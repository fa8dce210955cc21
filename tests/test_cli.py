"""End-to-end CLI behavior: JSON I/O, subcommands, exit codes."""

import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import krobust
from krobust.cli import main, parse_instance, serialize_instance
from krobust.fixtures import gen_random, gen_subset_krobust_bad
from krobust.model import PROBLEM_KINDS, SUBSET

SC_HAND = {
    "problem": "setcover",
    "schedule": {"T": 1, "k": [2, 1], "lambda": ["1", "2"]},
    "uncertainty": {"kind": "cardinality"},
    "sets": [{"members": [1], "cost": "1"},
             {"members": [2], "cost": "2"},
             {"members": [1, 2], "cost": "5/2"}],
}


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def gen_file(tmp_path, capsys, *argv, name="inst.json"):
    rc, out, _ = run(capsys, "generate", *argv)
    assert rc == 0
    path = tmp_path / name
    path.write_text(out)
    return str(path)


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def allstages(tmp_path, capsys):
    return gen_file(tmp_path, capsys, "--family", "lowerbound-allstages",
                    "--horizon", "2", "--eps", "2/5")


def test_round_trip_identity():
    for kind in PROBLEM_KINDS:
        inst = gen_random(kind, 5, 7, 2, 3)
        doc = serialize_instance(inst)
        doc2 = json.loads(json.dumps(doc))
        again = parse_instance(doc2)
        assert again == inst
        assert serialize_instance(again) == doc


def test_round_trip_subset(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "--family", "subset-krobust-bad",
                    "--horizon", "2", "--lam", "3")
    doc = json.loads(open(path).read())
    assert doc["uncertainty"]["kind"] == "subset"
    inst = parse_instance(doc)
    assert serialize_instance(inst) == doc


def test_generate_is_deterministic(capsys):
    rc1, out1, _ = run(capsys, "generate", "--kind", "mincut", "--seed", "7")
    rc2, out2, _ = run(capsys, "generate", "--kind", "mincut", "--seed", "7")
    assert rc1 == rc2 == 0 and out1 == out2
    _, out3, _ = run(capsys, "generate", "--kind", "mincut", "--seed", "8")
    assert out3 != out1


def test_generate_needs_kind_or_family(capsys):
    rc, _, err = run(capsys, "generate")
    assert rc == 2 and "--kind or --family" in err


def test_solve_report(allstages, capsys):
    rc, out, _ = run(capsys, "solve", allstages)
    assert rc == 0
    assert json.loads(out) == {
        "robcov": "343/125", "day0_cost": "0", "jstar": 2,
        "tau": "1559583/43750", "guess": "7/5", "net": [],
        "day0_purchase": [], "conservative": False, "witness": [1]}


def test_solve_flags(allstages, capsys):
    rc, out, _ = run(capsys, "solve", allstages, "--guess", "12/5")
    assert rc == 0 and json.loads(out)["guess"] == "12/5"
    rc, out, _ = run(capsys, "solve", allstages, "--beta-override", "1")
    doc = json.loads(out)
    assert doc["robcov"] == "12/5"
    assert doc["day0_purchase"] == [0, 2]
    assert doc["witness"] == []


@pytest.mark.parametrize("flags,named", [
    (["--preprocess", "cost-scaling", "--merge-r", "1/2"], ["--merge-r"]),
    (["--guess", "-1"], ["--guess"]),
    (["--beta-override", "-1"], ["--beta-override"]),
    (["--guess", "3", "--preprocess", "cost-scaling"],
     ["--guess", "--preprocess"]),
])
def test_solve_rejects_bad_flag_values(tmp_path, capsys, flags, named):
    path = gen_file(tmp_path, capsys, "--kind", "steinertree", "--n", "5",
                    "--actions", "8", "--horizon", "2", "--seed", "1")
    try:
        rc = main(["solve", path, *flags])
    except SystemExit as exc:   # argparse rejects a flag value this way
        rc = exc.code
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "Traceback" not in captured.err
    for flag in named:
        assert flag in captured.err


def test_solve_rejects_preprocess_for_sets(allstages, capsys):
    rc, _, err = run(capsys, "solve", allstages, "--preprocess", "cost-scaling")
    assert rc == 2 and "graph problems only" in err


def test_solve_preprocess_graph(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "--kind", "mincut", "--seed", "5")
    rc, out, _ = run(capsys, "solve", path, "--preprocess", "cost-scaling",
                     "--merge-r", "3")
    assert rc == 0
    doc = json.loads(out)
    assert isinstance(doc["preprocess_f"], int)
    rc2, plain, _ = run(capsys, "solve", path)
    assert "preprocess_f" not in json.loads(plain)


def test_solve_trivial_exit(tmp_path, capsys):
    doc = dict(SC_HAND, schedule={"T": 1, "k": [2, 0], "lambda": ["1", "2"]})
    rc, out, err = run(capsys, "solve", write_doc(tmp_path, doc))
    assert rc == 3
    assert json.loads(out) == {"robcov": "0"}
    assert "trivial" in err


def test_solve_rejects_subset_uncertainty(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "--family", "subset-krobust-bad",
                    "--horizon", "1", "--lam", "2")
    rc, _, err = run(capsys, "solve", path)
    assert rc == 2 and "oracle subcommand" in err


def test_compare_rejects_subset_before_the_search(tmp_path, capsys,
                                                  monkeypatch):
    # compare runs the solver first, so a subset document never reaches
    # the game search; only the oracle subcommand searches one
    from krobust import cli

    def searched(*args, **kwargs):
        raise AssertionError("compare reached minimax_opt")

    monkeypatch.setattr(cli, "minimax_opt", searched)
    path = gen_file(tmp_path, capsys, "--family", "subset-krobust-bad",
                    "--horizon", "1", "--lam", "2")
    rc, out, err = run(capsys, "compare", path)
    assert rc == 2 and out == "" and "oracle subcommand" in err


def test_evaluate_reports_exhaustive(allstages, capsys):
    rc, out, _ = run(capsys, "evaluate", allstages)
    assert rc == 0
    doc = json.loads(out)
    assert doc["exhaustive"] == "343/125"
    assert doc["robcov"] == "343/125"
    rc, out, _ = run(capsys, "evaluate", allstages, "--limits", "1,1,1")
    assert rc == 0 and "exhaustive" not in json.loads(out)


def test_oracle_report(allstages, tmp_path, capsys):
    rc, out, _ = run(capsys, "oracle", allstages)
    assert rc == 0
    assert json.loads(out) == {"opt": "49/25", "days_with_purchase": [1, 2]}
    hand = write_doc(tmp_path, SC_HAND)
    rc, out, _ = run(capsys, "oracle", hand, "--full-adversary")
    assert json.loads(out)["opt"] == "5/2"
    rc, out, _ = run(capsys, "oracle", hand, "--inactive-days", "0")
    assert json.loads(out)["opt"] == "4"


def test_oracle_partitioned_fallback(tmp_path, capsys):
    # too many units for the game search, but the partitioned evaluator
    # handles it exactly; the closed form yields no purchase trace
    path = gen_file(tmp_path, capsys, "--family", "subset-krobust-bad",
                    "--horizon", "2", "--lam", "3")
    rc, out, _ = run(capsys, "oracle", path)
    assert rc == 0
    assert json.loads(out) == {"opt": "2"}
    rc, out, _ = run(capsys, "oracle", path, "--inactive-days", "1")
    assert rc == 0
    assert json.loads(out) == {"opt": "4"}
    path = gen_file(tmp_path, capsys, "--family", "subset-krobust-bad",
                    "--horizon", "3", "--lam", "2")
    rc, out, _ = run(capsys, "oracle", path)
    assert rc == 0
    assert json.loads(out) == {"opt": "3"}
    # the horizon cap holds for the closed form as for the game search
    path = gen_file(tmp_path, capsys, "--family", "subset-krobust-bad",
                    "--horizon", "4", "--lam", "2")
    rc, out, err = run(capsys, "oracle", path)
    assert rc == 4 and out == "" and "too large for exhaustive" in err
    rc, out, _ = run(capsys, "oracle", path, "--limits", "8,12,4")
    assert rc == 0
    assert json.loads(out) == {"opt": "4"}


def test_oracle_too_large(allstages, tmp_path, capsys):
    # full-adversary mode never takes the partitioned shortcut
    path = gen_file(tmp_path, capsys, "--family", "subset-krobust-bad",
                    "--horizon", "2", "--lam", "3", name="sk.json")
    rc, _, err = run(capsys, "oracle", path, "--full-adversary")
    assert rc == 4 and "exceed" in err
    # cardinality instances have no shortcut at all
    for limits in ("1,1,1", "0,0,0"):   # a cap of 0 is a cap, not an error
        rc, _, err = run(capsys, "oracle", allstages, "--limits", limits)
        assert rc == 4 and "exceed" in err
    # a lowered horizon cap suppresses the shortcut too
    rc, _, err = run(capsys, "oracle", path, "--limits", "8,12,1")
    assert rc == 4 and "exceed" in err
    # ineligible structure (k_1 = 2): still too large
    doc = json.loads(open(path).read())
    doc["schedule"]["k"][1] = 2
    bumped = write_doc(tmp_path, doc)
    rc, _, err = run(capsys, "oracle", bumped)
    assert rc == 4 and "single-survivor" in err


def test_compare_single(allstages, capsys):
    rc, out, _ = run(capsys, "compare", allstages)
    assert rc == 0
    assert json.loads(out) == {
        "opt": "49/25", "algo": "343/125", "ratio": "7/5",
        "exhaustive_algo": "343/125",
        "bounds": {"lb": "7/5", "ub": "12/5"}}


def test_compare_batch_matches_documented_seeds(tmp_path, capsys):
    rc, out, _ = run(capsys, "compare", "--batch", "3", "--kind", "setcover",
                     "--n", "4", "--actions", "5", "--horizon", "2",
                     "--seed", "1")
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    # line i comes from seed*1000003 + i
    single = gen_file(tmp_path, capsys, "--kind", "setcover", "--n", "4",
                      "--actions", "5", "--horizon", "2",
                      "--seed", str(1_000_003))
    rc, one, _ = run(capsys, "compare", single)
    assert rc == 0 and json.loads(one) == json.loads(lines[0])


def test_compare_batch_argument_errors(allstages, capsys):
    rc, _, err = run(capsys, "compare", "--batch", "2")
    assert rc == 2 and "--kind" in err
    rc, _, err = run(capsys, "compare", allstages, "--batch", "2")
    assert rc == 2 and "replaces" in err
    rc, _, err = run(capsys, "compare")
    assert rc == 2 and "instance file or --batch" in err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_compare_batch_below_one_is_rejected(capsys, count):
    with pytest.raises(SystemExit) as exc:   # argparse rejects the value
        main(["compare", "--batch", count, "--kind", "setcover"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--batch" in captured.err and "Traceback" not in captured.err


def test_rejects_float_literals(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(SC_HAND).replace('"5/2"', "2.5"))
    rc, _, err = run(capsys, "solve", str(path))
    assert rc == 2 and "floating-point" in err


def _mincut(edges, root=0):
    """A mutation making the document a 3-vertex min-cut instance."""
    return lambda d: d.update(
        problem="mincut", schedule={"T": 1, "k": [3, 1], "lambda": ["1", "2"]},
        graph={"n": 3, "root": root, "edges": edges})


@pytest.mark.parametrize("mutate,field", [
    (lambda d: d.update(problem="matching"), "problem"),
    (lambda d: d["schedule"].update(k=[2]), "schedule.k"),
    (lambda d: d["schedule"].update(T="1"), "schedule.T"),
    (lambda d: d["sets"][0].update(cost=None), "sets[0].cost"),
    (lambda d: d["sets"][1]["members"].append("x"), "sets[1].members[1]"),
    pytest.param(lambda d: d["sets"][1]["members"].append(True),
                 "sets[1].members[1]", id="bool-member"),
    (lambda d: d["schedule"].update({"lambda": ["1", "3/0"]}),
     "schedule.lambda[1]"),
    pytest.param(lambda d: d["sets"][1].update(cost="-1"), "sets[1].cost",
                 id="negative-cost"),
    pytest.param(lambda d: d["schedule"].update(k=[2, -1]), "schedule.k[1]",
                 id="negative-k"),
    pytest.param(lambda d: d["sets"][1]["members"].append(7),
                 "sets[1].members[1]", id="unknown-member"),
    pytest.param(lambda d: d["sets"][0]["members"].insert(0, 0),
                 "sets[0].members[0]", id="member-zero"),
    pytest.param(lambda d: d["schedule"].update({"lambda": ["2", "2"]}),
                 "schedule.lambda[0]", id="first-lambda-not-1"),
    pytest.param(lambda d: d["schedule"].update({"lambda": ["1", "-2"]}),
                 "schedule.lambda[1]", id="negative-lambda"),
    pytest.param(lambda d: d["schedule"].update({"T": -1, "k": [],
                                                 "lambda": []}),
                 "schedule.T", id="negative-horizon"),
    pytest.param(lambda d: d["schedule"].update(
        {"T": 2, "k": [2, 1, 1], "lambda": ["1", "3", "2"]}),
        "schedule.lambda[2]", id="falling-lambda"),
    pytest.param(lambda d: d["schedule"].update(
        {"T": 2, "k": [2, 1, 2], "lambda": ["1", "2", "3"]}),
        "schedule.k[2]", id="rising-k"),
    pytest.param(lambda d: d.update(
        problem="steinertree",
        schedule={"T": 1, "k": [4, 2], "lambda": ["1", "2"]},
        graph={"n": 3, "edges": [[0, 1, "1"], [1, 2, "1"]]}),
        "schedule.k[0]", id="k0-not-ground-size"),
    pytest.param(lambda d: d.update(
        problem="steinertree",
        schedule={"T": 1, "k": [0, 0], "lambda": ["1", "2"]},
        graph={"n": -3, "edges": []}),
        "graph.n", id="negative-n"),
    # the first out-of-range member in list order, not in set order
    pytest.param(lambda d: d["sets"][1].update(members=[7, 0]),
                 "sets[1].members[0]", id="two-unknown-members"),
    pytest.param(lambda d: d["sets"][1].update(members=[0, "x"]),
                 "sets[1].members[0]", id="unknown-then-mistyped-member"),
    pytest.param(lambda d: [d["sets"][i].update(cost="-1") for i in (1, 2)],
                 "sets[1].cost", id="shared-negative-cost"),
    pytest.param(lambda d: [s.update(members=[1]) for s in d["sets"]],
                 "sets", id="uncovered-element"),
    pytest.param(_mincut([[0, 1, "1"], [1, 3, "1"]]), "graph.edges[1][1]",
                 id="second-endpoint-out-of-range"),
    pytest.param(_mincut([[0, 1, "1"], [-1, 2, "1"]]), "graph.edges[1][0]",
                 id="first-endpoint-out-of-range"),
    pytest.param(_mincut([[0, 1, "1"], [1, 1, "1"]]), "graph.edges[1]",
                 id="self-loop"),
    pytest.param(_mincut([[0, 1, "1"], [1, 2, "-1"]]), "graph.edges[1][2]",
                 id="negative-edge-cost"),
    pytest.param(_mincut([[0, 1, "1"], [1, 2, "1"]], root=9), "graph.root",
                 id="root-out-of-range"),
    pytest.param(lambda d: d.update(
        problem="steinerforest",
        schedule={"T": 1, "k": [2, 1], "lambda": ["1", "2"]},
        graph={"n": 3, "edges": [[0, 1, "1"], [1, 2, "1"]],
               "pairs": [[0, 2], [1, 3]]}),
        "graph.pairs[1][1]", id="pair-out-of-range"),
    pytest.param(lambda d: d.update(uncertainty={"kind": "subset",
                                                 "parts": [[1, 9]]}),
                 "uncertainty.parts[0]", id="part-outside-ground-set"),
    pytest.param(lambda d: d.update(uncertainty={"kind": "subset",
                                                 "parts": [[1], [2]]}),
                 "uncertainty.parts", id="part-count"),
])
def test_field_errors_name_the_path(tmp_path, capsys, mutate, field):
    doc = json.loads(json.dumps(SC_HAND))
    mutate(doc)
    rc, _, err = run(capsys, "solve", write_doc(tmp_path, doc))
    assert rc == 2 and f"bad instance: {field}: " in err


@pytest.mark.parametrize("kind,root,k,field", [
    pytest.param("steinertree", None, [3, 1], "schedule.k[0]",
                 id="steinertree-None"),
    pytest.param("mincut", 0, [3, 1], "schedule.k[0]", id="mincut-0"),
    pytest.param("steinertree", None, [10**12, 2], "graph.n",
                 id="steinertree-isolated-vertex")])
def test_huge_vertex_count_exits_2_without_listing_the_vertices(tmp_path,
                                                                kind, root,
                                                                k, field):
    # k[0] is checked against the unit count, and a tree's vertices that no
    # edge touches are found from the edges, before anything builds a
    # per-vertex structure; the run gets a 1 GiB address-space cap, so a
    # regression that lists 10**12 vertices fails fast instead of
    # exhausting the machine
    done = _run_huge_graph(tmp_path, "solve", kind, root, k)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith(f"bad instance: {field}: "), done.stderr


def _run_huge_graph(tmp_path, command, kind, root, k):
    """Run the CLI on a 10**12-vertex, three-edge graph document under a
    1 GiB address-space cap."""
    graph = {"n": 10**12, "edges": [[0, 1, "1"], [1, 2, "2"], [0, 2, "3"]]}
    if root is not None:
        graph["root"] = root
    return _run_capped(tmp_path, command, {
        "problem": kind,
        "schedule": {"T": 1, "k": k, "lambda": ["1", "2"]},
        "graph": graph})


def _run_capped(tmp_path, command, doc):
    """Run the CLI on the document in a child process under a 1 GiB
    address-space cap, so a regression that sizes something by a huge
    field fails one test instead of exhausting the machine."""
    return _run_cli_capped([command, write_doc(tmp_path, doc)], 1 << 30)


def _run_cli(argv, **kwargs):
    """Run the CLI on argv in a child process that imports this krobust."""
    src = str(Path(krobust.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "krobust.cli", *argv], text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        **kwargs)


def _run_cli_capped(argv, cap):
    """Run the CLI on argv in a child process under an address-space cap
    of cap bytes."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return _run_cli(argv, capture_output=True, preexec_fn=limit)


def _generate_capped(horizon):
    """generate's subset-krobust-bad family at --lam 2 under a 512 MiB
    address-space cap.  Part i of the family holds 2^(i+1) elements, and
    each singleton's mask is as wide as the universe.  Never run these
    cases without a cap."""
    return _run_cli_capped(["generate", "--family", "subset-krobust-bad",
                            "--horizon", str(horizon), "--lam", "2"], 512 << 20)


@pytest.mark.parametrize("horizon,elements", [(15, 131068), (17, 524284)])
def test_generate_refuses_a_family_too_large_for_memory(horizon, elements):
    # neither fits under the cap: the generator names its flags instead of
    # printing a MemoryError traceback
    done = _generate_capped(horizon)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == (f"error: --horizon {horizon} and --lam 2 make "
                           f"{elements} elements, too many for memory\n")


def test_generate_fits_a_sparse_family_in_memory():
    # 65,532 singletons fit under the cap because building their masks
    # keeps no table per element
    done = _generate_capped(14)
    assert done.returncode == 0 and done.stderr == ""
    doc = json.loads(done.stdout)
    assert doc["schedule"]["k"][0] == len(doc["sets"]) == 65532


def test_huge_universe_names_the_uncovered_element(tmp_path):
    # k[0] is the universe size: the uncovered-element search must stop
    # at the first gap, and no bit table or mask may be sized by k[0]
    doc = json.loads(json.dumps(SC_HAND))
    doc["schedule"] = {"T": 0, "k": [10**12], "lambda": ["1"]}
    done = _run_capped(tmp_path, "solve", doc)
    assert done.returncode == 2 and "bad instance: sets: " in done.stderr


def test_huge_cut_graph_is_refused_by_name_where_its_units_are_listed(
        tmp_path):
    # a vertex no edge touches is a cut unit, so k[0] = n - 1 parses and no
    # parse rule can refuse the document; listing 10**12 units runs out of
    # the 1 GiB cap, and the cut kind must name graph.n instead of
    # printing a MemoryError traceback
    done = _run_huge_graph(tmp_path, "solve", "mincut", 0, [10**12 - 1, 1])
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: graph.n: "), done.stderr
    assert "Traceback" not in done.stderr


def test_oracle_refuses_a_huge_vertex_count_without_listing_the_vertices(
        tmp_path):
    # k_T = 1 leaves the tree trivial, so the document parses; the game's
    # size check must read k[0] before it lists 10**12 vertices
    done = _run_huge_graph(tmp_path, "oracle", "steinertree", None,
                           [10**12, 1])
    assert done.returncode == 4 and done.stdout == ""
    assert done.stderr.startswith("too large for exhaustive search: "), \
        done.stderr


def test_graph_field_rules(tmp_path, capsys):
    tree = {"problem": "steinertree",
            "schedule": {"T": 1, "k": [3, 2], "lambda": ["1", "2"]},
            "graph": {"n": 3, "edges": [[0, 1, "1"], [1, 2, "1"]]}}
    assert run(capsys, "solve", write_doc(tmp_path, tree))[0] == 0
    rooted = json.loads(json.dumps(tree))
    rooted["graph"]["root"] = 0
    rc, _, err = run(capsys, "solve", write_doc(tmp_path, rooted))
    assert rc == 2 and "takes no root" in err
    unrooted = {"problem": "mincut",
                "schedule": {"T": 1, "k": [2, 1], "lambda": ["1", "2"]},
                "graph": {"n": 3, "edges": [[0, 1, "1"], [1, 2, "1"]]}}
    rc, _, err = run(capsys, "solve", write_doc(tmp_path, unrooted))
    assert rc == 2 and "graph.root" in err
    pairless = {"problem": "steinerforest",
                "schedule": {"T": 1, "k": [1, 1], "lambda": ["1", "2"]},
                "graph": {"n": 3, "edges": [[0, 1, "1"], [1, 2, "1"]]}}
    rc, _, err = run(capsys, "solve", write_doc(tmp_path, pairless))
    assert rc == 2 and "at least one pair" in err


def test_missing_file(capsys):
    rc, _, err = run(capsys, "solve", "/nonexistent/path.json")
    assert rc == 2 and "cannot read input" in err


def test_unreadable_documents_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"problem": ')
    rc, out, err = run(capsys, "solve", str(bad))
    assert rc == 2 and out == ""
    assert err.startswith(f"bad instance: {bad}: invalid JSON")
    rc, out, err = run(capsys, "solve", write_doc(tmp_path, [SC_HAND]))
    assert rc == 2 and out == ""
    assert "bad instance: $: instance document must be an object" in err
    # a Latin-1 file, a document nested 200,000 lists deep and an integer
    # literal of 5,000 digits fail in the JSON reader, not in a traceback
    latin = tmp_path / "latin.json"
    latin.write_bytes(json.dumps(dict(SC_HAND, note="caf\u00e9"),
                                 ensure_ascii=False).encode("latin-1"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    long_int = tmp_path / "long_int.json"
    long_int.write_text(json.dumps(SC_HAND).replace('"1"', "1" * 5000, 1))
    for path, reason in ((latin, "'utf-8' codec can't decode byte 0xe9"),
                         (deep, "maximum recursion depth exceeded"),
                         (long_int, "Exceeds the limit (4300 digits)")):
        rc, out, err = run(capsys, "solve", str(path))
        assert rc == 2 and out == ""
        assert err.startswith(f"bad instance: {path}: invalid JSON: {reason}")
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["generate", "--kind", "setcover", "--n", "300", "--actions", "900"],
    ["solve", "{doc}"],
])
def test_closed_stdout_exits_141(tmp_path, argv):
    # a reader that has gone is not bad input: the large document fails
    # mid-write, the one-line report only at the final flush, and neither
    # prints a word or a traceback
    argv = [arg.format(doc=write_doc(tmp_path, SC_HAND)) for arg in argv]
    read, write = os.pipe()
    os.close(read)
    try:
        done = _run_cli(argv, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, "")


@pytest.mark.parametrize("kind,root", [("steinertree", None), ("mincut", 0)])
def test_pairs_are_refused_outside_the_forest(tmp_path, capsys, kind, root):
    graph = {"n": 3, "edges": [[0, 1, "1"], [1, 2, "1"]], "pairs": [[0, 2]]}
    if root is not None:
        graph["root"] = root
    doc = {"problem": kind,
           "schedule": {"T": 1, "k": [3 if root is None else 2, 2],
                        "lambda": ["1", "2"]},
           "graph": graph}
    rc, _, err = run(capsys, "solve", write_doc(tmp_path, doc))
    assert rc == 2
    assert f"bad instance: graph.pairs: {kind} takes no pairs" in err


def test_tree_with_an_isolated_vertex_is_refused(tmp_path, capsys):
    # vertex 3 touches no edge and k_T = 2 lets the adversary keep it alive
    # beside another vertex, so no tree serves the document
    doc = {"problem": "steinertree",
           "schedule": {"T": 1, "k": [4, 2], "lambda": ["1", "2"]},
           "graph": {"n": 4, "edges": [[0, 1, "1"], [1, 2, "1"]]}}
    rc, out, err = run(capsys, "solve", write_doc(tmp_path, doc))
    assert rc == 2 and out == ""
    assert err.startswith("bad instance: graph.n: vertex 3 touches no edge")
    assert "k_T = 2 >= 2" in err


DISCONNECTED = {
    # pair 2 (1-based) joins the two components; pair 1 lies 100 apart
    "steinerforest": ({"n": 6, "edges": [[0, 1, "100"], [1, 2, "5"],
                                         [3, 4, "2"], [4, 5, "1"]],
                       "pairs": [[0, 1], [2, 4], [1, 3]]}, [3, 2],
                      "error: pair 2 cannot be connected\n"),
    "steinertree": ({"n": 4, "edges": [[0, 1, "1"], [2, 3, "1"]]}, [4, 2],
                    "error: vertices 0 and 2 are not connected\n"),
}


@pytest.mark.parametrize("kind", DISCONNECTED)
@pytest.mark.parametrize("argv", [["solve"], ["evaluate"], ["compare"],
                                  ["solve", "--preprocess", "cost-scaling"]])
def test_disconnected_graphs_are_refused_by_name(tmp_path, capsys, kind,
                                                 argv):
    # a forest solve fails in its first plan, never pricing the all-units
    # forest that compare's bounds fail in: the same exit code and text
    graph, k, message = DISCONNECTED[kind]
    doc = {"problem": kind,
           "schedule": {"T": 1, "k": k, "lambda": ["1", "2"]}, "graph": graph}
    path = write_doc(tmp_path, doc)
    assert run(capsys, argv[0], path, *argv[1:]) == (2, "", message)


def test_disconnected_cut_is_solved(tmp_path, capsys):
    # vertices 2 and 3 never reach the root: their cuts cost nothing
    doc = {"problem": "mincut",
           "schedule": {"T": 1, "k": [3, 2], "lambda": ["1", "2"]},
           "graph": {"n": 4, "root": 0,
                     "edges": [[0, 1, "1"], [2, 3, "3"]]}}
    path = write_doc(tmp_path, doc)
    rc, out, err = run(capsys, "solve", path)
    assert (rc, err) == (0, "") and json.loads(out) == {
        "robcov": "1", "day0_cost": "0", "jstar": 0, "tau": "50/3",
        "guess": "1", "net": [], "day0_purchase": [], "conservative": True,
        "witness": [1]}
    rc, out, err = run(capsys, "compare", path)
    assert (rc, err) == (0, "") and json.loads(out) == {
        "opt": "1", "algo": "1", "ratio": "1", "exhaustive_algo": "1",
        "bounds": {"lb": "1", "ub": "1"}}


def test_compare_trivial_instance(tmp_path, capsys):
    doc = dict(SC_HAND, schedule={"T": 1, "k": [2, 0], "lambda": ["1", "2"]})
    rc, out, err = run(capsys, "compare", write_doc(tmp_path, doc))
    assert rc == 0 and err == ""
    assert json.loads(out) == {"opt": "0", "algo": "0", "ratio": "n/a",
                               "exhaustive_algo": "0",
                               "bounds": {"lb": "0", "ub": "0"}}


@pytest.mark.parametrize("batch", [False, True])
def test_compare_chain_violation_exits_5(allstages, capsys, monkeypatch,
                                         batch):
    # an oracle value above the exhaustive worst case breaks the chain
    # lb <= opt <= exhaustive <= algo; the document is still written
    from krobust import cli

    monkeypatch.setattr(cli, "minimax_opt",
                        lambda inst, limits, with_trace=True:
                        (Fraction(10**6), None))
    argv = (["compare", "--batch", "2", "--kind", "setcover", "--n", "3",
             "--actions", "4"] if batch else ["compare", allstages])
    rc, out, err = run(capsys, *argv)
    assert rc == 5
    assert [json.loads(line)["opt"] for line in out.splitlines()] == \
        ["1000000"]
    prefix = "instance 0: " if batch else ""
    assert err.startswith(prefix + "invariant chain violated: lb=")
    assert "opt=1000000 " in err


@pytest.mark.parametrize("argv,message", [
    (["solve", "{path}", "--guess", "abc"],
     "argument --guess: not an exact rational: 'abc'"),
    (["oracle", "{path}", "--limits", "1,2"],
     "argument --limits: expected max_units,max_actions,max_horizon, "
     "got '1,2'"),
    (["oracle", "{path}", "--inactive-days", "x"],
     "argument --inactive-days: expected day,day,..., got 'x'"),
    (["oracle", "{path}", "--limits", "8,-5,3"],
     "argument --limits: must be >= 0, got '-5'"),
    (["oracle", "{path}", "--limits=-1,12,3"],
     "argument --limits: must be >= 0, got '-1'"),
])
def test_flag_type_errors_exit_2(allstages, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:   # argparse rejects the value
        main([arg.format(path=allstages) for arg in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("days", ["9", "-1", "0,3"])
def test_oracle_rejects_out_of_range_inactive_days(allstages, capsys, days):
    rc, out, err = run(capsys, "oracle", allstages, "--inactive-days", days)
    assert rc == 2 and out == ""
    assert "--inactive-days" in err


def test_invariant_violation_exits_5(allstages, capsys, monkeypatch):
    from krobust import setcover
    from krobust.errors import InvariantViolation

    def broken(*args):
        raise InvariantViolation("residual exceeds its bound")

    monkeypatch.setattr(setcover, "solve", broken)
    rc, out, err = run(capsys, "solve", allstages)
    assert rc == 5 and out == ""
    assert "invariant violation: residual exceeds its bound" in err


MUTANT_VALUES = (None, True, "1/0", "nan", 1.5, [], {}, -1, "x")


def _slots(doc, path=""):
    """Every (container, key, document path of the key) below doc, depth
    first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        sub = (f"{path}[{key}]" if isinstance(doc, list)
               else f"{path}.{key}" if path else key)
        yield doc, key, sub
        if isinstance(value, (dict, list)):
            yield from _slots(value, sub)


def _mutants(doc, rng, count):
    """count copies of doc, each with one field dropped or replaced, with
    that field's path and its new value (None when it was dropped)."""
    for _ in range(count):
        mutant = json.loads(json.dumps(doc))
        parent, key, path = rng.choice(list(_slots(mutant)))
        if rng.random() < 0.2:
            del parent[key]
            value = None
        else:
            value = parent[key] = rng.choice(MUTANT_VALUES)
        yield mutant, path, value


def _on_path(a, b):
    """Whether document path a is b, or one of them lies inside the other."""
    short, long = sorted((a, b), key=len)
    return long == short or long.startswith((short + ".", short + "["))


@pytest.mark.parametrize("kind", PROBLEM_KINDS + (SUBSET,))
def test_mutated_documents_exit_cleanly(tmp_path, capsys, kind):
    # seeded fuzzing of the document schema: whatever a field holds, the
    # CLI answers with an exit code and a message, never a traceback.  The
    # thrifty solvers refuse every well-formed subset document with a
    # command error (test_solve_rejects_subset_uncertainty), so subset
    # documents go to the oracle alone, which parses them the same way
    rng = random.Random(kind)
    if kind == SUBSET:
        bases = [serialize_instance(gen_subset_krobust_bad(T, lam))
                 for T, lam in ((1, 2), (2, 2), (1, 3))]
        commands = ("oracle",)
    else:
        bases = [serialize_instance(gen_random(kind, 4, 6, 2, seed))
                 for seed in range(3)]
        commands = ("solve", "oracle")
    # A bad instance names the mutated field, a field inside it or one
    # that holds it; a float literal is refused as it is read, naming the
    # file.
    codes = set()
    for doc in bases:
        for mutant, field, value in _mutants(doc, rng, 25):
            path = write_doc(tmp_path, mutant)
            for command in commands:
                rc, _, err = run(capsys, command, path)
                assert rc in (0, 2, 3, 4), (command, mutant, err)
                if rc == 2:
                    assert err.startswith("bad instance: "), err
                    named = err[len("bad instance: "):].split(": ")[0]
                    if isinstance(value, float):
                        assert named == path, err
                    else:
                        assert _on_path(named, field), (field, err)
                codes.add(rc)
    assert 2 in codes
