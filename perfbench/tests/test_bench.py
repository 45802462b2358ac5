"""The benchmark's own tests: every checker rejects a wrong answer, and the
inputs are a function of the seed.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import copy
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import checks
import hostspeed
import inputs
import run
import spans
from khovanov import cli

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.fixture(scope="module")
def corpus():
    with open(cli.default_corpus_path()) as f:
        return {entry["name"]: entry for entry in json.load(f)}


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, json.loads(buf.getvalue())


R2_UNKNOT = ("X[2,3,3,4] X[1,1,2,4]", "R2", "1", "0")


def test_homology_checker_accepts_and_rejects_one_changed_rank(corpus):
    pd = corpus["trefoil"]["pd"]
    rc, payload = run_cli("--format", "json", "homology", pd, "--check-euler")
    expected = corpus["trefoil"]["homology"]
    assert checks.check_homology(rc, payload, expected) is None
    wrong = copy.deepcopy(payload)
    wrong["homology"][0]["rank"] += 1
    assert "table differs" in checks.check_homology(rc, wrong, expected)
    torsion = copy.deepcopy(payload)
    torsion["homology"][0]["torsion"] = [2]
    assert checks.check_homology(rc, torsion, expected) is not None
    for flag in ("euler_matches_jones", "d_squared_zero"):
        broken = dict(payload, **{flag: False})
        assert flag in checks.check_homology(rc, broken, expected)
    assert checks.check_homology(1, payload, expected) is not None


def test_jones_checker_rejects_one_changed_coefficient(corpus):
    expected = corpus["figure_eight"]["jones"]
    assert checks.check_jones(dict(expected), expected) is None
    exp = sorted(expected, key=int)[0]
    wrong = dict(expected, **{exp: expected[exp] + 1})
    assert f"q^{exp}" in checks.check_jones(wrong, expected)
    assert checks.check_jones(dict(expected, **{"99": 1}), expected) is not None


def test_move_checker_rejects_one_failing_check():
    rc, report = run_cli("--format", "json", "verify-move", *R2_UNKNOT)
    assert checks.check_move("verify", rc, report) is None
    wrong = copy.deepcopy(report)
    wrong["checks"][3]["pass"] = False
    assert checks.check_move("verify", rc, wrong) is not None
    # a report that passes but skipped a core check is not accepted either
    short = dict(report, checks=[c for c in report["checks"]
                                 if c["name"] != "decomposition"])
    assert "decomposition" in checks.check_move("verify", rc, short)
    assert checks.check_move("verify", 1, report) is not None


def test_search_checker_needs_default_to_pass():
    rc, report = run_cli("--format", "json", "verify-move", *R2_UNKNOT,
                         "--search")
    assert checks.check_move("search", rc, report) is None
    wrong = copy.deepcopy(report)
    wrong["convention_search"]["default_passes"] = False
    assert checks.check_move("search", rc, wrong) is not None
    none = copy.deepcopy(report)
    none["convention_search"]["candidates_passing"] = 0
    assert checks.check_move("search", rc, none) is not None


def test_wrong_pq_checker_rejects_a_passing_run():
    rc, report = run_cli("--format", "json", "--convention", "wrong-pq",
                         "verify-move", *R2_UNKNOT)
    assert checks.check_move("reject", rc, report) is None
    # the same patch under the default convention passes, which a wrong-pq
    # op must not
    rc_ok, passing = run_cli("--format", "json", "verify-move", *R2_UNKNOT)
    assert "passed" in checks.check_move("reject", 1, passing)
    assert checks.check_move("reject", rc_ok, passing) is not None
    silent = copy.deepcopy(report)
    for c in silent["checks"]:
        c.pop("first_violation", None)
    assert checks.check_move("reject", rc, silent) is not None


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_seed_fixes_the_inputs(workload, corpus):
    first = inputs.make_round(workload, 7, corpus)
    assert first == inputs.make_round(workload, 7, corpus)
    assert first != inputs.make_round(workload, 8, corpus)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_round_make_up(workload, corpus):
    ops = inputs.make_round(workload, 3, corpus)
    sizes = sorted(op.pd.count("X[") for op in ops)
    if workload == "homology":
        assert sizes == [6] * 2 + [7] * 8
        assert all(op.base in inputs.BASES for op in ops)
    elif workload == "jones":
        assert sizes == [14] * 4 + [15] * 4 + [16] * 4
    else:
        kinds = sorted(op.kind for op in ops)
        assert kinds == ["reject"] * 2 + ["search"] * 2 + ["verify"] * 11


def test_names_match_benchmark_json():
    with open(BENCHMARK_JSON) as f:
        declared = json.load(f)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == \
        list(spans.PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == \
        list(run.WORKLOADS) == list(inputs.WORKLOADS)


def test_host_scale_is_inverse_to_the_reference_time():
    assert hostspeed.scale([hostspeed.REFERENCE_S]) == 1.0
    assert hostspeed.scale([2 * hostspeed.REFERENCE_S]) == 0.5
    assert hostspeed.sample(1) > 0
