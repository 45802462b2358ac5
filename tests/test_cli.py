import gc
import json
import types
from collections import Counter
from pathlib import Path

import pytest

from khovanov import parse_pd
from khovanov.cli import CONVENTIONS, default_corpus_path, main
from khovanov.diagram import MovePatch, apply_move

from helpers import grow, held as _held, random_diagrams


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


TREFOIL = "X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]"


class TestJones:
    def test_unknot(self, capsys):
        rc, out, _ = run(capsys, "jones", "O")
        assert rc == 0
        assert "q + q^-1" in out
        assert "equal: true" in out

    def test_trefoil_json(self, capsys):
        rc, out, _ = run(capsys, "--format", "json", "jones", TREFOIL)
        assert rc == 0
        payload = json.loads(out)
        assert payload["equal"] is True
        assert payload["text"] == "-q^9 + q^5 + q^3 + q"
        assert payload["kauffman"] == {"9": -1, "5": 1, "3": 1, "1": 1}

    def test_parse_error_exit_2(self, capsys):
        rc, _, err = run(capsys, "jones", "X[1,2,3,4")
        assert rc == 2
        assert "error" in err

    def test_unreadable_pd_file_exit_2(self, capsys, tmp_path):
        rc, out, err = run(capsys, "jones", f"@{tmp_path}")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_non_utf8_pd_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "pd.txt"
        path.write_bytes(b"\xff\xfe")
        rc, out, err = run(capsys, "jones", f"@{path}")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "not UTF-8" in err

    @pytest.mark.parametrize("command", ["jones", "homology"])
    @pytest.mark.parametrize("pd", [
        "X[1,2,1,2]",
        "X[1,2,3,2] X[3,4,1,4]",
        "X[1,5,2,5] X[2,4,3,3] X[4,1,6,6]",
    ])
    def test_non_planar_pd_exit_2(self, capsys, command, pd):
        rc, out, err = run(capsys, command, pd)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: PD code is not planar")

    def test_deterministic_output(self, capsys):
        _, a, _ = run(capsys, "--format", "json", "jones", TREFOIL)
        _, b, _ = run(capsys, "--format", "json", "jones", TREFOIL)
        assert a == b

    def test_max_crossings_guard(self, capsys):
        rc, _, err = run(capsys, "--max-crossings", "2", "jones", TREFOIL)
        assert rc == 2 and "guard" in err

    @pytest.mark.parametrize("value,message", [
        ("-1", "must be a non-negative crossing count, not -1"),
        ("-16", "must be a non-negative crossing count, not -16"),
        ("x", "invalid int value: 'x'"),
    ])
    def test_max_crossings_rejected_at_parse_time(self, capsys, value,
                                                  message):
        # a guard that no diagram could meet is an argument error, named
        # as such, before any command runs (not "0 crossings exceeds the
        # guard of -1" from the command)
        with pytest.raises(SystemExit) as exc:
            main(["--max-crossings", value, "homology", "O"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.endswith(
            f"error: argument --max-crossings: {message}\n"), err

    def test_max_crossings_zero_is_a_guard(self, capsys):
        rc, out, _ = run(capsys, "--max-crossings", "0", "homology", "O")
        assert rc == 0 and "Z^1" in out
        rc, _, err = run(capsys, "--max-crossings", "0", "jones", "X[1,1,2,2]")
        assert rc == 2 and "1 crossings exceeds the guard of 0" in err


class TestHomology:
    def test_unknot(self, capsys):
        rc, out, _ = run(capsys, "--format", "json", "homology", "O")
        assert rc == 0
        payload = json.loads(out)
        assert payload["homology"] == [
            {"i": 0, "j": -1, "rank": 1, "torsion": []},
            {"i": 0, "j": 1, "rank": 1, "torsion": []},
        ]

    def test_trefoil_torsion_and_euler(self, capsys):
        rc, out, _ = run(capsys, "--format", "json", "homology", TREFOIL,
                         "--check-euler")
        assert rc == 0
        payload = json.loads(out)
        assert {"i": 3, "j": 7, "rank": 0, "torsion": [2]} in payload["homology"]
        assert payload["euler_matches_jones"] is True
        assert payload["d_squared_zero"] is True


class TestVerifyMove:
    def test_r2_unknot(self, capsys):
        rc, out, _ = run(capsys, "--format", "json", "verify-move",
                         "X[2,3,3,4] X[1,1,2,4]", "R2", "1", "0")
        assert rc == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        names = {c["name"] for c in payload["checks"]}
        assert {"rho_in_identity", "homotopy_identity",
                "composite_chain_map", "homology_invariance"} <= names

    def test_r3_triangle(self, capsys):
        rc, out, _ = run(capsys, "verify-move",
                         "X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]", "R3",
                         "0", "1", "2")
        assert rc == 0

    def test_r1_homology_only(self, capsys):
        rc, out, _ = run(capsys, "--format", "json", "verify-move",
                         "X[1,1,2,2]", "R1", "0")
        assert rc == 0
        payload = json.loads(out)
        assert [c["name"] for c in payload["checks"]] == ["homology_invariance"]

    @pytest.mark.parametrize("pd,kind,ids", [
        pytest.param("X[1,1,2,2]", "R1", ["0"], id="R1"),
        pytest.param("X[2,3,3,4] X[1,1,2,4]", "R2", ["1", "0"], id="R2"),
        pytest.param("X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]", "R3",
                     ["0", "1", "2"], id="R3"),
    ])
    def test_invariance_failure_names_first_violation(self, capsys,
                                                      monkeypatch, pd, kind,
                                                      ids):
        # every kind reads both tables from the tangle engine; a class
        # added to the moved diagram's table fails the check, and the
        # report names it
        from khovanov import cli

        engine = cli.tangle_homology
        calls = []

        def skewed(diagram, *args, **kwargs):
            table, violations = engine(diagram, *args, **kwargs)
            calls.append(diagram)
            if len(calls) == 2:
                table = type(table)({**table, (9, 99): (1, ())})
            return table, violations

        monkeypatch.setattr(cli, "tangle_homology", skewed)
        rc, out, _ = run(capsys, "--format", "json", "verify-move", pd, kind,
                         *ids)
        assert rc == 1 and len(calls) == 2
        payload = json.loads(out)
        assert payload["pass"] is False
        [check] = [c for c in payload["checks"]
                   if c["name"] == "homology_invariance"]
        assert check == {"name": "homology_invariance", "pass": False,
                         "first_violation": {"i": 9, "j": 99,
                                             "left": [0, []],
                                             "right": [1, []]}}
        assert all(c["pass"] for c in payload["checks"] if c is not check)

    @pytest.mark.parametrize("pd,kind,ids", [
        pytest.param(TREFOIL, "R2", ["0", "1"], id="R2-not-a-bigon"),
        pytest.param("X[1,1,2,2]", "R1", ["5"], id="R1-id-past-end"),
        pytest.param("X[1,1,2,2]", "R1", ["-1"], id="R1-id-negative"),
    ])
    def test_patch_mismatch_exit_3(self, capsys, pd, kind, ids):
        rc, out, err = run(capsys, "verify-move", pd, kind, *ids)
        assert rc == 3
        assert out == ""
        assert "patch mismatch" in err

    @pytest.mark.parametrize("kind,ids", [
        ("R2", ["1"]), ("R2", ["1", "0", "0"]), ("R1", ["0", "1"]),
        ("R3", ["0", "1"]),
    ])
    def test_wrong_crossing_count_exit_2(self, capsys, kind, ids):
        rc, out, err = run(capsys, "verify-move", "X[2,3,3,4] X[1,1,2,4]",
                           kind, *ids)
        assert rc == 2
        assert out == ""
        assert f"{kind} takes" in err and f"got {len(ids)}" in err

    def test_search_with_r1_exit_2(self, capsys):
        rc, out, err = run(capsys, "verify-move", "X[1,1,2,2]", "R1", "0",
                           "--search")
        assert rc == 2
        assert out == ""
        assert "R2/R3" in err

    @pytest.mark.parametrize("pd,kind,ids", [
        pytest.param("X[8,6,9,5] X[10,8,1,7] X[6,10,7,9] X[2,3,3,4] "
                     "X[1,5,2,4]", "R2", ["4", "3"], id="R2"),
        pytest.param("X[6,2,7,1] X[8,6,1,5] X[4,8,5,7] X[2,4,3,3]", "R1",
                     ["3"], id="R1"),
    ])
    def test_max_crossings_guard(self, capsys, monkeypatch, pd, kind, ids):
        builds = _count_calls(monkeypatch, "khovanov.complexes",
                              "build_complex")
        rc, out, err = run(capsys, "--max-crossings", "2", "verify-move", pd,
                           kind, *ids)
        assert rc == 2
        assert out == "" and builds == []
        n = len(pd.split())
        assert err == (f"error: {n} crossings exceeds the guard of 2; "
                       "raise max_crossings explicitly to proceed\n")
        rc, _, _ = run(capsys, "--max-crossings", str(n), "verify-move", pd,
                       kind, *ids)
        assert rc == 0

    @pytest.mark.parametrize("pd,kind,args", [
        pytest.param("X[1,1,2,2]", "R1", ["0"], id="R1"),
        pytest.param("X[2,3,3,4] X[1,1,2,4]", "R2", ["1", "0", "--search"],
                     id="R2"),
        pytest.param("X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]", "R3",
                     ["0", "1", "2", "--search"], id="R3"),
    ])
    def test_builds_take_the_callers_guard(self, capsys, monkeypatch, pd,
                                           kind, args):
        # every kind compares two tables of the tangle engine; R2 and R3
        # also build two whole complexes, which the search's "after" rule
        # reads through their twins (complexes.after_twin), built by no call
        tables = _count_calls(monkeypatch, "khovanov.tangles",
                              "tangle_homology", argument="max_crossings")
        builds = _count_calls(monkeypatch, "khovanov.complexes",
                              "build_complex", argument="max_crossings")
        rc, _, _ = run(capsys, "--max-crossings", "5", "verify-move", pd,
                       kind, *args)
        assert rc == 0
        assert tables == [5] * 2
        assert builds == [5] * (0 if kind == "R1" else 2)

    def test_wrong_convention_fails_exit_1(self, capsys):
        rc, out, _ = run(capsys, "--convention", "wrong-pq", "verify-move",
                         "X[2,3,3,4] X[1,1,2,4]", "R2", "1", "0")
        assert rc == 1


class TestCorpus:
    def test_shipped_corpus_passes(self, capsys):
        rc, out, _ = run(capsys, "corpus")
        assert rc == 0
        assert "corpus: pass" in out

    def test_wrong_expected_value_fails_only_that_entry(self, capsys, tmp_path):
        manifest = [
            {"name": "good", "pd": "O", "jones": {"1": 1, "-1": 1}},
            {"name": "bad", "pd": "O", "jones": {"5": 1}},
        ]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        rc, out, _ = run(capsys, "--format", "json", "corpus", str(path))
        assert rc == 1
        payload = json.loads(out)
        results = {r["name"]: r["pass"] for r in payload["results"]}
        assert results == {"good": True, "bad": False}

    def test_empty_manifest(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        rc, out, _ = run(capsys, "corpus", str(path))
        assert rc == 0

    @pytest.mark.parametrize("move,message", [
        ({"kind": "R2", "patch": [1], "partner": "u"}, "R2 patch takes 2"),
        ({"kind": "R4", "patch": [1, 0], "partner": "u"}, "bad move kind 'R4'"),
        ({"kind": "R2", "patch": [1, 0]}, "no partner"),
    ])
    def test_malformed_move_exit_2(self, capsys, tmp_path, move, message):
        manifest = [{"name": "u", "pd": "X[2,3,3,4] X[1,1,2,4]",
                     "moves": [move]}]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        rc, out, err = run(capsys, "corpus", str(path))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: u: ") and message in err

    @pytest.mark.parametrize("manifest,message", [
        pytest.param([{"name": "x"}], "x: 'pd' must be a string",
                     id="no-pd"),
        pytest.param({"a": 1}, "a manifest must be a JSON array",
                     id="top-level-object"),
        pytest.param([1], "a manifest row must be an object, got 1",
                     id="row-not-object"),
        pytest.param([{"name": "x", "pd": 5}],
                     "x: 'pd' must be a string, got 5", id="pd-not-string"),
        pytest.param([{"name": "x", "pd": "O", "moves": 5}],
                     "x: 'moves' must be an array", id="moves-not-array"),
        pytest.param([{"name": "x", "pd": "O", "jones": [1]}],
                     "x: 'jones' must be an object", id="jones-not-object"),
        pytest.param([{"name": "x", "pd": "O", "homology": {}}],
                     "x: 'homology' must be an array",
                     id="homology-not-array"),
        pytest.param([{"pd": "O"}], "a manifest row needs a string 'name'",
                     id="no-name"),
        pytest.param([{"name": "x", "pd": "O", "jones": {"a": 1}}],
                     "x: bad 'jones' contents (ValueError",
                     id="jones-bad-exponent"),
        *(pytest.param([{"name": "x", "pd": "O", "jones": {key: 1}}],
                       f"x: bad 'jones' contents (ValueError: exponent "
                       f"{key!r} is not a canonical integer)",
                       id=f"jones-exponent-{name}")
          for key, name in (("1_0", "underscore"), ("+1", "plus"),
                            (" 1", "space"), ("-0", "minus-zero"),
                            ("01", "leading-zero"))),
        pytest.param([{"name": "x", "pd": "O", "homology": [1]}],
                     "x: bad 'homology' contents (TypeError",
                     id="homology-row-not-object"),
        pytest.param([{"name": "x", "pd": "O", "homology": [{"i": 0}]}],
                     "x: bad 'homology' contents (KeyError: 'rank')",
                     id="homology-row-no-rank"),
        pytest.param([{"name": "x", "pd": "O",
                       "jones": {"1": 1.9, "-1": 1.2}}],
                     "x: bad 'jones' contents (TypeError: coefficient 1.9 "
                     "is not an integer)", id="jones-float-coefficient"),
        pytest.param([{"name": "x", "pd": "O",
                       "jones": {"1": True, "-1": 1}}],
                     "x: bad 'jones' contents (TypeError: coefficient True "
                     "is not an integer)", id="jones-bool-coefficient"),
        pytest.param([{"name": "x", "pd": "O",
                       "homology": [{"i": 0, "j": -1, "rank": 1.5}]}],
                     "x: bad 'homology' contents (TypeError: 1.5 is not an "
                     "integer)", id="homology-float-rank"),
        pytest.param([{"name": "x", "pd": "O",
                       "homology": [{"i": 0, "j": -1, "rank": True}]}],
                     "x: bad 'homology' contents (TypeError: True is not an "
                     "integer)", id="homology-bool-rank"),
        pytest.param([{"name": "x", "pd": "O",
                       "homology": [{"i": 0.0, "j": -1, "rank": 1}]}],
                     "x: bad 'homology' contents (TypeError: 0.0 is not an "
                     "integer)", id="homology-float-degree"),
        pytest.param([{"name": "x", "pd": "O",
                       "homology": [{"i": 0, "j": -1, "rank": 0,
                                     "torsion": [2.0]}]}],
                     "x: bad 'homology' contents (TypeError: 2.0 is not an "
                     "integer)", id="homology-float-torsion"),
        pytest.param([{"name": "x", "pd": "O",
                       "homology": [{"i": 0, "j": -1, "rank": 0,
                                     "torsion": "2"}]}],
                     "x: bad 'homology' contents (TypeError: torsion '2' is "
                     "not an array)", id="homology-torsion-not-array"),
        pytest.param([{"name": "x", "pd": "O"},
                      {"name": "x", "pd": "X[1,1,2,2]"}],
                     "x: name given to more than one manifest row",
                     id="duplicate-name"),
    ])
    def test_malformed_manifest_exit_2(self, capsys, tmp_path, manifest,
                                       message):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        rc, out, err = run(capsys, "corpus", str(path))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_non_utf8_manifest_exit_2(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b"\xff\xfe")
        rc, out, err = run(capsys, "corpus", str(path))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "not UTF-8" in err

    @pytest.mark.parametrize("text", ["", '[{"name": "u", "pd": "O"'],
                             ids=["empty", "truncated-array"])
    def test_not_json_manifest_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        rc, out, err = run(capsys, "corpus", str(path))
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: {path}: not JSON (")

    def test_unreadable_manifest_exit_2(self, capsys, tmp_path):
        rc, out, err = run(capsys, "corpus", str(tmp_path))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and str(tmp_path) in err


class TestParser:
    def test_built_once_across_calls(self, capsys):
        # main reuses one parser; no option of a call leaks into the next
        from khovanov import cli

        cli.build_parser.cache_clear()
        rc1, euler, _ = run(capsys, "--format", "json", "homology", TREFOIL,
                            "--check-euler")
        rc2, jones, _ = run(capsys, "jones", TREFOIL)
        rc3, plain, _ = run(capsys, "--format", "json", "homology", TREFOIL)
        assert rc1 == rc2 == rc3 == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert sorted(json.loads(euler)) == [
            "d_squared_zero", "euler_matches_jones", "homology"]
        assert "equal: true" in jones
        assert sorted(json.loads(plain)) == ["homology"]


class TestConventionFlag:
    def test_search_flag(self, capsys):
        rc = main(["--format", "json", "verify-move",
                   "X[2,3,3,4] X[1,1,2,4]", "R2", "1", "0", "--search"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["convention_search"]["candidates_passing"] > 0
        assert out["convention_search"]["default_passes"] is True


def _count_calls(monkeypatch, module_name, attr, argument=None):
    """Replace every reference a ``khovanov`` module holds to the function
    ``attr`` of ``module_name`` by a wrapper; returns the list that records
    one entry per call: the first argument, or the value (default included)
    of the parameter named ``argument``."""
    import importlib
    import inspect
    import sys

    original = getattr(importlib.import_module(module_name), attr)
    signature = inspect.signature(original)
    calls = []

    def counting(*args, **kwargs):
        if argument is None:
            calls.append(args[0])
        else:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(bound.arguments[argument])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "khovanov"
                and getattr(module, attr, None) is original):
            monkeypatch.setattr(module, attr, counting)
    return calls


class TestBuildCount:
    """verify-move builds each complex once; the convention search builds
    no more and reads the "after" rule's complexes as their twins, resolves
    the patch once, resolves each sign transport once per marker state,
    builds each map once per value of the fields it reads, traces no circle
    outside the builds and composes a pinned number of products."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The diagram of every ``build_complex`` call."""
        return _count_calls(monkeypatch, "khovanov.complexes", "build_complex")

    @pytest.mark.parametrize("pd,kind,ids", [
        ("X[2,3,3,4] X[1,1,2,4]", "R2", ["1", "0"]),
        ("X[8,6,9,5] X[10,8,1,7] X[6,10,7,9] X[2,3,3,4] X[1,5,2,4]", "R2",
         ["4", "3"]),
        ("X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]", "R3", ["0", "1", "2"]),
    ])
    def test_verify_move_builds_each_complex_once(self, capsys, monkeypatch,
                                                  builds, pd, kind, ids):
        tables = _count_calls(monkeypatch, "khovanov.tangles",
                              "tangle_homology")
        rc, out, _ = run(capsys, "--format", "json", "verify-move", pd, kind,
                         *ids)
        assert rc == 0 and json.loads(out)["pass"] is True
        assert len(builds) == 2
        assert len({d.serialize() for d in builds}) == 2
        # the two tables are the diagram's and its target's, whose complex
        # is the second one built
        assert len(tables) == 2
        assert tables[0].serialize() == parse_pd(pd).serialize()
        assert tables[1] is builds[1]

    @pytest.mark.parametrize("pd,kind,ids", [
        ("X[2,3,3,4] X[1,1,2,4]", "R2", ["1", "0"]),
        ("X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]", "R3", ["0", "1", "2"]),
        ("X[1,2,2,1]", "R1", ["0"]),
    ])
    def test_invariance_tables_share_one_template_store(
            self, capsys, monkeypatch, pd, kind, ids):
        stores = _count_calls(monkeypatch, "khovanov.tangles",
                              "tangle_homology", argument="store")
        rc, _, _ = run(capsys, "--format", "json", "verify-move", pd, kind,
                       *ids)
        assert rc == 0
        assert len(stores) == 2 and stores[0] is stores[1]
        assert isinstance(stores[0], dict) and stores[0]

    @pytest.mark.parametrize("pd,kind,ids,passing", [
        ("X[2,3,3,4] X[1,1,2,4]", "R2", ["1", "0"], 8),
        ("X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]", "R3", ["0", "1", "2"], 4),
    ])
    def test_search_builds_once_per_ordering_rule(self, capsys, monkeypatch,
                                                  builds, pd, kind, ids,
                                                  passing):
        twins = _count_calls(monkeypatch, "khovanov.complexes", "after_twin")
        rc, out, _ = run(capsys, "--format", "json", "verify-move", pd, kind,
                         *ids, "--search")
        assert rc == 0
        search = json.loads(out)["convention_search"]
        assert search == {"candidates_passing": passing,
                          "default_passes": True}
        # two for verify-move, which the search reuses for the "before"
        # rule; the "after" rule reads their two twins, which are no builds
        assert len(builds) == 2
        assert [cx.diagram for cx in twins] == builds

    @pytest.mark.parametrize("pd,kind,ids", [
        ("X[2,3,3,4] X[1,1,2,4]", "R2", ["1", "0"]),
        ("X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]", "R3", ["0", "1", "2"]),
    ])
    def test_search_applies_the_move_once(self, capsys, monkeypatch, pd,
                                          kind, ids):
        moved = _count_calls(monkeypatch, "khovanov.diagram", "apply_move")
        rc, _, _ = run(capsys, "--format", "json", "verify-move", pd, kind,
                       *ids, "--search")
        assert rc == 0
        assert len(moved) == 1

    def test_corpus_reuses_partner_tables(self, capsys, builds, corpus,
                                          monkeypatch):
        # the tables come from the tangle engine, once per row and once per
        # R2/R3 move's target: the nine partner tables are the partner
        # rows' own, and each R2/R3 move reuses its row's table.  The only
        # whole complexes built are the two of each R2/R3 move's
        # equivalence
        tables = _count_calls(monkeypatch, "khovanov.tangles",
                              "tangle_homology")
        rc, out, _ = run(capsys, "--format", "json", "corpus")
        assert rc == 0 and json.loads(out)["pass"] is True
        moves = [m for e in corpus for m in e.get("moves", ())]
        assert (len(corpus), len(moves)) == (18, 9)
        r2_r3 = [(parse_pd(e["pd"]).n, m["kind"]) for e in corpus
                 for m in e.get("moves", ()) if m["kind"] in ("R2", "R3")]
        assert len(builds) == 2 * len(r2_r3) == 12
        # per move, its source (crossings reordered) and its target
        assert sorted(d.n for d in builds) == sorted(
            k for n, kind in r2_r3 for k in (n, n - 2 * (kind == "R2")))
        targets = builds[1::2]
        assert len(tables) == len(corpus) + len(targets) == 24
        assert all(any(d is t for d in tables) for t in targets)
        assert sorted(d.serialize() for d in tables
                      if all(d is not t for t in targets)) == \
            sorted(parse_pd(e["pd"]).serialize() for e in corpus)

    @pytest.mark.parametrize("argv", [
        ["homology", TREFOIL, "--check-euler"],
        ["homology", "X[1,5,2,4] X[2,5,3,6] X[3,1,4,6] O"],
        ["verify-move", "X[6,2,7,1] X[8,6,1,5] X[4,8,5,7] X[2,4,3,3]", "R1",
         "3"],
    ], ids=["homology-check-euler", "homology", "verify-move-R1"])
    def test_tables_build_no_whole_complex(self, capsys, builds, argv):
        rc, _, _ = run(capsys, "--format", "json", *argv)
        assert rc == 0
        assert builds == []

    @pytest.mark.parametrize("argv", [
        ["homology", TREFOIL, "--check-euler"],
        ["homology", "X[1,5,2,4] X[2,5,3,6] X[3,1,4,6] O O"],
        ["corpus"],
        ["verify-move", "X[6,2,7,1] X[8,6,1,5] X[4,8,5,7] X[2,4,3,3]", "R1",
         "3"],
        ["verify-move", "X[8,6,9,5] X[10,8,1,7] X[6,10,7,9] X[2,3,3,4] "
         "X[1,5,2,4]", "R2", "4", "3"],
        ["verify-move", "X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]", "R3", "0", "1",
         "2", "--search"],
    ], ids=["homology-check-euler", "homology-loops", "corpus",
            "verify-move-R1", "verify-move-R2", "verify-move-R3-search"])
    def test_snf_sees_only_unit_free_residues(self, capsys, monkeypatch,
                                              argv):
        # every differential that homology_groups receives is a tangle
        # residue, a GradedMap of shift (1, 0) where Gaussian elimination
        # has left no +-1 entry
        from khovanov.complexes import GradedMap

        residues = _count_calls(monkeypatch, "khovanov.homology",
                                "homology_groups")
        rc, _, _ = run(capsys, "--format", "json", *argv)
        if argv[0] == "homology":
            for d in random_diagrams(seed=62, count=10, max_crossings=7):
                rc |= run(capsys, "homology", d.serialize())[0]
        assert rc == 0
        assert residues
        for d in residues:
            assert isinstance(d, GradedMap) and d.shift == (1, 0)
            assert not [v for block in d.values()
                        for v in block.values() if v in (1, -1)]

    def test_no_tangle_container_grows_across_calls(self, capsys):
        from khovanov import tangles

        assert run(capsys, "homology", TREFOIL, "--check-euler")[0] == 0
        before = _held(tangles)
        for d in random_diagrams(seed=61, count=10, max_crossings=7):
            assert run(capsys, "homology", d.serialize(),
                       "--check-euler")[0] == 0
        assert run(capsys, "corpus")[0] == 0
        assert _held(tangles) == before

    def test_search_builds_each_map_once_per_field_values(
            self, capsys, builds, monkeypatch):
        # r3_triangle: the builds that verify-move and its search make
        # through the patch's memos, against the values of the fields each
        # map's builder reads; no builder reads the ordering rule.  Each
        # side's index reads none and is built once.  A candidate builds a
        # map only when a check it reaches reads it.  in and rho are built
        # for their 8 values each, and the 4 values of in with
        # partner_mid = -1 fail ("retained combination mixes bidegrees");
        # only candidates with active_mid = -1 pass rho_in_identity, so
        # in_D is built for 4 of its 8 values and rho_D for 4 of its 8, and
        # h for the 8 of its 32 values with partner_mid = +1 and
        # active_mid = -1.  The isomorphism and its inverse read no field:
        # each is built once, and isom_invertible is evaluated once.  The
        # verify-move report passes, so its decomposition check builds no
        # complement map (in_contr).  The 512 candidates are still 512
        # equivalences.
        from khovanov import moves

        built = []
        cached = moves._cached

        def recording(memo, key, build, *args):
            def counted(*args):
                built.append((memo, key[0]))
                return build(*args)

            return cached(memo, key, counted, *args)

        monkeypatch.setattr(moves, "_cached", recording)
        in_contr = moves.MoveEquivalence._in_contr
        monkeypatch.setattr(
            moves.MoveEquivalence, "_in_contr",
            lambda eq: built.append((None, "in_contr")) or in_contr(eq))
        candidates, equivalences = [], []

        class Counting(moves.MoveEquivalence):
            def __init__(self, *args, **kwargs):
                candidates.append(args[1])
                super().__init__(*args, **kwargs)
                equivalences.append(self)

        monkeypatch.setattr(moves, "MoveEquivalence", Counting)
        rc, out, _ = run(capsys, "--format", "json", "verify-move",
                         "X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]", "R3", "0", "1",
                         "2", "--search")
        assert rc == 0
        assert json.loads(out)["convention_search"]["candidates_passing"] == 4
        assert len(builds) == 2
        patch = equivalences[0].patch
        names = {"index": "index", "inclusion": "in", "retraction": "rho",
                 "homotopy": "h"}
        # the sides' memos also hold their transports, named as themselves
        made = Counter(names.get(name, name) if memo is patch.src.memo
                       else names.get(name, name) + "_D"
                       if memo is patch.tgt.memo
                       else name for memo, name in built)
        assert {name: made[name] for name in (
            "index", "in", "rho", "h", "index_D", "in_D", "rho_D", "isom",
            "isom_inv", "isom_invertible", "in_contr") if made[name]} == {
            "index": 1, "in": 8, "rho": 8, "h": 8,
            "index_D": 1, "in_D": 4, "rho_D": 4,
            "isom": 1, "isom_inv": 1, "isom_invertible": 1,
        }
        assert len(candidates) == 512

    def test_r2_search_builds_each_identity_once(self, capsys, monkeypatch):
        # r2_unknot: the R2 target is a whole complex, whose in_D and rho_D
        # are identities that read no sign field, so the report and the 512
        # candidates read one of each; its index is read off the cube's
        # runs and memoized nowhere
        from khovanov import moves

        built, patches = [], []
        cached = moves._cached

        def recording(memo, key, build, *args):
            return cached(memo, key, lambda *args: built.append((memo, key))
                          or build(*args), *args)

        monkeypatch.setattr(moves, "_cached", recording)
        init = moves._Patch.__init__
        monkeypatch.setattr(moves._Patch, "__init__", lambda patch, *args:
                            patches.append(patch) or init(patch, *args))
        rc, out, _ = run(capsys, "--format", "json", "verify-move",
                         "X[2,3,3,4] X[1,1,2,4]", "R2", "1", "0", "--search")
        assert rc == 0
        assert json.loads(out)["convention_search"]["candidates_passing"] == 8
        [patch] = patches
        assert isinstance(patch.tgt, moves._Whole)
        assert sorted(key for memo, key in built if memo is patch.tgt.memo) \
            == [("inclusion",), ("retraction",)]

    R3_TRIANGLE = ["X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]", "R3", "0", "1", "2"]

    @pytest.mark.parametrize("convention,argv,formed,total", [
        pytest.param("default", R3_TRIANGLE, {}, 14, id="report"),
        pytest.param("default", ["X[8,6,9,5] X[10,8,1,7] X[6,10,7,9] "
                                 "X[2,3,3,4] X[1,5,2,4]", "R2", "4", "3"],
                     {}, 14, id="report-R2"),
        pytest.param("default", R3_TRIANGLE + ["--search"], {"forward": 2},
                     112, id="search"),
        pytest.param("default", ["X[2,3,3,4] X[1,1,2,4]", "R2", "1", "0",
                                 "--search"], {}, 92, id="search-R2"),
        pytest.param("wrong-pq", ["X[1,3,2,4] X[2,3,1,6] X[4,6,5,5]", "R3",
                                  "0", "1", "2"],
                     {"forward": 1, "backward": 1, "d.in_contr": 1}, 24,
                     id="wrong-pq"),
    ])
    def test_compose_executions(self, capsys, monkeypatch, convention, argv,
                                formed, total):
        # The whole-cube products of the composite checks ("forward",
        # "backward") and of the decomposition's step 4 ("d.in_contr") are
        # formed only where a premise of theirs fails.  A passing report
        # forms none, nor those of the chain-map checks, which it reads off
        # their premises.  isom_invertible forms its two products,
        # isom_inv.isom and isom.isom_inv, once per call: isom reads no
        # sign field, so every candidate shares its verdict.  Under
        # --search, two of the r3_triangle candidates (cand-113 and
        # cand-369) pass rho_chain_map and isom_chain_map but fail
        # d'.in_D = in_D.d_R', so each forms "forward" once.  wrong-pq on
        # r3_link fails a premise of each of the three, and
        # homotopy_identity, so its chain-map checks form their products
        # too.  The homotopy identity sums d h, h d and in . rho block by
        # block, so it composes no product of d and h.  ``total`` pins
        # every product the call composes, so that a search which shares
        # fewer verdicts or products than it can (or shares a wrong one
        # and skips a product) shows here: the two ordering rules share
        # every map, so a check that reads no d has one verdict for both;
        # the R2 target's in_D and rho_D are one identity each; and d.in,
        # d_R, d'.in_D, d_R' and in.rho are composed once per value of the
        # fields their factors read, whichever candidate reads them.
        from khovanov.complexes import GradedMap

        names = []
        original = GradedMap.compose

        def recording(self, other, name=None):
            out = original(self, other, name)
            names.append(out.name)
            return out

        monkeypatch.setattr(GradedMap, "compose", recording)
        rc, _, _ = run(capsys, "--format", "json", "--convention", convention,
                       "verify-move", *argv)
        assert rc == (0 if convention == "default" else 1)
        counts = Counter(names)
        assert {name: counts[name] for name in
                ("forward", "backward", "d.in_contr") if counts[name]} \
            == formed
        assert counts["isom_inv.isom"] == counts["isom.isom_inv"] == 1
        assert len(names) == total

    @pytest.mark.parametrize("pd,kind,ids,resolved", [
        ("X[2,3,3,4] X[1,1,2,4]", "R2", ["1", "0"], 6),
        ("X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]", "R3", ["0", "1", "2"], 19),
    ])
    def test_search_resolves_each_transport_once_per_marker_state(
            self, capsys, monkeypatch, pd, kind, ids, resolved):
        # every transport of the report and its 512 candidates is resolved
        # once per marker state (with its flip or target markers) of the
        # side it leaves, for both ordering rules together.  A build asks
        # for a resolution once per run of generators (one marker state,
        # one tau) that needs it, not once per generator, and only for the
        # maps that a check some candidate reaches reads; the requests are
        # pinned
        from khovanov import moves

        transports = {"attach", "drop", "bijective", "cross", "saddle", "mid"}
        requested, resolutions = [], []
        cached = moves._cached

        def recording(memo, key, build, *args):
            if key[0] not in transports:
                return cached(memo, key, build, *args)
            requested.append((id(memo), key))

            def resolving(*args):
                resolutions.append((id(memo), key))
                return build(*args)

            return cached(memo, key, resolving, *args)

        monkeypatch.setattr(moves, "_cached", recording)
        rc, _, _ = run(capsys, "--format", "json", "verify-move", pd, kind,
                       *ids, "--search")
        assert rc == 0
        assert sorted(resolutions) == sorted(set(requested))
        assert len(resolutions) == resolved
        assert len(requested) == {"R2": 218, "R3": 311}[kind]

    def test_search_traces_circles_only_in_builds(self, capsys, builds,
                                                  monkeypatch):
        # r3_triangle: every circle the run reads comes from the tables its
        # two builds fill, and each build traces all its marker states in
        # one walk (complexes._trace_states), so ``trace_circles`` is never
        # called; each build's circles are still the per-state trace's
        from itertools import product

        from khovanov import moves
        from khovanov.states import trace_circles

        cubes, counted = [], moves.build_complex

        def keeping(*args, **kwargs):
            cubes.append(counted(*args, **kwargs))
            return cubes[-1]

        monkeypatch.setattr(moves, "build_complex", keeping)
        traced = _count_calls(monkeypatch, "khovanov.states", "trace_circles")
        rc, _, _ = run(capsys, "--format", "json", "verify-move",
                       "X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]", "R3", "0", "1",
                       "2", "--search")
        assert rc == 0
        assert len(builds) == len(cubes) == 2
        assert traced == []
        for cx in cubes:
            assert cx.circles == {
                m: trace_circles(cx.diagram, m)
                for m in product((1, -1), repeat=cx.diagram.n)}


GOLDEN = Path(__file__).parent / "golden"


def _corpus_patches():
    with open(default_corpus_path()) as f:
        corpus = json.load(f)
    return [pytest.param(e["name"], k, e["pd"], m["kind"], m["patch"],
                         id=f"{e['name']}-{k}")
            for e in corpus for k, m in enumerate(e.get("moves", ()))
            if m["kind"] in ("R2", "R3")]


# The trefoil grown by seed 7 and folded by R2, 8 crossings (7,290
# generators); its bigon is at (7, 6).
FOLD8 = ("X[14,8,15,7] X[16,14,1,13] X[12,16,13,15] X[9,10,10,11] "
         "X[8,12,9,11] X[6,1,7,2] X[3,4,4,5] X[2,6,3,5]")


class TestGolden:
    """CLI JSON byte for byte against tests/golden, captured from earlier
    implementations: the corpus patches' from one with its own map type for
    in, rho and h, the eight-crossing fold's from one that held each
    retained and complement vector as an element dict, and the corpus
    patches' ``--search`` reports from one that shared maps and verdicts
    through a dict keyed by the values of the sign fields they read.  They
    pin the order of the reports' checks and the fields of their
    violations."""

    def test_six_corpus_patches(self):
        assert len(_corpus_patches()) == 6

    @pytest.mark.parametrize("convention", ["default", "wrong-pq"])
    @pytest.mark.parametrize("name,k,pd,kind,patch", _corpus_patches())
    def test_verify_move(self, capsys, convention, name, k, pd, kind, patch):
        rc, out, _ = run(capsys, "--format", "json", "--convention",
                         convention, "verify-move", pd, kind,
                         *map(str, patch))
        golden = GOLDEN / f"verify-move-{name}-{k}-{convention}.json"
        assert out == golden.read_text()
        assert rc == (0 if convention == "default" else 1)

    @pytest.mark.parametrize("convention", ["default", "wrong-pq"])
    @pytest.mark.parametrize("name,k,pd,kind,patch", _corpus_patches())
    def test_verify_move_search(self, capsys, convention, name, k, pd, kind,
                                patch):
        # the search's count of passing candidates (8, 2, 4, 2, 8 and 4 on
        # the six patches), whichever convention the report is under
        rc, out, _ = run(capsys, "--format", "json", "--convention",
                         convention, "verify-move", pd, kind,
                         *map(str, patch), "--search")
        golden = GOLDEN / f"verify-move-{name}-{k}-{convention}-search.json"
        assert out == golden.read_text()
        assert rc == (0 if convention == "default" else 1)

    @pytest.mark.parametrize("convention", ["default", "wrong-pq"])
    def test_verify_move_eight_crossing_fold(self, capsys, convention):
        # wrong-pq fails rho_chain_map, so the decomposition check builds
        # its complement at 7,290 generators
        rc, out, _ = run(capsys, "--format", "json", "--convention",
                         convention, "verify-move", FOLD8, "R2", "7", "6")
        golden = GOLDEN / f"verify-move-trefoil_seed7_fold8-{convention}.json"
        assert out == golden.read_text()
        assert rc == (0 if convention == "default" else 1)

    def test_corpus(self, capsys):
        rc, out, _ = run(capsys, "--format", "json", "corpus")
        assert out == (GOLDEN / "corpus.json").read_text()
        assert rc == 0


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The caller's collector setting for the test, restored after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestCollectorPaused:
    """main runs the command with the cyclic collector paused and gives the
    caller's setting back on every way out of it."""

    @pytest.mark.parametrize("argv,code", [
        pytest.param(["jones", TREFOIL], 0, id="exit-0"),
        pytest.param(["--convention", "wrong-pq", "verify-move",
                      "X[2,3,3,4] X[1,1,2,4]", "R2", "1", "0"], 1,
                     id="exit-1-wrong-pq"),
        pytest.param(["jones", "X[1,2,3,4"], 2, id="exit-2-pd-syntax"),
        pytest.param(["--max-crossings", "2", "jones", TREFOIL], 2,
                     id="exit-2-crossing-guard"),
        pytest.param(["jones", "@{tmp}/missing.pd"], 2,
                     id="exit-2-unreadable-file"),
        pytest.param(["verify-move", TREFOIL, "R2", "0", "1"], 3,
                     id="exit-3-patch-mismatch"),
    ])
    def test_restored_on_exit_code(self, capsys, tmp_path, collector, argv,
                                   code):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        assert run(capsys, *argv)[0] == code
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("argv", [
        pytest.param(["--max-crossings", "-1", "jones", TREFOIL],
                     id="negative-guard"),
        pytest.param(["jones"], id="missing-pd"),
        pytest.param(["no-such-command"], id="unknown-command"),
    ])
    def test_restored_on_argument_error(self, capsys, collector, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert gc.isenabled() is collector

    def test_paused_while_the_command_runs(self, capsys, monkeypatch,
                                           collector):
        from khovanov import cli

        seen = []

        def refined(*args):
            seen.append(gc.isenabled())
            return cli.jones_kauffman(*args)

        monkeypatch.setattr(cli, "jones_refined", refined)
        assert run(capsys, "jones", TREFOIL)[0] == 0
        assert seen == [False]
        assert gc.isenabled() is collector

    def test_restored_on_unexpected_error(self, capsys, monkeypatch,
                                          collector):
        from khovanov import cli

        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "jones_refined", broken)
        with pytest.raises(RuntimeError, match="boom"):
            main(["jones", TREFOIL])
        assert gc.isenabled() is collector

    def test_library_leaves_the_collector_alone(self, monkeypatch,
                                                collector):
        from khovanov.complexes import build_complex
        from khovanov.moves import MoveEquivalence, _Patch
        from khovanov.states import jones_kauffman, jones_refined
        from khovanov.tangles import tangle_homology

        calls = []
        for name in ("disable", "enable", "collect", "freeze"):
            monkeypatch.setattr(gc, name,
                                lambda *a, name=name: calls.append(name))
        d = parse_pd("X[2,3,3,4] X[1,1,2,4]")
        tangle_homology(d, check=True)
        build_complex(d)
        jones_kauffman(d)
        jones_refined(d)
        MoveEquivalence(_Patch(d, (1, 0), "R2"),
                        CONVENTIONS["default"]).report()
        assert calls == []
        assert gc.isenabled() is collector


def _ours(obj) -> bool:
    """Whether ``obj`` is a function, frame or instance of the package, or
    a cell that holds one."""
    if isinstance(obj, types.CellType):
        try:
            obj = obj.cell_contents
        except ValueError:  # an empty cell
            return False
    if isinstance(obj, types.FrameType):
        module = obj.f_globals.get("__name__")
    elif isinstance(obj, types.FunctionType):
        module = obj.__module__
    else:
        module = type(obj).__module__
    return (module or "").split(".")[0] == "khovanov"


def cyclic_garbage(capsys, *argv) -> tuple[int, list]:
    """main(argv)'s exit code and the objects it leaves to the cyclic
    collector: what a full collection right after the call finds
    unreachable, kept in gc.garbage by DEBUG_SAVEALL."""
    gc.collect()
    start = len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        rc = main(list(argv))
        gc.collect()
        garbage = gc.garbage[start:]
    finally:
        gc.set_debug(0)
        del gc.garbage[start:]
    capsys.readouterr()
    return rc, garbage


def _kinked(d):
    """``d`` with an R1 kink on its first arc, and the kink's patch."""
    d, _ = apply_move(d, MovePatch("R1", "complicate", arcs=(d.arcs[0],),
                                   variant="+"))
    return d, [d.n - 1]


def _folded(d):
    """``d`` with an R2 fold of its first arc, and the bigon's patch."""
    d, _ = apply_move(d, MovePatch("R2", "complicate", arcs=(d.arcs[0],)))
    return d, [d.n - 1, d.n - 2]


def _command(kind, tmp_path, grown) -> list[str]:
    """The argv of one command kind on the trefoil (the R3 triangle for R3
    moves), or with ``grown`` on it grown by seed 7: the trefoil to 9
    crossings, the triangle to 7."""
    trefoil = parse_pd(TREFOIL)
    triangle = parse_pd("X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]")
    if kind in ("jones", "homology", "corpus"):
        d = grow(trefoil, 9, 7) if grown else trefoil
        if kind == "jones":
            return ["jones", d.serialize()]
        if kind == "homology":
            return ["homology", d.serialize(), "--check-euler"]
        manifest = tmp_path / f"manifest-{grown}.json"
        manifest.write_text(json.dumps([{"name": "d", "pd": d.serialize()}]))
        return ["corpus", str(manifest)]
    move, extra = kind.split()
    if move == "R3":
        d = grow(triangle, 7, 7, keep_triangle=True) if grown else triangle
        patch = [0, 1, 2]
    else:
        grow_to = 8 if move == "R1" else 7
        d, patch = (_kinked if move == "R1" else _folded)(
            grow(trefoil, grow_to, 7) if grown else trefoil)
    head = ["--convention", "wrong-pq"] if extra == "wrong-pq" else []
    tail = ["--search"] if extra == "search" else []
    return [*head, "verify-move", d.serialize(), move, *map(str, patch),
            *tail]


class TestNoReferenceCycles:
    """The invariant that lets main pause the cyclic collector: reference
    counting frees all a command allocates.  The only cyclic garbage a
    command leaves is the standard library's (the json encoder's closures
    behind --format json), none of the package's, and as much of it on the
    trefoil grown to 9 crossings as on the trefoil."""

    @pytest.mark.parametrize("kind", [
        "jones", "homology", "R1 default", "R2 search", "R2 wrong-pq",
        "R3 search", "R3 wrong-pq", "corpus",
    ])
    def test_no_cycles_of_ours(self, capsys, tmp_path, kind):
        # built once per process, the parser leaves its help formatter's
        # cycles at its first call
        main(["jones", "O"])
        capsys.readouterr()
        counts = []
        for grown in (False, True):
            argv = _command(kind, tmp_path, grown)
            rc, garbage = cyclic_garbage(capsys, "--format", "json", *argv)
            assert rc == (1 if "wrong-pq" in argv else 0), (kind, grown)
            ours = [o for o in garbage if _ours(o)]
            assert ours == [], (kind, grown, Counter(map(type, ours)))
            counts.append(len(garbage))
        assert counts[0] == counts[1], (kind, counts)

    def test_shipped_corpus(self, capsys):
        main(["jones", "O"])
        capsys.readouterr()
        rc, trefoil = cyclic_garbage(capsys, "--format", "json", "jones",
                                     TREFOIL)
        assert rc == 0
        rc, garbage = cyclic_garbage(capsys, "--format", "json", "corpus")
        assert rc == 0
        assert [o for o in garbage if _ours(o)] == []
        assert len(garbage) == len(trefoil)
