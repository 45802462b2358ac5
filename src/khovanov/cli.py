"""Command-line front end.

Subcommands: ``jones`` (both state sums + equality flag), ``homology``
(integral table as JSON), ``verify-move`` (the full identity suite for an
R1/R2/R3 patch) and ``corpus`` (run a manifest of diagrams against their
expected invariants).  Exit codes: 0 pass, 1 verification failure, 2 parse
error, 3 patch mismatch.

Every homology table comes from the tangle-by-tangle engine
(``tangles.tangle_homology``): ``homology``, the tables of ``corpus`` and
the ``homology_invariance`` check of ``verify-move``, which compares the
tables of the diagram and of the moved diagram for R1, R2 and R3 alike.  R2
and R3 ``verify-move`` also build the two whole complexes their maps act
on, and take no table from them.

Output is deterministic: JSON is emitted with sorted keys and fixed
orderings, so identical inputs give byte-identical output.

``main`` runs the command with CPython's cyclic garbage collector paused
(``gc.disable``) and gives the caller's setting back on every way out.  The
collector's passes cost time that grows with the number of live objects,
and here they would find nothing of the package's: no command makes a
reference cycle of its own, so reference counting frees all that a command
allocates.  The only cyclic garbage a command leaves is a fixed handful of
the standard library's (the json encoder's closures behind ``--format
json``; argparse's help formatter once, when the parser is built), as much
on a 9-crossing diagram as on the trefoil; ``tests/test_cli.py`` checks
this under ``gc.DEBUG_SAVEALL`` for every command kind.  So a walk that
recurses through a nested function, which refers to itself through its
closure, deletes that function when the walk ends
(``states.jones_refined``, ``complexes._trace_states``).  The library
functions leave the collector alone.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib.resources
import json
import sys
from dataclasses import dataclass, field, replace

from .diagram import (
    DiagramError,
    MovePatch,
    PatchMismatchError,
    PDSyntaxError,
    apply_move,
    parse_pd,
)
from .homology import HomologyTable, compare_tables
from .moves import (
    DEFAULT_CONVENTION,
    MoveEquivalence,
    _Patch,
    convention_search,
)
from .states import (
    DEFAULT_MAX_CROSSINGS,
    LaurentPoly,
    TooManyCrossingsError,
    check_guard,
    jones_kauffman,
    jones_refined,
)
from .tangles import tangle_homology

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_PARSE = 2
EXIT_PATCH = 3

# crossing ids a verify-move patch names, per move kind
PATCH_SIZES = {"R1": 1, "R2": 2, "R3": 3}

# Named conventions for --convention.  Only the frozen default satisfies
# every identity on every patch; wrong-pq is kept to demonstrate failure
# reporting.  Other candidates live in moves.default_candidates() and are
# explored by `verify-move --search`.
CONVENTIONS = {
    "default": DEFAULT_CONVENTION,
    "wrong-pq": replace(DEFAULT_CONVENTION, name="wrong-pq", pq_rule="negated"),
}


class InputError(Exception):
    """A PD file or manifest that cannot be opened or read as UTF-8 text."""


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise InputError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc})") from exc


def _read_pd(arg: str) -> str:
    return _read_file(arg[1:]) if arg.startswith("@") else arg


def _emit(payload, fmt: str, text_renderer):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=1))
    else:
        text_renderer(payload)


def cmd_jones(args) -> int:
    diagram = parse_pd(_read_pd(args.pd))
    jk = jones_kauffman(diagram, args.max_crossings)
    jr = jones_refined(diagram, args.max_crossings)
    payload = {
        "kauffman": jk.to_json(),
        "refined": jr.to_json(),
        "text": str(jk),
        "equal": jk == jr,
        "writhe": diagram.writhe(),
    }

    def render(p):
        print(f"kauffman: {jk}")
        print(f"refined:  {jr}")
        print(f"equal: {str(p['equal']).lower()}")

    _emit(payload, args.format, render)
    return EXIT_OK if payload["equal"] else EXIT_VERIFICATION


def cmd_homology(args) -> int:
    diagram = parse_pd(_read_pd(args.pd))
    table, d2 = tangle_homology(diagram, args.max_crossings,
                                check=args.check_euler)
    payload = {"homology": table.to_json()}
    ok = True
    if args.check_euler:
        euler_ok = table.euler() == jones_kauffman(diagram,
                                                   args.max_crossings)
        payload["euler_matches_jones"] = euler_ok
        payload["d_squared_zero"] = not d2
        ok = euler_ok and not d2

    def render(p):
        for row in p["homology"]:
            tor = "".join(f" Z/{t}" for t in row["torsion"])
            print(f"({row['i']:>3},{row['j']:>4})  Z^{row['rank']}{tor}")
        if "euler_matches_jones" in p:
            print(f"euler check: {str(p['euler_matches_jones']).lower()}")

    _emit(payload, args.format, render)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _invariance(diagram, moved, max_crossings, table=None) -> dict:
    """The homology_invariance check: the tables of ``diagram`` (``table``
    when the caller has it) and of ``moved``, and their first difference.
    The two tables share one template store, which dies with the check."""
    store = {}
    if table is None:
        table = tangle_homology(diagram, max_crossings, store=store)[0]
    diffs = compare_tables(
        table, tangle_homology(moved, max_crossings, store=store)[0])
    check = {"name": "homology_invariance", "pass": not diffs}
    if diffs:
        check["first_violation"] = diffs[0]
    return check


def _verify_move(diagram, kind, crossings, convention, max_crossings,
                 patch=None, table=None):
    """Identity suite for one patch; R1 compares homology tables only.
    ``patch`` is the R2/R3 patch (``moves._Patch``), which holds every
    complex and map the equivalence builds, made here when the caller has
    none; every complex and table is computed under the guard
    ``max_crossings``; ``table`` is the diagram's homology table, if the
    caller has it."""
    if kind == "R1":
        simplified, _ = apply_move(
            diagram, MovePatch("R1", "simplify", crossings=tuple(crossings))
        )
        check = _invariance(diagram, simplified, max_crossings, table)
        return {
            "move": "R1",
            "patch": list(crossings),
            "convention": convention.name,
            "checks": [check],
            "pass": check["pass"],
        }
    if patch is None:
        patch = _Patch(diagram, crossings, kind, max_crossings)
    try:
        report = MoveEquivalence(patch, convention).report(patch=crossings)
    except AssertionError as exc:
        return {
            "move": kind,
            "patch": list(crossings),
            "convention": convention.name,
            "checks": [{"name": "construction", "pass": False,
                        "first_violation": {"error": str(exc)}}],
            "pass": False,
        }
    check = _invariance(diagram, patch.tgt.diagram, max_crossings, table)
    report["checks"].append(check)
    report["pass"] = report["pass"] and check["pass"]
    return report


def cmd_verify_move(args) -> int:
    kind = args.kind.upper()
    if len(args.crossings) != PATCH_SIZES[kind]:
        print(f"error: {kind} takes {PATCH_SIZES[kind]} crossing id(s), "
              f"got {len(args.crossings)}", file=sys.stderr)
        return EXIT_PARSE
    if args.search and kind == "R1":
        print("error: --search covers R2/R3 only; R1 has no homotopy "
              "equivalence to search conventions for", file=sys.stderr)
        return EXIT_PARSE
    diagram = parse_pd(_read_pd(args.pd))
    check_guard(diagram, args.max_crossings)
    convention = CONVENTIONS[args.convention]
    # one patch for the report and the search: nothing is built twice
    patch = (None if kind == "R1" else
             _Patch(diagram, args.crossings, kind, args.max_crossings))
    report = _verify_move(diagram, kind, args.crossings, convention,
                          args.max_crossings, patch)
    if args.search:
        passing = convention_search(patch)
        report["convention_search"] = {
            "candidates_passing": len(passing),
            "default_passes": any(
                c == replace(convention, name=c.name) for c in passing
            ),
        }

    def render(p):
        for c in p["checks"]:
            status = "pass" if c["pass"] else f"FAIL {c.get('first_violation')}"
            print(f"{c['name']:<28} {status}")
        if "convention_search" in p:
            print(f"satisfying conventions: "
                  f"{p['convention_search']['candidates_passing']}")

    _emit(report, args.format, render)
    return EXIT_OK if report["pass"] else EXIT_VERIFICATION


def default_corpus_path() -> str:
    return str(importlib.resources.files("khovanov.data") / "corpus.json")


class ManifestError(ValueError):
    """A corpus manifest, row or move that does not follow the schema."""


def _check_manifest_move(name: str, move) -> None:
    if not isinstance(move, dict):
        raise ManifestError(f"{name}: a move must be an object, got {move!r}")
    kind = move.get("kind")
    if kind not in PATCH_SIZES:
        raise ManifestError(f"{name}: bad move kind {kind!r}; "
                            f"expected one of {', '.join(PATCH_SIZES)}")
    patch = move.get("patch")
    if (not isinstance(patch, list) or len(patch) != PATCH_SIZES[kind]
            or not all(type(k) is int for k in patch)):
        raise ManifestError(f"{name}: {kind} patch takes {PATCH_SIZES[kind]} "
                            f"crossing id(s), got {patch!r}")
    if not isinstance(move.get("partner"), str):
        raise ManifestError(f"{name}: {kind} move has no partner name")


@dataclass
class CorpusEntry:
    """One manifest row: a named diagram with optional expected invariants
    and move annotations relating it to other entries.

    A row is an object with a string ``name`` and ``pd``, and optionally a
    ``jones`` object, a ``homology`` array and a ``moves`` array, which
    must read as a polynomial and a homology table; any other shape or
    content raises ``ManifestError``, as does a ``name`` that a manifest
    gives to two rows."""

    name: str
    pd: str
    jones: dict | None = None
    homology: list | None = None
    moves: list = field(default_factory=list)

    @classmethod
    def from_json(cls, row: dict) -> "CorpusEntry":
        if not isinstance(row, dict):
            raise ManifestError(f"a manifest row must be an object, got {row!r}")
        name = row.get("name")
        if not isinstance(name, str):
            raise ManifestError(
                f"a manifest row needs a string 'name', got {name!r}")
        if not isinstance(row.get("pd"), str):
            raise ManifestError(
                f"{name}: 'pd' must be a string, got {row.get('pd')!r}")
        for key, want, label in (("jones", dict, "an object"),
                                 ("homology", list, "an array"),
                                 ("moves", list, "an array")):
            value = row.get(key)
            if value is not None and not isinstance(value, want):
                raise ManifestError(f"{name}: '{key}' must be {label} "
                                    f"when given, got {value!r}")
        entry = cls(
            name=name,
            pd=row["pd"],
            jones=row.get("jones"),
            homology=row.get("homology"),
            moves=list(row.get("moves") or ()),
        )
        parse_pd(entry.pd)  # the PD string must parse
        for key, parse in (("jones", LaurentPoly.from_json),
                           ("homology", HomologyTable.from_json)):
            try:
                if row.get(key) is not None:
                    parse(row[key])
            except (ValueError, TypeError, KeyError) as exc:
                raise ManifestError(f"{name}: bad '{key}' contents "
                                    f"({type(exc).__name__}: {exc})") from exc
        for move in entry.moves:
            _check_manifest_move(entry.name, move)
        return entry


def _complex_checks(entry: "CorpusEntry", max_crossings, done) -> tuple:
    """(d^2 = 0 on every tangle complex, graded Euler, homology) of a row,
    computed once per run."""
    if entry.name not in done:
        table, d2 = tangle_homology(parse_pd(entry.pd), max_crossings,
                                    check=True)
        done[entry.name] = (not d2, table.euler(), table)
    return done[entry.name]


def _run_entry(entry: "CorpusEntry", by_name, convention, max_crossings,
               done):
    checks = {}
    diagram = parse_pd(entry.pd)
    jk = jones_kauffman(diagram, max_crossings)
    jr = jones_refined(diagram, max_crossings)
    checks["jones_two_ways"] = jk == jr
    if entry.jones is not None:
        checks["jones_expected"] = jk == LaurentPoly.from_json(entry.jones)
    checks["d_squared"], euler, table = _complex_checks(entry, max_crossings,
                                                        done)
    checks["euler"] = euler == jk
    if entry.homology is not None:
        checks["homology_expected"] = not compare_tables(
            table, HomologyTable.from_json(entry.homology)
        )
    for k, move in enumerate(entry.moves):
        partner = by_name.get(move["partner"])
        label = f"move_{k}_{move['kind']}"
        if partner is None:
            checks[label] = False
            continue
        partner_table = _complex_checks(partner, max_crossings, done)[2]
        ok = not compare_tables(table, partner_table)
        if move["kind"] in ("R2", "R3"):
            try:
                report = _verify_move(
                    diagram, move["kind"], move["patch"], convention,
                    max_crossings, table=table
                )
                ok = ok and report["pass"]
            except PatchMismatchError:
                ok = False
        checks[label] = ok
    return {"name": entry.name,
            "pass": all(v is True for v in checks.values()),
            "checks": checks}


def cmd_corpus(args) -> int:
    path = args.manifest or default_corpus_path()
    try:
        rows = json.loads(_read_file(path))
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: not JSON ({exc})") from exc
    if not isinstance(rows, list):
        raise ManifestError(f"{path}: a manifest must be a JSON array of "
                            "entries")
    entries = [CorpusEntry.from_json(row) for row in rows]
    by_name = {}
    for e in entries:
        if e.name in by_name:
            raise ManifestError(f"{e.name}: name given to more than one "
                                "manifest row")
        by_name[e.name] = e
    convention = CONVENTIONS[args.convention]
    done = {}
    results = [
        _run_entry(e, by_name, convention, args.max_crossings, done)
        for e in entries
    ]
    payload = {"results": results, "pass": all(r["pass"] for r in results)}

    def render(p):
        for r in p["results"]:
            status = "pass" if r["pass"] else "FAIL"
            bad = [k for k, v in r["checks"].items() if v is not True]
            print(f"{r['name']:<20} {status}" + (f"  ({', '.join(bad)})" if bad else ""))
        print(f"corpus: {'pass' if p['pass'] else 'FAIL'}")

    _emit(payload, args.format, render)
    return EXIT_OK if payload["pass"] else EXIT_VERIFICATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` reads it
    and leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="khovanov",
        description="Khovanov homology of link diagrams, with verified "
        "Reidemeister II/III chain homotopy equivalences",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--convention", choices=sorted(CONVENTIONS),
                        default="default")
    parser.add_argument("--max-crossings", type=int,
                        default=DEFAULT_MAX_CROSSINGS,
                        help="guard against exponential state counts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jones", help="evaluate both Jones state sums")
    p.add_argument("pd", help="PD text, or @file")
    p.set_defaults(func=cmd_jones)

    p = sub.add_parser("homology", help="integral Khovanov homology table")
    p.add_argument("pd")
    p.add_argument("--check-euler", action="store_true")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("verify-move", help="run the identity suite for a move")
    p.add_argument("pd")
    p.add_argument("kind", choices=("R1", "R2", "R3", "r1", "r2", "r3"))
    p.add_argument("crossings", type=int, nargs="+",
                   help="patch crossing ids in template order")
    p.add_argument("--search", action="store_true",
                   help="also run the sign-convention search")
    p.set_defaults(func=cmd_verify_move)

    p = sub.add_parser("corpus", help="run a corpus manifest")
    p.add_argument("manifest", nargs="?",
                   help="manifest JSON (default: shipped corpus)")
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.max_crossings < 0:
        build_parser().error(
            "argument --max-crossings: must be a non-negative crossing "
            f"count, not {args.max_crossings}")
    # no command makes a reference cycle (module docstring)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (PDSyntaxError, DiagramError, TooManyCrossingsError,
            ManifestError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PatchMismatchError as exc:
        print(f"patch mismatch: {exc}", file=sys.stderr)
        return EXIT_PATCH
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
