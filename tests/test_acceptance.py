"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
the captured output); stated runtime budgets are asserted.
"""

import random
import time
import warnings

import pytest

from khovanov import (
    LaurentPoly,
    MovePatch,
    apply_move,
    jones_kauffman,
    jones_refined,
    parse_pd,
)
from khovanov.complexes import build_complex, graded_euler, verify_d_squared
from khovanov.homology import compare_tables, smith_normal_form
from khovanov.moves import (DEFAULT_CONVENTION, MoveEquivalence, _Patch,
                            convention_search)

from helpers import (
    check_skein,
    cube_homology,
    random_diagrams,
    rank_mod,
    rank_rational,
    smooth_crossing,
    snf_naive,
    switch_crossing,
)

UNKNOT_POLY = LaurentPoly({1: 1, -1: 1})
TREFOIL = parse_pd("X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]")
R2_UNKNOT = parse_pd("X[2,3,3,4] X[1,1,2,4]")
TRIANGLE = parse_pd("X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]")

TREFOIL_TABLE = {
    (0, 1): (1, ()),
    (0, 3): (1, ()),
    (2, 5): (1, ()),
    (3, 7): (0, (2,)),
    (3, 9): (1, ()),
}


def report(n, label, ok, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" ({elapsed * 1000:.1f} ms)" if elapsed is not None else ""
    print(f"[acceptance] {n}. {label}: {status}{timing}")
    assert ok, f"criterion {n} failed"


def test_criterion_1_unknot_normalization():
    u = parse_pd("O")
    jones_kauffman(u)  # warm up
    best = min(
        (lambda t0: (jones_kauffman(u), jones_refined(u),
                     time.perf_counter() - t0))(time.perf_counter())[2]
        for _ in range(3)
    )
    ok = (jones_kauffman(u) == UNKNOT_POLY
          and jones_refined(u) == UNKNOT_POLY
          and best < 0.001)
    report(1, "unknot normalization, < 1 ms", ok, best)


def test_criterion_2_state_sums_agree(corpus):
    t0 = time.perf_counter()
    diagrams = [parse_pd(e["pd"]) for e in corpus]
    diagrams += random_diagrams(seed=2026, count=100, max_crossings=6)
    ok = all(jones_kauffman(d) == jones_refined(d) for d in diagrams)
    elapsed = time.perf_counter() - t0
    report(2, f"Kauffman sum = refined sum on {len(diagrams)} diagrams, < 10 s",
           ok and elapsed < 10.0, elapsed)


def test_criterion_3_skein_relation():
    kink = parse_pd("X[1,1,2,2]")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        triples_ok = [
            # positive kink / negative kink / two-component unlink
            check_skein(kink, switch_crossing(kink, 0), smooth_crossing(kink, 0)),
            # right trefoil / crossing-switched unknot / positive Hopf link
            check_skein(TREFOIL, switch_crossing(TREFOIL, 0),
                        smooth_crossing(TREFOIL, 0)),
            # figure-eight derived triple
            check_skein(
                parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"),
                switch_crossing(
                    parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"), 0),
                smooth_crossing(
                    parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"), 0),
            ),
        ]
        violating = not check_skein(TREFOIL, TREFOIL, parse_pd("O"))
    report(3, "skein relation on 3 explicit triples", all(triples_ok) and violating)


def test_criterion_4_d_squared_and_euler(corpus):
    ok = True
    for entry in corpus:
        d = parse_pd(entry["pd"])
        cx = build_complex(d)
        ok = ok and verify_d_squared(cx) == []
        ok = ok and graded_euler(cx) == jones_kauffman(d) == jones_refined(d)
    report(4, "d^2 = 0 and Euler characteristic = Jones on the corpus", ok)


def test_criterion_5_r2_suite():
    t0 = time.perf_counter()
    required = {"rho_in_identity", "homotopy_identity", "in_chain_map",
                "rho_chain_map"}
    ok = True
    cases = [(R2_UNKNOT, (1, 0))]
    for arc in (1, 4):
        folded, _ = apply_move(TREFOIL, MovePatch("R2", "complicate",
                                                  arcs=(arc,)))
        cases.append((folded, (4, 3)))
    for diagram, patch in cases:
        eq = MoveEquivalence(_Patch(diagram, patch, "R2"))
        results = {c["name"]: c["pass"] for c in eq.checks()}
        ok = ok and all(results.values()) and required <= set(results)
    elapsed = time.perf_counter() - t0
    report(5, "R2 suite (in, rho, h identities) on unknot and trefoil "
              "complications, < 5 s", ok and elapsed < 5.0, elapsed)


def test_criterion_6_r3_suite():
    t0 = time.perf_counter()
    five, _ = apply_move(TRIANGLE, MovePatch("R2", "complicate", arcs=(1,)))
    ok = True
    for diagram in (TRIANGLE, five):
        eq = MoveEquivalence(_Patch(diagram, (0, 1, 2), "R3"))
        results = {c["name"]: c["pass"] for c in eq.checks()}
        ok = ok and all(results.values())
        ok = ok and results["composite_chain_map"] and results["homotopy_identity"]
    passing = convention_search(_Patch(TRIANGLE, (0, 1, 2), "R3"))
    ok = ok and len(passing) > 0
    ok = ok and convention_search(
        _Patch(TRIANGLE, (0, 1, 2), "R3"), [DEFAULT_CONVENTION],
    ) == [DEFAULT_CONVENTION]
    report(6, f"R3 suite on triangle and 5-crossing example; "
              f"{len(passing)} satisfying conventions",
           ok, time.perf_counter() - t0)


def test_criterion_7_homology_invariance(corpus, corpus_by_name):
    t0 = time.perf_counter()
    tables = {}
    for entry in corpus:
        tables[entry["name"]] = cube_homology(
            build_complex(parse_pd(entry["pd"])).diffs
        )
    ok = True
    pairs = 0
    for entry in corpus:
        for move in entry.get("moves", ()):
            pairs += 1
            ok = ok and compare_tables(
                tables[entry["name"]], tables[move["partner"]]
            ) == []
    # the trefoil table, exactly, and unchanged under an R2 complication
    ok = ok and dict(tables["trefoil"]) == TREFOIL_TABLE
    ok = ok and dict(tables["trefoil_r2"]) == TREFOIL_TABLE
    # cross-oracle: free ranks over Q, 2-torsion over GF(2)
    cx = build_complex(TREFOIL)
    for (i, j), (rank, torsion) in tables["trefoil"].items():
        d_out = cx.diffs.block((i, j))
        d_in = cx.diffs.block((i - 1, j))
        rk_out = rank_rational(d_out, rows=cx.dim((i + 1, j)),
                               cols=cx.dim((i, j)))
        rk_in = rank_rational(d_in, rows=cx.dim((i, j)),
                              cols=cx.dim((i - 1, j)))
        ok = ok and rank == cx.dim((i, j)) - rk_out - rk_in
        rk2_out = rank_mod(d_out, 2, rows=cx.dim((i + 1, j)),
                           cols=cx.dim((i, j)))
        rk2_in = rank_mod(d_in, 2, rows=cx.dim((i, j)),
                          cols=cx.dim((i - 1, j)))
        dim2 = cx.dim((i, j)) - rk2_out - rk2_in
        above = tables["trefoil"].get((i + 1, j), (0, ()))
        ok = ok and dim2 == rank + len(torsion) + len(above[1])
    elapsed = time.perf_counter() - t0
    report(7, f"homology invariance over {pairs} corpus pairs "
              "+ trefoil table with cross-oracle, < 30 s",
           ok and elapsed < 30.0, elapsed)


def test_criterion_8_snf_oracle():
    rng = random.Random(1234)
    ok = True
    for _ in range(500):
        nr = rng.randint(1, 8)
        nc = rng.randint(1, 8)
        m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        ok = ok and smith_normal_form(m).factors == snf_naive(m)
    report(8, "SNF matches naive dense reduction on 500 random matrices", ok)
