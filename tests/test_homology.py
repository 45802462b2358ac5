import json
import random
import time
from pathlib import Path

from khovanov import MovePatch, apply_move, parse_pd
from khovanov.complexes import GradedMap, build_complex, graded_euler
from khovanov.homology import (
    HomologyTable,
    compare_tables,
    homology_groups,
    smith_normal_form,
)

from helpers import (
    build_complex_per_state,
    complex_under,
    cube_homology,
    gcd_of_minors,
    grow,
    random_diagrams,
    rank_mod,
    rank_rational,
    snf_least_entry,
    snf_naive,
)

# a residue block of T(7,8), 28 x 26 with entries up to 65 bits
T78_BLOCK = Path(__file__).parent / "data" / "snf_t78_block.json"

TREFOIL = parse_pd("X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]")

# right-handed trefoil table: free rank 1 at (0,1), (0,3), (2,5), (3,9) and
# a single 2-torsion class at (3,7); cross-checked below against rational
# and mod-2 ranks
TREFOIL_TABLE = {
    (0, 1): (1, ()),
    (0, 3): (1, ()),
    (2, 5): (1, ()),
    (3, 7): (0, (2,)),
    (3, 9): (1, ()),
}


class TestSNF:
    def test_spec_examples(self):
        # gcd of entries is 2 and |det| = 8, so the factors are (2, 4);
        # confirmed by the naive reduction oracle
        assert smith_normal_form([[2, 4], [6, 8]]).factors == (2, 4)
        assert snf_naive([[2, 4], [6, 8]]) == (2, 4)
        assert smith_normal_form([[0, 0], [0, 0]]).factors == ()
        assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).factors == \
            (1, 1, 1)

    def test_against_naive_oracle(self):
        rng = random.Random(1234)
        for trial in range(500):
            nr = rng.randint(1, 8)
            nc = rng.randint(1, 8)
            m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
            fast = smith_normal_form(m).factors
            slow = snf_naive(m)
            assert fast == slow, (trial, m)

    def test_divisibility_chain(self):
        rng = random.Random(99)
        for _ in range(100):
            m = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
            f = smith_normal_form(m).factors
            for a, b in zip(f, f[1:]):
                assert b % a == 0

    def test_minor_gcd_invariant(self):
        # product of the first k factors equals the gcd of k x k minors
        rng = random.Random(7)
        for _ in range(25):
            m = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
            f = smith_normal_form(m).factors
            prod = 1
            for k in range(1, min(3, len(f)) + 1):
                prod *= f[k - 1]
                assert prod == gcd_of_minors(m, k)

    def test_rank_matches_rational(self):
        rng = random.Random(5)
        for _ in range(100):
            nr, nc = rng.randint(1, 7), rng.randint(1, 7)
            m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
            assert smith_normal_form(m).rank == rank_rational(m)


    def test_against_least_entry_oracle(self):
        # the SNF that pivots on the least entry with no bound, on blocks
        # of low rank (products through a k-dimensional space, so most
        # rows are dependent), tall, wide, and with 40-bit entries
        rng = random.Random(2718)
        for trial in range(600):
            nr, nc = rng.randint(1, 9), rng.randint(1, 9)
            if trial % 3 == 0:
                k = rng.randint(1, 3)
                a = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(nr)]
                b = [[rng.randint(-5, 5) * rng.choice((1, 2, 6, 30))
                      for _ in range(nc)] for _ in range(k)]
                m = [[sum(x * y for x, y in zip(row, col))
                      for col in zip(*b)] for row in a]
            elif trial % 3 == 1:
                m = [[rng.choice((0, 0, 2 * rng.randint(-9, 9),
                                  rng.randint(-2 ** 40, 2 ** 40)))
                      for _ in range(nc)] for _ in range(nr)]
            else:
                m = [[rng.choice((0, 0, 0, 2, -2, 4, 6, 12))
                      for _ in range(nc)] for _ in range(nr)]
            assert smith_normal_form(m) == snf_least_entry(m), (trial, m)

    def test_sparse_input_with_empty_rows_and_columns(self):
        block = {(3, 0): 4, (3, 2): 6, (0, 2): 10}
        assert smith_normal_form(block, rows=5, cols=4).factors == (2, 20)
        assert snf_least_entry(block, rows=5, cols=4).factors == (2, 20)
        assert smith_normal_form({}, rows=3, cols=2).factors == ()

    def test_bareiss_signed_determinant(self):
        # the last pivot of ``_bareiss``, negated once per row swap, is the
        # determinant of a nonsingular square matrix, against the Leibniz
        # sum; sparse entries make the swaps frequent
        from itertools import permutations

        from khovanov.homology import _bareiss

        def leibniz(m):
            total = 0
            for perm in permutations(range(len(m))):
                inversions = sum(perm[i] > perm[j] for i in range(len(m))
                                 for j in range(i + 1, len(m)))
                term = (-1) ** inversions
                for r, c in enumerate(perm):
                    term *= m[r][c]
                total += term
            return total

        rng = random.Random(2718)
        signs = set()
        for _ in range(400):
            n = rng.randint(1, 5)
            m = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 7)) for _ in range(n)]
                 for _ in range(n)]
            rank, det = _bareiss([list(r) for r in m])
            assert (det if rank == n else 0) == leibniz(m), m
            signs.add((det > 0) - (det < 0) if rank == n else 0)
        assert signs == {-1, 0, 1}
        assert _bareiss([[0, 1], [1, 0]]) == (2, -1)

    def test_large_residue_block(self):
        # the unbounded pivoting of ``snf_least_entry`` does not finish on
        # this block in 60 s; working mod D bounds every entry.  Its
        # factors 1 (14 times), 2 and 140 were also found by a Hermite-form
        # SNF and by sympy; here the ranks over Q and mod p agree with them
        block = json.loads(T78_BLOCK.read_text())
        rows, cols = block["rows"], block["cols"]
        entries = {(r, c): v for r, c, v in block["entries"]}
        assert (rows, cols, len(entries)) == (28, 26, 580)
        assert max(abs(v) for v in entries.values()).bit_length() == 65
        start = time.perf_counter()
        factors = smith_normal_form(entries, rows=rows, cols=cols).factors
        assert time.perf_counter() - start < 1
        assert factors == (1,) * 14 + (2, 140)
        assert rank_rational(entries, rows=rows, cols=cols) == 16
        for p, rank in ((2, 14), (3, 16), (5, 15), (7, 15), (11, 16)):
            assert rank_mod(entries, p, rows=rows, cols=cols) == rank, p


class TestHomology:
    def test_unknot(self):
        table = homology_groups(build_complex(parse_pd("O")).diffs)
        assert dict(table) == {(0, 1): (1, ()), (0, -1): (1, ())}

    def test_r2_unknot_matches_unknot(self):
        a = homology_groups(
            build_complex(parse_pd("X[2,3,3,4] X[1,1,2,4]")).diffs)
        b = homology_groups(build_complex(parse_pd("O")).diffs)
        assert compare_tables(a, b) == []

    def test_trefoil_table(self):
        table = homology_groups(build_complex(TREFOIL).diffs)
        assert dict(table) == TREFOIL_TABLE

    def test_trefoil_field_cross_oracle(self):
        # free ranks from rational ranks; total mod-2 rank counts each
        # 2-torsion class twice (once in its degree, once above)
        cx = build_complex(TREFOIL)
        rk_q = {}
        rk_2 = {}
        for bd in cx.bidegrees():
            d = cx.diffs.block(bd)
            tgt = (bd[0] + 1, bd[1])
            rk_q[bd] = rank_rational(d, rows=cx.dim(tgt), cols=cx.dim(bd))
            rk_2[bd] = rank_mod(d, 2, rows=cx.dim(tgt), cols=cx.dim(bd))
        for (i, j), (rank, torsion) in homology_groups(cx.diffs).items():
            dim = cx.dim((i, j))
            free = dim - rk_q.get((i, j), 0) - rk_q.get((i - 1, j), 0)
            assert free == rank
            dim2 = dim - rk_2.get((i, j), 0) - rk_2.get((i - 1, j), 0)
            two_torsion_here = sum(1 for t in torsion if t % 2 == 0)
            up = homology_groups(cx.diffs).get((i + 1, j), (0, ()))
            two_torsion_above = sum(1 for t in up[1] if t % 2 == 0)
            assert dim2 == free + two_torsion_here + two_torsion_above

    def test_euler_consistency(self, corpus):
        for entry in corpus:
            cx = build_complex(parse_pd(entry["pd"]))
            assert homology_groups(cx.diffs).euler() == graded_euler(cx), \
                entry["name"]

    def test_generator_order_invariance(self):
        rng = random.Random(2024)
        d = build_complex(TREFOIL).diffs
        base = homology_groups(d)
        perms = {bd: rng.sample(range(n), n) for bd, n in d.src.items()}
        shuffled = GradedMap("d", d.src, d.tgt, (1, 0), {
            bd: {(perms[(bd[0] + 1, bd[1])][r], perms[bd][c]): v
                 for (r, c), v in block.items()}
            for bd, block in d.items() if block})
        assert compare_tables(base, homology_groups(shuffled)) == []

    def test_random_generator_order(self):
        for d in random_diagrams(seed=41, count=5):
            cx = build_complex(d)
            table = homology_groups(cx.diffs)
            assert table.euler() == graded_euler(cx)


def _handmade(dims, diffs) -> GradedMap:
    """A differential given by its dimensions and blocks."""
    return GradedMap("d", dims, dims, (1, 0), diffs)


def _unimodular(rng, n):
    """A random n x n integer matrix of determinant +-1 and its inverse."""
    p = [[int(r == c) for c in range(n)] for r in range(n)]
    q = [row[:] for row in p]
    for _ in range(3 * n if n > 1 else 0):
        a, b = rng.sample(range(n), 2)
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        # p <- (1 + k e_ab) p and q <- q (1 - k e_ab)
        p[a] = [x + k * y for x, y in zip(p[a], p[b])]
        for row in q:
            row[b] -= k * row[a]
    return p, q


class TestSparseEngine:
    """``helpers.cube_homology``, the whole-cube oracle, cancels unit pivots,
    then runs SNF on the residue; ``homology_groups`` runs SNF on every
    whole block."""

    def test_matches_dense_on_corpus(self, corpus):
        for entry in corpus:
            d = parse_pd(entry["pd"])
            for rule in ("before", "after"):
                cx = complex_under(d, rule)
                if rule == "after":
                    assert cx.diffs == build_complex_per_state(d, rule).diffs
                assert cube_homology(cx.diffs) == \
                    homology_groups(cx.diffs), (entry["name"], rule)

    def test_matches_dense_on_random_diagrams(self):
        for d in random_diagrams(seed=4242, count=100, max_crossings=6):
            for rule in ("before", "after"):
                cx = complex_under(d, rule)
                if rule == "after":
                    assert cx.diffs == build_complex_per_state(d, rule).diffs
                assert cube_homology(cx.diffs) == \
                    homology_groups(cx.diffs), (d.serialize(), rule)

    def test_no_unit_entries_residue_snf(self):
        # no entry is +-1, so nothing cancels and SNF sees the whole
        # complex: Z/2 at (1,0); Z/3 and Z/2^70 at j=1, where d^2 = 0
        # because d(b1) = 0; Z/2 + Z/4 from [[2,4],[6,8]] at j=2; free
        # ranks from zero maps at j=3
        big = 2 ** 70
        cx = _handmade(
            dims={(0, 0): 1, (1, 0): 1,
                  (0, 1): 1, (1, 1): 2, (2, 1): 1,
                  (0, 2): 2, (1, 2): 2,
                  (0, 3): 2, (1, 3): 1},
            diffs={(0, 0): {(0, 0): 2},
                   (0, 1): {(0, 0): 3},
                   (1, 1): {(0, 1): big},
                   (0, 2): {(0, 0): 2, (0, 1): 4, (1, 0): 6, (1, 1): 8}},
        )
        expected = {
            (1, 0): (0, (2,)),
            (1, 1): (0, (3,)),
            (2, 1): (0, (big,)),
            (1, 2): (0, (2, 4)),
            (0, 3): (2, ()),
            (1, 3): (1, ()),
        }
        assert dict(cube_homology(cx)) == expected
        assert dict(homology_groups(cx)) == expected

    def test_unit_created_in_a_scanned_column_goes_to_snf(self,
                                                           monkeypatch):
        # d(x0) = 2 y0 + 3 y1 + 2 y2, d(x1) = y0 + y1, d(x2) = 2 y2, of
        # determinant -2.  The scan passes x0, which has no unit, then
        # cancels x1 against y0 (rows y0 and y1 tie at two entries), which
        # turns x0's entry at y1 into 3 - 2 * 1 * 1 = 1 after x0 was
        # scanned: that unit reaches SNF with the rest of the residue
        from khovanov import homology

        cx = _handmade({(0, 0): 3, (1, 0): 3},
                       {(0, 0): {(0, 0): 2, (1, 0): 3, (2, 0): 2,
                                 (0, 1): 1, (1, 1): 1, (2, 2): 2}})
        blocks = []
        snf = homology.smith_normal_form

        def recording(block, **dims):
            blocks.append(dict(block))
            return snf(block, **dims)

        monkeypatch.setattr(homology, "smith_normal_form", recording)
        assert dict(cube_homology(cx)) == {(1, 0): (0, (2,))}
        # residue rows y1, y2 and columns x0, x2
        assert blocks == [{(0, 0): 1, (1, 0): 2, (1, 1): 2}]
        assert cube_homology(cx) == homology_groups(cx)

    def test_random_matrices_mixing_units_and_non_units(self):
        # fill-in turns units into non-units and back, and a non-unit is
        # never a pivot: a two-term complex Z^c -> Z^r of a random matrix
        rng = random.Random(515)
        values = (-2, -1, -1, 0, 0, 0, 0, 1, 1, 2, 3)
        for _ in range(400):
            nr, nc = rng.randint(1, 7), rng.randint(1, 7)
            d = {(r, c): v for r in range(nr) for c in range(nc)
                 if (v := rng.choice(values))}
            cx = _handmade({(0, 0): nc, (1, 0): nr}, {(0, 0): d})
            assert cube_homology(cx) == homology_groups(cx), (nr, nc, d)

    def test_unimodular_change_of_basis(self):
        # d' = P d Q^-1 with random unimodular P, Q per bidegree: the entries
        # are no longer units (and grow), the homology is unchanged
        rng = random.Random(606)
        diagrams = [TREFOIL, parse_pd("X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]")]
        diagrams += random_diagrams(seed=607, count=6, max_crossings=4)
        for d in diagrams:
            cx = build_complex(d)
            base = {bd: _unimodular(rng, cx.dim(bd)) for bd in cx.bidegrees()}
            diffs = {}
            for bd in cx.bidegrees():
                tgt = (bd[0] + 1, bd[1])
                if not cx.diffs.block(bd):
                    continue
                dense = [[0] * cx.dim(bd) for _ in range(cx.dim(tgt))]
                for (r, c), v in cx.diffs.block(bd).items():
                    dense[r][c] = v
                p, q = base[tgt][0], base[bd][1]
                pd_ = [[sum(a * b for a, b in zip(row, col))
                        for col in zip(*dense)] for row in p]
                out = [[sum(a * b for a, b in zip(row, col))
                        for col in zip(*q)] for row in pd_]
                diffs[bd] = {(r, c): v for r, row in enumerate(out)
                             for c, v in enumerate(row) if v}
            rebased = _handmade({bd: cx.dim(bd) for bd in cx.bidegrees()},
                                diffs)
            assert cube_homology(rebased) == cube_homology(cx.diffs) == \
                homology_groups(rebased), d.serialize()

    def test_trefoil_grown_to_nine_crossings(self, corpus_by_name):
        # 21,870 generators, largest block 1,764: dense SNF needs minutes
        rng = random.Random(9)
        d = TREFOIL
        while d.n < 9:
            kind = "R2" if d.n <= 7 and rng.random() < 0.5 else "R1"
            variant = rng.choice(["+", "-", "+over", "-over"]) \
                if kind == "R1" else ""
            d, _ = apply_move(d, MovePatch(kind, "complicate",
                                           arcs=(rng.choice(d.arcs),),
                                           variant=variant))
        assert d.n == 9
        expected = HomologyTable.from_json(
            corpus_by_name["trefoil"]["homology"])
        assert compare_tables(cube_homology(build_complex(d).diffs),
                              expected) == []

    def test_trefoil_grown_to_ten_crossings(self, corpus_by_name):
        # the benchmark's grower, seed 7: 65,610 generators
        d = grow(TREFOIL, 10, seed=7)
        cx = build_complex(d)
        assert cx.total_dim() == 65_610
        expected = HomologyTable.from_json(
            corpus_by_name["trefoil"]["homology"])
        assert compare_tables(cube_homology(cx.diffs), expected) == []


class TestCompare:
    def test_reflexive(self):
        t = homology_groups(build_complex(TREFOIL).diffs)
        assert compare_tables(t, t) == []

    def test_trefoil_vs_unknot_first_difference(self):
        t = homology_groups(build_complex(TREFOIL).diffs)
        u = homology_groups(build_complex(parse_pd("O")).diffs)
        diffs = compare_tables(t, u)
        assert diffs
        assert (diffs[0]["i"], diffs[0]["j"]) == (0, -1)
        assert any((d["i"], d["j"]) == (0, 3) for d in diffs)

    def test_json_roundtrip(self):
        t = homology_groups(build_complex(TREFOIL).diffs)
        again = HomologyTable.from_json(t.to_json())
        assert compare_tables(t, again) == []


class TestInvarianceChains:
    def test_random_complication_chains_preserve_homology(self):
        # chains of R1/R2 complications never change the homology table
        import random as _random

        from khovanov import MovePatch, apply_move
        from helpers import SEEDS

        rng = _random.Random(77)
        for pd in SEEDS:
            seed = parse_pd(pd)
            base = cube_homology(build_complex(seed).diffs)
            d = seed
            for _ in range(2):
                kind = rng.choice(["R1", "R2"])
                arc = rng.choice(d.arcs) if d.arcs else 0
                variant = rng.choice(["+", "-", "+over", "-over"])
                d, _corr = apply_move(
                    d, MovePatch(kind, "complicate", arcs=(arc,),
                                 variant=variant)
                )
                assert compare_tables(
                    base, cube_homology(build_complex(d).diffs)
                ) == [], (pd, d.serialize())
