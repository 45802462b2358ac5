"""The tangle-by-tangle engine against the whole cube, which stays its
oracle: the same integral tables, torsion included, with d^2 = 0 on every
tangle complex; and, crossing by crossing, each tangle complex's graded
Euler characteristic per matching equal to the frontier Jones sum's layer,
(-q)^#negative (q + 1/q)^loops summed per matching."""

import json
import random
from collections import Counter

import pytest

from khovanov import build_complex, from_braid, parse_pd
from khovanov.cli import default_corpus_path
from khovanov.diagram import mirror
from khovanov.homology import (
    HomologyTable,
    _invariant_factors,
    smith_normal_form,
)
from khovanov.states import (
    LaurentPoly,
    TooManyCrossingsError,
    _frontier_layer,
    _greedy_order,
)
from khovanov.tangles import (
    _template,
    tangle_complexes,
    tangle_homology,
)

import helpers
from helpers import (
    _neck_cut,
    cube_homology,
    dual_table,
    engine_pieces,
    grow,
    homology_with_loops,
    invariant_factors_by_primes,
    oracle_pieces,
    random_diagrams,
)

TREFOIL = "X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]"
FIGURE_EIGHT = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"
HOPF = "X[4,1,3,2] X[2,3,1,4]"
# the right trefoil split from a Hopf link and a loop: the frontier empties
# after the trefoil
SPLIT = TREFOIL + " X[10,7,9,8] X[7,10,8,9] O"

with open(default_corpus_path()) as f:
    CORPUS = json.load(f)


def cube_table(d) -> HomologyTable:
    return cube_homology(build_complex(d))


def checked_table(d) -> HomologyTable:
    table, violations = tangle_homology(d, check=True)
    assert violations == [], d
    return table


class TestOracle:
    @pytest.mark.parametrize("entry", CORPUS, ids=[e["name"] for e in CORPUS])
    def test_corpus(self, entry):
        d = parse_pd(entry["pd"])
        table = checked_table(d)
        assert table == cube_table(d)
        if "homology" in entry:
            assert table == HomologyTable.from_json(entry["homology"])

    def test_random_diagrams(self):
        diagrams = random_diagrams(seed=2026, count=100)
        torsion = 0
        for d in diagrams:
            table = checked_table(d)
            assert table == cube_table(d), d
            torsion += any(tor for _, tor in table.values())
        assert torsion >= 10  # the torsion path is exercised, not skipped

    @pytest.mark.parametrize("pd,seed", [(TREFOIL, 7), (FIGURE_EIGHT, 3),
                                         (HOPF, 11)],
                             ids=["trefoil", "figure_eight", "hopf"])
    def test_grown_to_nine(self, pd, seed):
        d = grow(parse_pd(pd), 9, seed)
        assert d.n == 9
        assert checked_table(d) == cube_table(d)

    def test_split_diagram_and_loops(self):
        d = parse_pd(SPLIT)
        assert _greedy_order(d)[:3] == [0, 1, 2]
        assert checked_table(d) == cube_table(d)
        loops = parse_pd("O O O")
        assert checked_table(loops) == cube_table(loops)

    @pytest.mark.parametrize("n", [13, 16])
    def test_grown_trefoil_keeps_the_base_table(self, n):
        base = parse_pd(TREFOIL)
        d = grow(base, n, 7)
        assert d.n == n
        assert checked_table(d) == checked_table(base) == cube_table(base)

    def test_guard(self):
        d = grow(parse_pd(TREFOIL), 17, 7)
        with pytest.raises(TooManyCrossingsError, match="guard of 16"):
            tangle_homology(d)
        assert tangle_homology(d, max_crossings=17)[0] == \
            cube_table(parse_pd(TREFOIL))


class TestLoops:
    """The diagram's crossingless loops act on the residue's table: each
    one doubles it, with q-shifts +1 and -1, and the torsion of a
    bidegree is merged into invariant factors."""

    @pytest.mark.parametrize("pd", [TREFOIL, FIGURE_EIGHT, HOPF],
                             ids=["trefoil", "figure_eight", "hopf"])
    @pytest.mark.parametrize("loops", [1, 2, 3])
    def test_whole_cube(self, pd, loops):
        d = parse_pd(pd + " O" * loops)
        assert checked_table(d) == cube_table(d)

    @pytest.mark.parametrize("pd,loops", [
        (TREFOIL, 12), (FIGURE_EIGHT, 5),
        (from_braid([1, 2, 3] * 5, 4).serialize(), 3),
    ], ids=["trefoil", "figure_eight", "t45"])
    def test_sign_vector_oracle(self, pd, loops):
        # T(4,5) has torsion Z/2 and Z/4; 12 loops put 924 copies of the
        # trefoil's Z/2 in one bidegree
        base = tangle_homology(parse_pd(pd))[0]
        d = parse_pd(pd + " O" * loops)
        assert tangle_homology(d)[0] == homology_with_loops(base, loops)

    def test_invariant_factors(self):
        # against Smith normal form of the diagonal matrix of the orders
        # and against primary decomposition
        rng = random.Random(2029)
        values = (2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 27, 30, 2 ** 70, 3 ** 40)
        for _ in range(300):
            orders = [rng.choice(values) for _ in range(rng.randint(0, 9))]
            diagonal = {(k, k): a for k, a in enumerate(orders)}
            snf = smith_normal_form(diagonal, rows=len(orders),
                                    cols=len(orders)).factors
            merged = _invariant_factors(orders)
            assert merged == tuple(f for f in snf if f > 1), orders
            assert merged == invariant_factors_by_primes(orders), orders
        assert _invariant_factors([2] * 924) == (2,) * 924
        assert _invariant_factors([4, 6, 10]) == (2, 2, 60)


def _corpus_and_random():
    return ([parse_pd(e["pd"]) for e in CORPUS if "X" in e["pd"]]
            + random_diagrams(seed=2027, count=30, max_crossings=8)
            + [grow(parse_pd(TREFOIL), 13, 7), parse_pd(SPLIT)])


class TestDecategorification:
    def test_euler_per_matching_is_the_frontier_layer(self):
        for d in _corpus_and_random():
            order = _greedy_order(d)
            steps = 0
            for step, (k, cx) in enumerate(tangle_complexes(d)):
                assert k == order[step]
                layer = _frontier_layer(d, order[:step + 1])
                euler = {}
                for h, m, q in cx.objects:
                    euler.setdefault(m, LaurentPoly()).add_term(
                        -1 if h % 2 else 1, q)
                assert {m: p for m, p in euler.items() if p} == \
                    {m: p for m, p in layer.items() if p}, (d, step)
                steps += 1
            assert steps == d.n

    def test_objects_are_crossingless_matchings(self):
        # objects are (degree, matching of the open labels, q-shift); the
        # residue after the last crossing has the empty matching only
        d = grow(parse_pd(FIGURE_EIGHT), 10, 5)
        for _, cx in tangle_complexes(d):
            for h, m, q in cx.objects:
                labels = [a for pair in m for a in pair]
                assert len(set(labels)) == len(labels)
                assert all(a < b for a, b in m) and list(m) == sorted(m)
        assert all(m == () for _, m, _ in cx.objects)


class TestClosedForms:
    def test_neck_cutting(self):
        tags = ("a", "b", "c")
        # an undotted pair of pants is a sum of three dotted-disk terms
        assert _neck_cut(0, 0, tags) == [(("b", "c"), 1), (("a", "c"), 1),
                                         (("a", "b"), 1)]
        assert _neck_cut(0, 1, tags) == [(tags, 1)]
        assert _neck_cut(1, 1, tags) == [(tags, 2)]
        assert _neck_cut(0, 2, tags) == _neck_cut(1, 2, tags) == []
        # closed pieces: the sphere is 0, the dotted sphere 1, the torus 2
        assert _neck_cut(0, 0, ()) == []
        assert _neck_cut(0, 1, ()) == [((), 1)]
        assert _neck_cut(1, 1, ()) == [((), 2)]
        assert _neck_cut(2, 2, ()) == []

    @pytest.mark.parametrize("pd", [TREFOIL, FIGURE_EIGHT, HOPF],
                             ids=["trefoil", "figure_eight", "hopf"])
    def test_d_squared_check_sees_a_dropped_koszul_sign(self, monkeypatch,
                                                        pd):
        from khovanov import tangles

        d = parse_pd(pd)
        assert tangle_homology(d, check=True)[1] == []
        monkeypatch.setattr(tangles, "_koszul", lambda h: 1)
        assert tangle_homology(d, check=True)[1] != []


def torus(p, q, sign=1):
    """T(p, q) as the closure of (sigma_1 ... sigma_{p-1})^q, or of its
    inverse-letter word (the mirror) when ``sign`` is -1."""
    return from_braid([sign * i for i in range(1, p)] * q, p)


def t2_closed_form(n) -> HomologyTable:
    """Kh of the positive T(2, n), n odd (Khovanov, arXiv math/9908171,
    section 6): Z at (0, n - 2) and (0, n), and for i = 1 .. (n - 1) / 2 Z
    at (2i, n + 4i - 2) and (2i + 1, n + 4i + 2), Z/2 at (2i + 1, n + 4i)."""
    table = HomologyTable({(0, n - 2): (1, ()), (0, n): (1, ())})
    for i in range(1, (n - 1) // 2 + 1):
        table[2 * i, n + 4 * i - 2] = (1, ())
        table[2 * i + 1, n + 4 * i + 2] = (1, ())
        table[2 * i + 1, n + 4 * i] = (0, (2,))
    return table


class TestBraidClosures:
    @pytest.mark.parametrize("n", range(1, 16, 2))
    def test_t2n_closed_form(self, n):
        table = t2_closed_form(n)
        assert checked_table(torus(2, n)) == table
        assert checked_table(torus(2, n, -1)) == dual_table(table)

    @pytest.mark.parametrize("p,q", [(2, 5), (3, 4)])
    def test_whole_cube(self, p, q):
        for sign in (1, -1):
            d = torus(p, q, sign)
            assert checked_table(d) == cube_table(d)

    @pytest.mark.parametrize("p,q", [(3, 5), (4, 5)])
    def test_h0_oracle(self, p, q):
        # H^0 of a positive knot is Z exactly at j = s - 1 and s + 1, with
        # s = (p - 1)(q - 1) for T(p, q) (Khovanov, arXiv math/0201306;
        # Rasmussen, arXiv math/0402131), and at -s -+ 1 for the mirror
        s = (p - 1) * (q - 1)
        for sign in (1, -1):
            table = checked_table(torus(p, q, sign))
            assert {(i, j): v for (i, j), v in table.items() if i == 0} == \
                {(0, sign * s - 1): (1, ()), (0, sign * s + 1): (1, ())}


class TestMirrorDuality:
    """Kh of the mirror image is the dual of Kh: free rank at (i, j) moves to
    (-i, -j) and torsion at (i, j) to (1 - i, -j) (``helpers.dual_table``).
    The engine computes the two tables independently, so an error that
    changes a table shows here unless it changes the mirror's table in the
    dual way."""

    @staticmethod
    def assert_dual(d, max_crossings=16):
        table = tangle_homology(d, max_crossings)[0]
        assert tangle_homology(mirror(d), max_crossings)[0] == \
            dual_table(table), d.serialize()
        return table

    def test_corpus(self):
        assert len(CORPUS) == 18
        for entry in CORPUS:
            self.assert_dual(parse_pd(entry["pd"]))

    def test_random_diagrams(self):
        for d in random_diagrams(seed=2031, count=100, max_crossings=8):
            self.assert_dual(d)

    def test_torus_knots_with_torsion(self):
        # T(3,7), T(4,5) and T(5,6), whose torsion orders include 2, 3, 10
        orders = set()
        for p, q in ((3, 7), (4, 5), (5, 6)):
            table = self.assert_dual(torus(p, q), max_crossings=30)
            orders.update(o for _, torsion in table.values() for o in torsion)
        assert {2, 3, 10} <= orders

    def test_duality_sees_a_flipped_koszul_sign(self, monkeypatch):
        # the sign flipped at odd degrees only, where it is -1: the tables
        # of small diagrams keep their values, T(3,7)'s do not.  Flipping
        # it at every degree negates d on each tensor step, an isomorphic
        # complex, so no table can show that
        from khovanov import tangles

        d = torus(3, 7)
        self.assert_dual(d)
        monkeypatch.setattr(tangles, "_koszul", lambda h: 1)
        with pytest.raises(AssertionError):
            self.assert_dual(d)


class TestTemplateOracle:
    def test_every_template_matches_the_union_find_layer(self):
        # every template in the store of a checked run (tensors, the d^2
        # composites and the eliminations' composites) against the oracle
        diagrams = ([parse_pd(e["pd"]) for e in CORPUS if "X" in e["pd"]]
                    + random_diagrams(seed=2028, count=30, max_crossings=8)
                    + [torus(4, 5)])
        built = Counter()
        for d in diagrams:
            store = {}
            for _ in tangle_complexes(d, [], store):
                pass
            for key, template in store.items():
                if isinstance(key[0], int):  # an interned piece
                    assert template is key
                    continue
                assert engine_pieces(template) == oracle_pieces(key), (d, key)
                built["tensor" if len(key) == 4 else "compose"] += 1
        assert built["tensor"] > 1000 and built["compose"] > 1000, built

    @pytest.mark.parametrize("glues,kinds", [
        (1, (0,)), (2, (0, 2)), (3, (0,)), (3, (1,)), (3, (0, 1, 2)),
        (4, (2, 0)), (5, (0,)), (5, (1,)), (5, (2,)), (6, ()),
    ])
    def test_positive_genus(self, glues, kinds):
        # no glued piece of the engine has positive genus on any diagram
        # tried so far, so the closed forms for g > 0 are checked here: two
        # disks (rank 0 of f and of g) glued along ``glues`` intervals, with
        # one boundary circle per kind (0 a cycle, 1 a source loop, 2 a
        # target loop), genus (glues - circles) / 2
        boundary = [(k % 2, kind, 1 << k) for k, kind in enumerate(kinds)]
        engine = _template([(1, 0), (0, 1)], [(0, 1)] * glues, boundary)
        names = [("f", 0), ("g", 0)]
        oracle = helpers._template(
            names, [tuple(names)] * glues,
            [(names[v], ("kst"[kind], k if kind == 0 else bit))
             for k, (v, kind, bit) in enumerate(boundary)])
        assert engine_pieces(engine) == helpers._pieces(
            oracle, {0: 0}, {0: 0}, {k: k for k in range(len(kinds))})
        [(_, _, genus, (_, ((_, _, _, coeff),)))] = engine
        assert (genus, coeff) == ((glues - len(kinds)) // 2,
                                  1 << (glues - len(kinds)) // 2)
