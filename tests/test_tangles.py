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
    TangleComplex,
    _compose,
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
    tangle_violations_pairwise,
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
    return cube_homology(build_complex(d).diffs)


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


class TestKinksFirst:
    """The crossing order takes a kink as it reaches the frontier, unless
    another crossing narrows the frontier more, and its small circle
    cancels in that step, so R1 kinks and R2 folds hardly widen the tangle
    complexes.  The bounds are the largest
    tensor's object counts in that order; taking the most ends on open
    arcs, with no regard to own arcs, exceeds each (21, 69 and over 5,000).
    Objects are counted, not seconds, and the count stops at the first
    tensor over its bound."""

    @pytest.mark.parametrize("pd,n,seed,largest", [
        (TREFOIL, 7, 7, 18), (TREFOIL, 15, 7, 18),
        (FIGURE_EIGHT, 90, 1, 264),
    ], ids=["trefoil7", "trefoil15", "figure_eight90"])
    def test_largest_tensor(self, pd, n, seed, largest):
        d = grow(parse_pd(pd), n, seed)
        assert d.n == n
        for step, size in enumerate(helpers.tensor_sizes(d)):
            assert size <= largest, step


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
        violations = tangle_homology(d, check=True)[1]
        assert violations != []
        assert violations == tangle_violations_pairwise(d)


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


class TestTorusStability:
    """Torus-link stability: for fixed p, the table of T(p, q + 1) equals
    that of T(p, q) with j shifted by p - 1 in every degree
    0 <= i < p + q - 2.  The statement is recalled from Stosic,
    "Homological thickness and stability of torus knots" (arXiv
    math/0511532; the id is quoted from memory, and the paper was not
    consulted offline).  Why it holds: T(p, q + 1) is the closure of
    T(p, q)'s braid word followed by one more sigma_1 ... sigma_{p-1}, p - 1
    more positive crossings.  In the cube of those crossings, the vertex
    that gives each of them its 0-smoothing is the diagram of T(p, q),
    shifted by p - 1 in j (n+ grows by p - 1), and every other vertex sits
    in the cone with homology only from degree p + q - 2 up.

    The range tested is exactly 0 <= i < p + q - 2, for p = 2, 3 and 4
    and q in 2..11, 2..12 and 2..8 (28 pairs, ``helpers.
    torus_stability_gaps``).  Only that lower range is tested, because
    agreement past it is not part of the statement: on this ladder it often
    runs two degrees further, and it stops exactly at the bound on T(2,2),
    T(2,4), T(3,3) and T(4,2), among others, so a wider range would pin
    accidents of the ladder.  Positive torus links have no homology at
    i < 0.  p = 5 (T(5,6) to T(5,9)) runs in CI, outside tier-1."""

    LADDER = {2: range(2, 12), 3: range(2, 13), 4: range(2, 9)}

    def test_ladder(self):
        assert sum(len(qs) for qs in self.LADDER.values()) == 28
        for p, qs in self.LADDER.items():
            assert helpers.torus_stability_gaps(p, qs) == {}, p

    def test_stability_sees_a_flipped_koszul_sign(self, monkeypatch):
        # the sign flipped at odd degrees only: stability then fails from
        # T(3,3) to T(3,4) and from T(4,2) to T(4,3)
        from khovanov import tangles

        monkeypatch.setattr(tangles, "_koszul", lambda h: 1)
        broken = {(p, q) for p, qs in self.LADDER.items()
                  for q in helpers.torus_stability_gaps(p, qs)}
        assert broken == {(3, 3), (4, 2)}


def _template_diagrams():
    """The corpus, 30 random diagrams, T(4,5), its mirror and T(3,7)."""
    return ([parse_pd(e["pd"]) for e in CORPUS if "X" in e["pd"]]
            + random_diagrams(seed=2028, count=30, max_crossings=8)
            + [torus(4, 5), torus(4, 5, -1), torus(3, 7)])


class TestTemplateOracle:
    def test_every_template_matches_the_union_find_layer(self):
        # every template in the store of a checked run (tensors, the d^2
        # composites and the eliminations' composites) against the oracle;
        # a composite with an undotted identity factor builds none, so the
        # mirror of T(4,5) and T(3,7) keep the composites above the floor
        built = Counter()
        for d in _template_diagrams():
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

    def test_identity_composites_match_the_template_path(self, monkeypatch):
        # every composite with an undotted identity factor {0: c} that the
        # checked runs meet, in the d^2 checks and the eliminations, equals
        # gluing its composite template (helpers.compose_by_template)
        from khovanov import tangles

        templates, met = {}, Counter()

        def checked(g, f, ma, mb, mc, store, memo):
            out = _compose(g, f, ma, mb, mc, store, memo)
            sides = [side for side, m1, m2, h in (("f", ma, mb, f),
                                                   ("g", mb, mc, g))
                     if m1 == m2 and list(h) == [0]]
            if sides:
                assert out == helpers.compose_by_template(
                    g, f, ma, mb, mc, templates), (ma, mb, mc)
                met.update((side, (ma, mb, mc)) for side in sides)
            return out

        monkeypatch.setattr(tangles, "_compose", checked)
        for d in _template_diagrams():
            assert tangle_homology(d, max_crossings=30, check=True)[1] == []
        keys = Counter(side for side, _ in met)
        assert keys["f"] > 100 and keys["g"] > 100, keys

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


class TestSharedTemplateStore:
    def test_second_table_reuses_the_first_tables_templates(
            self, monkeypatch):
        # the homology_invariance check's two tables share one store: the
        # moved diagram's table builds fewer tensor templates after the
        # diagram's than with a store of its own, and is the same table
        from khovanov import MovePatch, apply_move, tangles

        built = []
        original = tangles._tensor_template

        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(tangles, "_tensor_template", counting)
        d = grow(parse_pd("X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]"), 6, seed=3)
        moved, _ = apply_move(d, MovePatch("R2", "complicate", arcs=(2,)))
        own = tangle_homology(moved)[0]
        alone = len(built)
        store = {}
        tangle_homology(d, store=store)
        del built[:]
        assert tangle_homology(moved, store=store)[0] == own
        assert 0 < len(built) < alone, (len(built), alone)


class TestCertificate:
    """d^2 = 0 by certificate (``TangleComplex.d_squared_zero``: d^2 on the
    complex before each tensor, then the tensor's P-N blocks) against
    summing every pair of entries of every tensor, the check it replaced
    (``helpers.tangle_violations_pairwise``): the same violation lists on
    correct code and under seeded mutations, and each mutation seen."""

    CROSSED = [parse_pd(e["pd"]) for e in CORPUS if "X" in e["pd"]]
    MUTATED = CROSSED + [torus(4, 5), torus(4, 5, -1)]

    def test_corpus_random_and_t45(self):
        diagrams = ([parse_pd(e["pd"]) for e in CORPUS]
                    + random_diagrams(seed=2033, count=100, max_crossings=8)
                    + [torus(4, 5), torus(4, 5, -1)])
        assert len(diagrams) == 120
        for d in diagrams:
            assert tangle_homology(d, check=True)[1] == [] == \
                tangle_violations_pairwise(d), d.serialize()

    def assert_same(self, diagrams, calls=None) -> list:
        """Each diagram's violations by certificate and by the pairwise
        oracle, with ``calls`` (a counter the mutation reads) reset before
        each run; they must be equal, and some nonempty."""
        lists = []
        for d in diagrams:
            runs = []
            for run in (lambda: tangle_homology(d, check=True)[1],
                        lambda: tangle_violations_pairwise(d)):
                if calls is not None:
                    calls.clear()
                runs.append(run())
            assert runs[0] == runs[1], d.serialize()
            lists.append(runs[0])
        assert any(lists)
        return lists

    def test_wrong_saddle_sign_on_one_block(self, monkeypatch):
        # the Koszul sign of one object's saddle flipped, the third saddle
        # of each run: one P-N block of d^2 is nonzero
        from khovanov import tangles

        koszul, calls = tangles._koszul, []

        def once_wrong(h):
            calls.append(h)
            return -koszul(h) if len(calls) == 3 else koszul(h)

        monkeypatch.setattr(tangles, "_koszul", once_wrong)
        lists = self.assert_same(self.MUTATED, calls)
        assert sum(map(bool, lists)) >= 10, lists

    def test_source_loops_read_as_target_loops(self, monkeypatch):
        # a source loop delooped with a target loop's convention (dotted to
        # {-1}, undotted to {+1}): every sign of the piece's source loops
        # flipped in both expansions.  Elimination then cancels little, so
        # the torus knots are left out: their complexes grow too large
        from khovanov import tangles

        def swapped(sides, glues, boundary):
            out = []
            for f, g, genus, expansions in _template(sides, glues, boundary):
                flip = 0
                for src, _, _, _ in expansions[0]:
                    flip |= src
                out.append((f, g, genus, tuple(
                    tuple((src ^ flip, tgt, keys, c)
                          for src, tgt, keys, c in terms)
                    for terms in expansions)))
            return out

        monkeypatch.setattr(tangles, "_template", swapped)
        lists = self.assert_same(self.CROSSED)
        assert sum(map(bool, lists)) >= 5, lists

    def test_corrupted_entry_after_elimination(self, monkeypatch):
        # the second elimination of each run doubles one entry f: x -> y
        # with g . f != 0 for an entry g out of y, so d_C^2 != 0 on the
        # eliminated complex C and nowhere else: the certificate must see
        # it in d_C^2, at the next crossing, or in the residue
        from khovanov import tangles

        eliminate, calls = TangleComplex.eliminate, []

        def corrupting(cx, store):
            eliminate(cx, store)
            calls.append(cx)
            if len(calls) != 2:
                return
            obj, canon = cx.objects, cx.canon
            for x, row in enumerate(cx.d):
                for y, f in row.items():
                    if any(_compose(g, f, canon[obj[x][1]], canon[obj[y][1]],
                                    canon[obj[z][1]], {}, {})
                           for z, g in cx.d[y].items()):
                        row[y] = {keys: 2 * c for keys, c in f.items()}
                        return

        monkeypatch.setattr(tangles.TangleComplex, "eliminate", corrupting)
        lists = self.assert_same(self.MUTATED, calls)
        assert all(lists[-2:]), lists  # T(4,5) and its mirror
