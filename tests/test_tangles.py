"""The tangle-by-tangle engine against the whole cube, which stays its
oracle: the same integral tables, torsion included, with d^2 = 0 on every
tangle complex; and, crossing by crossing, each tangle complex's graded
Euler characteristic per matching equal to the frontier Jones sum's layer,
(-q)^#negative (q + 1/q)^loops summed per matching."""

import json

import pytest

from khovanov import build_complex, homology_groups, parse_pd
from khovanov.cli import default_corpus_path
from khovanov.homology import HomologyTable
from khovanov.states import (
    LaurentPoly,
    TooManyCrossingsError,
    _frontier_layer,
    _greedy_order,
)
from khovanov.tangles import (
    _neck_cut,
    tangle_complexes,
    tangle_homology,
)

from helpers import grow, random_diagrams

TREFOIL = "X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]"
FIGURE_EIGHT = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"
HOPF = "X[4,1,3,2] X[2,3,1,4]"
# the right trefoil split from a Hopf link and a loop: the frontier empties
# after the trefoil
SPLIT = TREFOIL + " X[10,7,9,8] X[7,10,8,9] O"

with open(default_corpus_path()) as f:
    CORPUS = json.load(f)


def cube_table(d) -> HomologyTable:
    return homology_groups(build_complex(d))


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
