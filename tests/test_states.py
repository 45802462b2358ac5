import random
import warnings
from itertools import product

import pytest

from khovanov import (
    LaurentPoly,
    MovePatch,
    apply_move,
    from_braid,
    jones_kauffman,
    jones_refined,
    parse_pd,
    trace_circles,
)
from khovanov.complexes import build_complex
from khovanov.diagram import mirror
from khovanov.states import (
    TooManyCrossingsError,
    _frontier_layer,
    _frontier_sum,
    _greedy_order,
)

from helpers import (
    check_skein,
    enumerate_enhanced,
    greedy_order_rescan,
    jones_census,
    jones_enhanced,
    random_diagrams,
    smooth_crossing,
    switch_crossing,
)

TREFOIL = parse_pd("X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]")

# Hand-traced circle counts for the right trefoil, indexed by the set of
# negatively marked crossings.  Oracle: follow the arc pairings
# (positive joins ends (0,1),(2,3); negative (1,2),(3,0)) through all
# eight states by hand.
TREFOIL_CIRCLES = {
    (): 2,
    (0,): 1,
    (1,): 1,
    (2,): 1,
    (0, 1): 2,
    (0, 2): 2,
    (1, 2): 2,
    (0, 1, 2): 3,
}


class TestTraceCircles:
    @pytest.mark.parametrize("neg,expect", sorted(TREFOIL_CIRCLES.items()))
    def test_trefoil_hand_trace(self, neg, expect):
        markers = tuple(-1 if k in neg else 1 for k in range(3))
        assert len(trace_circles(TREFOIL, markers)) == expect

    def test_unknot(self):
        assert len(trace_circles(parse_pd("O"), ())) == 1

    def test_order_independence(self):
        # re-trace with crossings processed in reverse; the circle sets agree
        for d in random_diagrams(seed=3, count=10):
            for markers in product((1, -1), repeat=d.n):
                circles = trace_circles(d, markers)
                parent = {a: a for a in d.arcs}

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                for c, m in reversed(list(zip(d.crossings, markers))):
                    for x, y in c.pairs(m):
                        parent[find(x)] = find(y)
                groups = {}
                for a in d.arcs:
                    groups.setdefault(find(a), set()).add(a)
                again = {frozenset(g) for g in groups.values()}
                real = {c for c in circles if min(c) > 0}
                assert real == again


class TestEnhancedStates:
    def test_unknot_states(self):
        states = list(enumerate_enhanced(parse_pd("O")))
        assert sorted((s.i, s.j) for s in states) == [(0, -1), (0, 1)]

    def test_positive_kink_census(self):
        # positive kink: positive marker splits the loop off (2 circles),
        # negative marker gives 1; total 2^2 + 2 = 6
        d = parse_pd("X[1,1,2,2]")
        ks = {m: len(c) for m, c in build_complex(d).circles.items()}
        assert ks == {(1,): 2, (-1,): 1}
        assert sum(1 for _ in enumerate_enhanced(d)) == 6

    def test_trefoil_census(self):
        # Sum over the hand-traced circle counts of 2^r = 30
        assert sum(1 for _ in enumerate_enhanced(TREFOIL)) == 30

    def test_census_identity(self):
        for d in random_diagrams(seed=11, count=10):
            total = sum(2 ** len(trace_circles(d, m))
                        for m in product((1, -1), repeat=d.n))
            assert sum(1 for _ in enumerate_enhanced(d)) == total

    def test_grading_consistency(self):
        w = TREFOIL.writhe()
        for s in enumerate_enhanced(TREFOIL):
            sigma = sum(s.markers)
            tau = sum(s.signs)
            assert (w - sigma) % 2 == 0
            assert s.i == (w - sigma) // 2
            assert s.j == (3 * w - sigma) // 2 + tau
            assert abs(tau) <= s.r and (tau - s.r) % 2 == 0

    def test_guard(self):
        with pytest.raises(TooManyCrossingsError):
            jones_kauffman(TREFOIL, max_crossings=2)


class TestJones:
    def test_unknot_normalization(self):
        u = parse_pd("O")
        expect = LaurentPoly({1: 1, -1: 1})
        assert jones_kauffman(u) == expect
        assert jones_refined(u) == expect

    def test_positive_kink(self):
        assert jones_kauffman(parse_pd("X[1,1,2,2]")) == LaurentPoly({1: 1, -1: 1})

    def test_right_trefoil(self):
        # brute-force state sum gives q + q^3 + q^5 - q^9
        assert jones_kauffman(TREFOIL) == LaurentPoly({1: 1, 3: 1, 5: 1, 9: -1})

    def test_left_trefoil_mirror(self):
        lt = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
        assert jones_kauffman(lt) == LaurentPoly({-1: 1, -3: 1, -5: 1, -9: -1})

    def test_refined_equals_kauffman_corpus(self, corpus):
        for entry in corpus:
            d = parse_pd(entry["pd"])
            assert jones_refined(d) == jones_kauffman(d), entry["name"]

    def test_refined_equals_kauffman_random(self):
        for d in random_diagrams(seed=23, count=30):
            assert jones_refined(d) == jones_kauffman(d)

    def test_refined_equals_enhanced_state_sum(self, corpus):
        # the per-marker-state sum against the enhanced-state-by-state one
        diagrams = [parse_pd(e["pd"]) for e in corpus]
        diagrams += random_diagrams(seed=61, count=60, max_crossings=8)
        assert sum(d.n == 8 for d in diagrams) >= 5
        for d in diagrams:
            assert jones_refined(d) == jones_enhanced(d), d.serialize()

    def test_refined_enumerates_no_enhanced_state(self, monkeypatch):
        # the one enhanced-state enumerator is the test oracle's
        import helpers
        from khovanov import states

        def refuse(*args, **kwargs):
            raise AssertionError("enhanced states enumerated")

        assert not hasattr(states, "enumerate_enhanced")
        monkeypatch.setattr(helpers, "enumerate_enhanced", refuse)
        d = grow(TREFOIL, 9, random.Random(5))
        assert jones_refined(d) == jones_kauffman(d) == \
            LaurentPoly({1: 1, 3: 1, 5: 1, 9: -1})

    def test_r1_r2_invariance(self):
        tr_jones = jones_kauffman(TREFOIL)
        k, _ = apply_move(TREFOIL, MovePatch("R1", "complicate", arcs=(3,),
                                             variant="-"))
        f, _ = apply_move(TREFOIL, MovePatch("R2", "complicate", arcs=(4,)))
        assert jones_kauffman(k) == tr_jones
        assert jones_kauffman(f) == tr_jones


HOPF = "X[4,1,3,2] X[1,4,2,3]"
UNKNOT_POLY = LaurentPoly({1: 1, -1: 1})


def grow(diagram, target, rng):
    """Complicate ``diagram`` by R2 folds and R1 kinks on random arcs until
    it has ``target`` crossings."""
    while diagram.n < target:
        kind = "R2" if target - diagram.n >= 2 and rng.random() < 0.5 else "R1"
        variant = rng.choice(["+", "-", "+over", "-over"]) if kind == "R1" else ""
        diagram, _ = apply_move(diagram, MovePatch(
            kind, "complicate", arcs=(rng.choice(diagram.arcs),),
            variant=variant))
    return diagram


class TestFrontierSum:
    """``jones_kauffman`` sums crossing by crossing; the oracles are the
    refined sum over marker states and the state-by-state census sum."""

    def test_matches_refined_on_random_diagrams(self):
        diagrams = random_diagrams(seed=101, count=120, max_crossings=8)
        assert sum(d.n == 8 for d in diagrams) >= 10
        for d in diagrams:
            assert jones_kauffman(d) == jones_refined(d), d

    @pytest.mark.parametrize("target", [10, 11, 12])
    def test_matches_census_on_grown_diagrams(self, corpus_by_name, target):
        rng = random.Random(target)
        for name in ("trefoil", "trefoil_left", "figure_eight", "hopf_pos"):
            d = grow(parse_pd(corpus_by_name[name]["pd"]), target, rng)
            expect = LaurentPoly.from_json(corpus_by_name[name]["jones"])
            assert jones_census(d) == expect
            assert jones_kauffman(d) == expect, (name, d)

    def test_crossing_order_does_not_matter(self):
        rng = random.Random(5)
        for d in random_diagrams(seed=31, count=40, max_crossings=8):
            greedy = _greedy_order(d)
            assert sorted(greedy) == list(range(d.n))
            expect = _frontier_sum(d, greedy)
            assert _frontier_sum(d, range(d.n)) == expect
            assert _frontier_sum(d, reversed(range(d.n))) == expect
            shuffled = list(range(d.n))
            rng.shuffle(shuffled)
            assert _frontier_sum(d, shuffled) == expect, (d, shuffled)

    def test_loops_only(self):
        assert jones_kauffman(parse_pd("O O O")) == UNKNOT_POLY ** 3

    def test_kink_and_mirror_kink(self):
        # X[1,1,2,2]: the positive marker pairs each arc with itself, the
        # negative one puts arc 1's two ends in different pairs; the mirror
        # kink X[2,1,1,2] has it the other way round
        kink = parse_pd("X[1,1,2,2]")
        for d in (kink, mirror(kink)):
            assert jones_kauffman(d) == UNKNOT_POLY == jones_census(d)

    def test_hopf_link(self, corpus_by_name):
        d = parse_pd(HOPF)
        expect = LaurentPoly({0: 1, 2: 1, 4: 1, 6: 1})
        assert LaurentPoly.from_json(corpus_by_name["hopf_pos"]["jones"]) == expect
        assert jones_kauffman(d) == expect == jones_refined(d)

    def test_split_union_of_trefoil_and_hopf_link(self):
        # the frontier empties after the trefoil's three crossings
        split = parse_pd(TREFOIL.serialize() + " X[10,7,9,8] X[7,10,8,9]")
        assert _greedy_order(split)[:3] == [0, 1, 2]
        expect = jones_kauffman(TREFOIL) * jones_kauffman(parse_pd(HOPF))
        assert jones_kauffman(split) == expect == jones_refined(split)
        assert jones_kauffman(parse_pd(split.serialize() + " O")) == \
            expect * UNKNOT_POLY


class TestGreedyOrder:
    """``_greedy_order`` keeps each crossing's count of ends on open arcs
    plus own arcs and updates it per pick; the oracle re-sums every count at
    every step (``helpers.greedy_order_rescan``).  Ties are frequent on all
    of these, so the tie rules (own arcs, then lowest index) are exercised,
    not just the counts."""

    def test_corpus(self, corpus):
        for entry in corpus:
            d = parse_pd(entry["pd"])
            assert _greedy_order(d) == greedy_order_rescan(d), entry["name"]

    def test_random_diagrams(self):
        diagrams = random_diagrams(seed=4111, count=100, max_crossings=10)
        assert sum(d.n >= 8 for d in diagrams) >= 10
        for d in diagrams:
            assert _greedy_order(d) == greedy_order_rescan(d), d

    @pytest.mark.parametrize("p,q", [(2, 31), (3, 13), (4, 13), (5, 6),
                                     (5, 8), (6, 7), (7, 8)])
    def test_torus_ladder(self, p, q):
        for sign in (1, -1):
            d = from_braid([sign * i for i in range(1, p)] * q, p)
            assert _greedy_order(d) == greedy_order_rescan(d), (p, q, sign)

    def test_grown_diagrams(self):
        # R1 kinks and R2 folds: the own arcs weigh in on many picks
        for base in (TREFOIL, parse_pd(HOPF)):
            for n, seed in ((10, 1), (20, 2), (30, 3), (45, 4)):
                d = grow(base, n, random.Random(seed))
                assert _greedy_order(d) == greedy_order_rescan(d), d

    @pytest.mark.parametrize("pd,order", [
        # the trefoil with kinks 3 and 4 (own arcs 2 and 5): 3 goes first;
        # it opens arcs 1 and 3, so crossings 0 and 1 have one open end,
        # key (1, 0), and kink 4 wins the tie with (1, 1)
        ("X[8,4,9,3] X[10,8,1,7] X[6,10,7,9] X[1,3,2,2] X[4,5,5,6]",
         [3, 4, 0, 1, 2]),
        # two double kinks (two own arcs each) split from the trefoil
        (TREFOIL.serialize() + " X[7,7,8,8] X[9,9,10,10]", [3, 4, 0, 1, 2]),
        # the Hopf link split from the trefoil, with a kink at crossing 3:
        # its component goes first, then the trefoil
        (TREFOIL.serialize() + " X[7,9,8,8] X[12,7,11,10] X[9,12,10,11]",
         [3, 4, 5, 0, 1, 2]),
    ], ids=["two_kinks", "double_kinks", "split_kink"])
    def test_kinks_go_first(self, pd, order):
        d = parse_pd(pd)
        assert _greedy_order(d) == greedy_order_rescan(d) == order
        assert jones_kauffman(d) == jones_refined(d)

    def test_braid_closures_have_no_own_arcs(self):
        # so the key is the count of open ends alone, and the torus
        # ladder's orders are those of that count
        for p, q in ((2, 31), (5, 8), (6, 7), (7, 8)):
            for sign in (1, -1):
                d = from_braid([sign * i for i in range(1, p)] * q, p)
                assert all(len(set(c.ends)) == 4 for c in d.crossings)
        assert _greedy_order(from_braid([1, 2, 3, 4, 5] * 7, 6)) == [
            0, 1, 5, 2, 6, 10, 3, 7, 11, 15, 4, 8, 9, 12, 13, 14, 16, 17, 18,
            19, 20, 21, 22, 23, 24, 25, 26, 30, 27, 31, 28, 32, 29, 33, 34]

    def test_layers_are_laurent_polynomials(self):
        # the weights are plain dicts inside; the layer returned is not
        d = grow(TREFOIL, 8, random.Random(3))
        order = _greedy_order(d)
        for step in range(d.n + 1):
            layer = _frontier_layer(d, order[:step])
            assert layer and all(type(p) is LaurentPoly
                                 for p in layer.values())
        assert layer[()] == _frontier_sum(d, order)


class TestLaurentPoly:
    def test_text_form(self):
        p = LaurentPoly({9: -1, 5: 1, 3: 1, 1: 1})
        assert str(p) == "-q^9 + q^5 + q^3 + q"
        assert str(LaurentPoly({1: 1, -1: 1})) == "q + q^-1"
        assert str(LaurentPoly()) == "0"
        assert str(LaurentPoly({0: 2, 2: -3})) == "-3*q^2 + 2"

    def test_json_roundtrip(self):
        p = LaurentPoly({9: -1, 0: 4, -2: 7})
        assert LaurentPoly.from_json(p.to_json()) == p

    def test_arith(self):
        q = LaurentPoly({1: 1})
        qi = LaurentPoly({-1: 1})
        assert (q + qi) * (q + qi) == LaurentPoly({2: 1, 0: 2, -2: 1})
        assert (q - q) == LaurentPoly()
        assert (q + qi) ** 2 == (q + qi) * (q + qi)


class TestSkein:
    def test_trefoil_triple(self):
        d_minus = switch_crossing(TREFOIL, 0)  # unknots the trefoil
        d_zero = smooth_crossing(TREFOIL, 0)   # positive Hopf link
        assert check_skein(TREFOIL, d_minus, d_zero)

    def test_kink_triple(self):
        kp = parse_pd("X[1,1,2,2]")
        km = switch_crossing(kp, 0)
        k0 = smooth_crossing(kp, 0)  # two-component unlink
        assert k0.loops == 2
        assert check_skein(kp, km, k0)

    def test_figure_eight_triple(self):
        f8 = parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]")
        assert check_skein(f8, switch_crossing(f8, 0), smooth_crossing(f8, 0))

    def test_violating_triple(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert not check_skein(TREFOIL, TREFOIL, parse_pd("O"))

    def test_count_warning(self):
        with pytest.warns(UserWarning, match="crossing counts"):
            check_skein(TREFOIL, TREFOIL, TREFOIL)
