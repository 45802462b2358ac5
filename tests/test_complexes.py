import json

import pytest

from khovanov import jones_kauffman, jones_refined, parse_pd
from khovanov.complexes import (
    build_complex,
    flip_coefficient,
    graded_euler,
    saddle,
    verify_d_squared,
)

from helpers import build_complex_per_state, random_diagrams, saddle_per_state

TREFOIL = parse_pd("X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]")


class TestBuild:
    def test_unknot(self):
        cx = build_complex(parse_pd("O"))
        assert cx.census() == {(0, 1): 1, (0, -1): 1}
        assert all(not m for m in cx.diffs.values())

    def test_positive_kink(self):
        cx = build_complex(parse_pd("X[1,1,2,2]"))
        assert cx.total_dim() == 6
        nonzero = {bd for bd, m in cx.diffs.items() if m}
        assert nonzero and all(bd[0] == 0 for bd in nonzero)

    def test_trefoil_census(self):
        # binomial marker census times 2^r from the hand-traced circle counts:
        # i=0: 2^2, i=1: 3*2^1, i=2: 3*2^2, i=3: 2^3
        cx = build_complex(TREFOIL)
        per_i = {}
        for (i, j), gens in cx.gens.items():
            per_i[i] = per_i.get(i, 0) + len(gens)
        assert per_i == {0: 4, 1: 6, 2: 12, 3: 8}
        assert cx.total_dim() == 30

    def test_entries_are_units(self):
        for d in random_diagrams(seed=5, count=15):
            cx = build_complex(d)
            for m in cx.diffs.values():
                assert all(v in (-1, 1) for v in m.values())

    def test_j_preserved_i_raised(self):
        cx = build_complex(TREFOIL)
        for (i, j), m in cx.diffs.items():
            tgt = (i + 1, j)
            for (r, c) in m:
                assert 0 <= c < cx.dim((i, j))
                assert 0 <= r < cx.dim(tgt)


class TestDSquared:
    def test_corpus(self, corpus):
        for entry in corpus:
            cx = build_complex(parse_pd(entry["pd"]))
            assert verify_d_squared(cx) == [], entry["name"]

    def test_random_100(self):
        for d in random_diagrams(seed=17, count=100):
            assert verify_d_squared(build_complex(d)) == []

    def test_corrupted_sign_detected(self):
        cx = build_complex(TREFOIL)
        bd = next(bd for bd, m in sorted(cx.diffs.items()) if m)
        entry = sorted(cx.diffs[bd])[0]
        cx.diffs[bd][entry] = -cx.diffs[bd][entry]
        bad = verify_d_squared(cx)
        assert bad and bad[0][0] in (bd[0] - 1, bd[0])

    def test_unknot_vacuous(self):
        assert verify_d_squared(build_complex(parse_pd("O"))) == []


class TestEuler:
    def test_unknot(self):
        cx = build_complex(parse_pd("O"))
        assert graded_euler(cx) == jones_kauffman(parse_pd("O"))

    def test_trefoil(self):
        assert graded_euler(build_complex(TREFOIL)) == jones_kauffman(TREFOIL)

    def test_corpus(self, corpus):
        for entry in corpus:
            d = parse_pd(entry["pd"])
            cx = build_complex(d)
            assert graded_euler(cx) == jones_refined(d) == jones_kauffman(d)

    def test_random(self):
        for d in random_diagrams(seed=29, count=20):
            assert graded_euler(build_complex(d)) == jones_kauffman(d)


class TestSaddle:
    def test_single_merge_or_split(self):
        for d in random_diagrams(seed=31, count=10):
            cx = build_complex(d)
            for key, s in cx.states.items():
                for c in range(d.n):
                    terms = saddle(d, s, c)
                    assert 0 <= len(terms) <= 2
                    for t, k in terms:
                        assert k == 1
                        assert abs(len(t.circles) - len(s.circles)) == 1
                    # flips in both directions, as moves.py uses them
                    assert terms == saddle_per_state(d, s, c)

    def test_flip_coefficient_rules(self):
        markers = (1, -1, -1, 1)
        assert flip_coefficient(markers, 0, "before") == 1
        assert flip_coefficient(markers, 3, "before") == 1
        assert flip_coefficient((1, -1, 1, 1), 2, "before") == -1
        assert flip_coefficient(markers, 0, "after") == 1
        assert flip_coefficient((1, 1, -1, 1), 0, "after") == -1
        with pytest.raises(ValueError):
            flip_coefficient(markers, 0, "sideways")

    def test_after_rule_also_gives_complex(self):
        for d in random_diagrams(seed=37, count=10):
            assert verify_d_squared(build_complex(d, sign_rule="after")) == []


class TestPerEdgeBuild:
    """``build_complex`` resolves each cube edge once; the oracle works out
    every enhanced state's saddles on its own."""

    @pytest.mark.parametrize("rule", ["before", "after"])
    def test_corpus(self, corpus, rule):
        for entry in corpus:
            d = parse_pd(entry["pd"])
            assert build_complex(d, sign_rule=rule).to_json() == \
                build_complex_per_state(d, rule).to_json(), entry["name"]

    @pytest.mark.parametrize("rule", ["before", "after"])
    def test_random(self, rule):
        for d in random_diagrams(seed=53, count=40, max_crossings=7):
            assert build_complex(d, sign_rule=rule).to_json() == \
                build_complex_per_state(d, rule).to_json(), d.serialize()


def test_json_dump_deterministic():
    cx = build_complex(TREFOIL)
    a = json.dumps(cx.to_json(), sort_keys=True)
    b = json.dumps(build_complex(TREFOIL).to_json(), sort_keys=True)
    assert a == b
    payload = cx.to_json()
    assert sum(row["dim"] for row in payload["census"]) == 30
