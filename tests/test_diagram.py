import pytest

from khovanov import (
    DiagramError,
    LinkDiagram,
    MovePatch,
    PatchMismatchError,
    PDSyntaxError,
    apply_move,
    parse_pd,
)
from khovanov.diagram import (
    from_braid,
    match_r2,
    match_r3,
    mirror,
)

from helpers import random_diagrams, smooth_crossing, switch_crossing

TREFOIL = "X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]"
TREFOIL_LEFT = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
R2_UNKNOT = "X[2,3,3,4] X[1,1,2,4]"
TRIANGLE = "X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]"


class TestParse:
    def test_trefoil(self):
        d = parse_pd(TREFOIL_LEFT)
        assert d.n == 3
        assert len(d.arcs) == 6
        assert d.components == 1

    def test_empty_rejected(self):
        with pytest.raises(PDSyntaxError):
            parse_pd("")
        with pytest.raises(PDSyntaxError):
            parse_pd("   \n  ")

    def test_kink(self):
        d = parse_pd("X[1,1,2,2]")
        assert d.n == 1
        assert len(d.arcs) == 2
        assert d.components == 1

    def test_syntax_error_position(self):
        with pytest.raises(PDSyntaxError) as exc:
            parse_pd("X[1,2,3] X[4,5,6,7]")
        assert exc.value.line == 1

    @pytest.mark.parametrize("pd", [
        "X[1,2,1,2]",
        "X[1,2,3,2] X[3,4,1,4]",
        "X[1,5,2,5] X[2,4,3,3] X[4,1,6,6]",
    ])
    def test_non_planar_rejected(self, pd):
        with pytest.raises(DiagramError, match="not planar"):
            parse_pd(pd)

    @pytest.mark.parametrize("pd", [
        "O O", f"{TREFOIL} X[7,7,8,8]", f"{TREFOIL} O",
        f"{TREFOIL} X[10,8,11,7] X[12,10,7,9] X[8,12,9,11]",
    ])
    def test_split_planar_accepted(self, pd):
        # F = n + 2 * (connected parts): each part is drawn on its own
        assert parse_pd(pd).serialize() == pd

    def test_dangling_arc(self):
        with pytest.raises(DiagramError, match="arc"):
            parse_pd("X[1,2,3,4] X[1,2,3,5]")

    def test_bad_token(self):
        with pytest.raises(PDSyntaxError):
            parse_pd("Y[1,2,3,4]")

    def test_unknot_loop_token(self):
        d = parse_pd("O")
        assert d.n == 0 and d.loops == 1 and d.components == 1

    def test_roundtrip_corpus(self, corpus):
        for entry in corpus:
            d = parse_pd(entry["pd"])
            assert parse_pd(d.serialize()) == d

    def test_roundtrip_random(self):
        for d in random_diagrams(seed=7, count=25):
            assert parse_pd(d.serialize()) == d


class TestWrithe:
    def test_right_trefoil_all_positive(self):
        d = parse_pd(TREFOIL)
        assert all(c.sign == 1 for c in d.crossings)
        assert d.writhe() == 3

    def test_unknot(self):
        assert parse_pd("O").writhe() == 0

    def test_r2_unknot(self):
        d = parse_pd(R2_UNKNOT)
        assert sorted(c.sign for c in d.crossings) == [-1, 1]
        assert d.writhe() == 0

    def test_kink_signs(self):
        assert parse_pd("X[1,1,2,2]").writhe() == 1
        assert parse_pd("X[1,2,2,1]").writhe() == -1


class TestMoves:
    def test_r2_simplify_unknot(self):
        d = parse_pd(R2_UNKNOT)
        out, corr = apply_move(d, MovePatch("R2", "simplify", crossings=(1, 0)))
        assert out.n == 0 and out.loops == 1

    def test_r2_complicate_roundtrip(self):
        u = parse_pd("O")
        d, _ = apply_move(u, MovePatch("R2", "complicate", arcs=(0,)))
        assert d.n == 2
        back, _ = apply_move(d, MovePatch("R2", "simplify", crossings=(1, 0)))
        assert back == u

    def test_r1_roundtrip(self):
        tr = parse_pd(TREFOIL)
        for variant in ("+", "-", "+over", "-over"):
            k, _ = apply_move(
                tr, MovePatch("R1", "complicate", arcs=(2,), variant=variant)
            )
            assert k.n == 4
            want = 1 if variant.startswith("+") else -1
            assert k.writhe() == tr.writhe() + want
            back, _ = apply_move(k, MovePatch("R1", "simplify", crossings=(3,)))
            assert back == tr

    def test_r3_preserves_writhe_and_components(self):
        t = parse_pd(TRIANGLE)
        out, _ = apply_move(t, MovePatch("R3", "move", crossings=(0, 1, 2)))
        assert out.n == 3
        assert out.writhe() == t.writhe()
        assert out.components == t.components

    def test_r3_involution(self):
        t = parse_pd(TRIANGLE)
        once, _ = apply_move(t, MovePatch("R3", "move", crossings=(0, 1, 2)))
        twice, _ = apply_move(once, MovePatch("R3", "move", crossings=(0, 1, 2)))
        assert twice == t

    def test_r2_preserves_writhe_components(self):
        tr = parse_pd(TREFOIL)
        for arc in tr.arcs:
            f, _ = apply_move(tr, MovePatch("R2", "complicate", arcs=(arc,)))
            assert f.writhe() == tr.writhe()
            assert f.components == tr.components

    def test_correspondence_bijection(self):
        tr = parse_pd(TREFOIL)
        f, corr = apply_move(tr, MovePatch("R2", "complicate", arcs=(1,)))
        assert sorted(corr) == list(tr.arcs)
        assert len(set(corr.values())) == len(corr)
        assert set(corr.values()) <= set(f.arcs)

    def test_patch_mismatch(self):
        tr = parse_pd(TREFOIL)
        with pytest.raises(PatchMismatchError):
            apply_move(tr, MovePatch("R2", "simplify", crossings=(0, 1)))
        with pytest.raises(PatchMismatchError):
            match_r3(tr, 0, 1, 2)

    def test_r2_roles_swapped_message(self):
        d = parse_pd(R2_UNKNOT)
        with pytest.raises(PatchMismatchError, match="swapped"):
            match_r2(d, 0, 1)

    def test_mirrored_r3_rejected(self):
        t = mirror(parse_pd(TRIANGLE))
        with pytest.raises(PatchMismatchError):
            match_r3(t, 0, 1, 2)


class TestSkeinHelpers:
    def test_switch_sign(self):
        tr = parse_pd(TREFOIL)
        sw = switch_crossing(tr, 0)
        assert sw.writhe() == tr.writhe() - 2

    def test_smooth_drops_crossing(self):
        tr = parse_pd(TREFOIL)
        sm = smooth_crossing(tr, 0)
        assert sm.n == 2
        assert sm.components == 2  # positive Hopf link

    def test_smooth_kink_gives_unlink(self):
        k = parse_pd("X[1,1,2,2]")
        sm = smooth_crossing(k, 0)
        assert sm.n == 0 and sm.loops == 2

    def test_mirror_involution(self):
        tr = parse_pd(TREFOIL)
        assert mirror(mirror(tr)) == tr
        assert mirror(tr).writhe() == -3


class TestFromBraid:
    @pytest.mark.parametrize("p,q", [(2, 3), (2, 4), (3, 4), (3, 6), (4, 5)])
    def test_torus_closures(self, p, q):
        # T(p, q) has (p - 1) q crossings, all positive, and gcd(p, q)
        # components; the inverse letters give the mirror
        from math import gcd

        d = from_braid(list(range(1, p)) * q, p)
        assert d.n == (p - 1) * q and d.loops == 0
        assert all(c.sign == 1 for c in d.crossings)
        assert d.components == gcd(p, q)
        assert parse_pd(d.serialize()) == d
        m = from_braid([-i for i in range(1, p)] * q, p)
        assert all(c.sign == -1 for c in m.crossings)
        assert (m.n, m.components) == (d.n, d.components)

    def test_untouched_strands_close_to_loops(self):
        assert from_braid([], 2).loops == 2
        d = from_braid([1, 1], 3)
        assert (d.n, d.loops, d.components) == (2, 1, 3)
        assert d.serialize() == "X[1,2,3,4] X[2,1,4,3] O"

    @pytest.mark.parametrize("word", [[0], [3], [-3]])
    def test_generator_out_of_range(self, word):
        with pytest.raises(DiagramError, match="strands"):
            from_braid(word, 3)
