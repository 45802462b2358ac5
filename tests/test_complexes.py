import gc
import json
import random
import types
from itertools import product

import pytest

from khovanov import jones_kauffman, jones_refined, parse_pd, trace_circles
from khovanov.complexes import (
    GradedMap,
    after_twin,
    build_complex,
    graded_euler,
    verify_d_squared,
)

from helpers import (
    EnhancedState,
    build_complex_per_state,
    complex_under,
    enumerate_enhanced,
    flip_coefficient,
    grow,
    held as _held,
    random_diagrams,
    saddle,
    saddle_per_state,
)

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


def _reachable(root) -> list:
    """Every object reachable from ``root`` by references, short of types,
    modules and functions."""
    seen, out, stack = set(), [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        out.append(obj)
        stack.extend(gc.get_referents(obj))
    return out


class TestKeysOnly:
    """A generator is its key: the build keeps no ``EnhancedState``."""

    def test_no_enhanced_state_reachable(self):
        for d in [TREFOIL] + random_diagrams(seed=47, count=5):
            cx = build_complex(d)
            found = _reachable(cx)
            assert not any(isinstance(x, EnhancedState) for x in found)
            keys = {k for gens in cx.gens.values() for k in gens}
            assert keys == set(cx.index)
            assert any(isinstance(x, tuple) and x in keys for x in found)

    def test_reachability_sees_a_kept_state(self):
        cx = build_complex(TREFOIL)
        cx.extra = {"kept": [next(enumerate_enhanced(TREFOIL))]}
        assert any(isinstance(x, EnhancedState) for x in _reachable(cx))


class TestCirclesTable:
    """The build keeps the circles of every marker state; what ``saddle``
    and the move transports read from it must be what tracing gives."""

    def test_equals_trace_circles(self, corpus):
        diagrams = [parse_pd(e["pd"]) for e in corpus]
        diagrams += random_diagrams(seed=43, count=40)
        for d in diagrams:
            cx = build_complex(d)
            assert len(cx.circles) == 2 ** d.n
            for markers in product((1, -1), repeat=d.n):
                assert cx.circles[markers] == trace_circles(d, markers)


class TestSaddle:
    def test_single_merge_or_split(self):
        for d in random_diagrams(seed=31, count=10):
            cx = build_complex(d)
            for s in enumerate_enhanced(d):
                for c in range(d.n):
                    terms = saddle(cx, s.key(), c)
                    assert 0 <= len(terms) <= 2
                    for (markers, signs), k in terms:
                        assert k == 1
                        assert len(signs) == len(cx.circles[markers])
                        assert abs(len(signs) - len(s.circles)) == 1
                    # flips in both directions, as moves.py uses them
                    assert terms == [(t.key(), k)
                                     for t, k in saddle_per_state(d, s, c)]

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
            twin = after_twin(build_complex(d))
            assert verify_d_squared(twin) == []
            assert twin.diffs == build_complex_per_state(d, "after").diffs

    def test_twin_shares_the_cube_and_leaves_it_unchanged(self):
        # the twin keeps the cube's generators, index and circles, and
        # negates d only on a copy of its odd blocks
        for d in random_diagrams(seed=41, count=10, max_crossings=6):
            cx = build_complex(d)
            before = {bd: dict(block) for bd, block in cx.diffs.items()}
            twin = after_twin(cx)
            assert twin.gens is cx.gens and twin.index is cx.index
            assert twin.circles is cx.circles
            assert cx.diffs == before and cx.diffs.name == twin.diffs.name
            assert (twin.diffs.src, twin.diffs.tgt, twin.diffs.shift) == \
                (cx.diffs.src, cx.diffs.tgt, (1, 0))


class TestPerEdgeBuild:
    """``build_complex`` resolves each cube edge once; the oracle works out
    every enhanced state's saddles on its own."""

    @pytest.mark.parametrize("rule", ["before", "after"])
    def test_corpus(self, corpus, rule):
        for entry in corpus:
            d = parse_pd(entry["pd"])
            assert complex_under(d, rule).to_json() == \
                build_complex_per_state(d, rule).to_json(), entry["name"]

    @pytest.mark.parametrize("rule", ["before", "after"])
    def test_random(self, rule):
        for d in random_diagrams(seed=53, count=40, max_crossings=7):
            assert complex_under(d, rule).to_json() == \
                build_complex_per_state(d, rule).to_json(), d.serialize()


class TestTableBuild:
    """``build_complex`` lays each bidegree out as runs of sign tuples and
    fills d from per-pattern tables; the result must be the oracle's to the
    order of every generator list, past the corpus, and the tables must not
    outlive the call."""

    @pytest.mark.parametrize("rule", ["before", "after"])
    @pytest.mark.parametrize("pd,n,seed", [
        ("X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]", 8, 3),
        ("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]", 7, 5),
        ("X[4,1,3,2] X[2,3,1,4]", 7, 11),
    ], ids=["trefoil-8", "figure_eight-7", "hopf-7"])
    def test_grown_diagrams_match_per_state_oracle(self, pd, n, seed, rule):
        d = grow(parse_pd(pd), n, seed)
        assert d.n == n
        cx = complex_under(d, rule)
        oracle = build_complex_per_state(d, rule)
        assert cx.gens == oracle.gens      # lists: row order included
        assert cx.index == oracle.index
        assert cx.diffs == oracle.diffs
        assert (cx.diffs.src, cx.diffs.tgt, cx.diffs.shift) == \
            (oracle.census(), oracle.census(), (1, 0))
        assert cx.circles == {m: trace_circles(d, m)
                              for m in product((1, -1), repeat=n)}

    def test_no_module_container_grows_across_builds(self):
        from khovanov import complexes, states

        modules = (complexes, states)
        build_complex(TREFOIL)
        before = [_held(m) for m in modules]
        for d in random_diagrams(seed=59, count=10, max_crossings=6):
            after_twin(build_complex(d))
        assert [_held(m) for m in modules] == before

    def test_no_moves_container_grows_across_verifies(self, capsys):
        # the transport tables, maps and check verdicts live in the patch of
        # one verify-move call and die with it
        from khovanov import cli, moves

        def verify(pd, kind, *ids):
            for extra in ([], ["--search"]):
                assert cli.main(["--format", "json", "verify-move", pd, kind,
                                 *ids, *extra]) == 0

        def alive():
            gc.collect()
            return sum(isinstance(x, (moves._Transports, moves._Patch))
                       for x in gc.get_objects())

        verify("X[2,3,3,4] X[1,1,2,4]", "R2", "1", "0")
        before = _held(moves), alive()
        verify("X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]", "R3", "0", "1", "2")
        verify("X[1,3,2,4] X[2,3,1,6] X[4,6,5,5]", "R3", "0", "1", "2")
        verify("X[3,1,4,2] X[4,1,3,2]", "R2", "0", "1")
        verify("X[8,6,9,5] X[10,8,1,7] X[6,10,7,9] X[2,3,3,4] X[1,5,2,4]",
               "R2", "4", "3")
        capsys.readouterr()
        assert (_held(moves), alive()) == before

    def test_a_verify_frees_its_patch_without_the_collector(self, capsys):
        # the patch, its sides and their memos form no reference cycle, so
        # a verify-move frees them as it returns, not at the next cyclic
        # collection: the maps of one search are not still held while the
        # next call builds its own
        from khovanov import cli, moves

        gc.collect()
        gc.disable()
        try:
            assert cli.main(["--format", "json", "verify-move",
                             "X[2,3,3,4] X[1,1,2,4]", "R2", "1", "0",
                             "--search"]) == 0
            alive = [x for x in gc.get_objects() if isinstance(
                x, (moves._Patch, moves._Side, moves._Transports))]
        finally:
            gc.enable()
        capsys.readouterr()
        assert alive == []

    def test_held_sees_a_module_cache(self, monkeypatch):
        from khovanov import complexes

        before = _held(complexes)
        monkeypatch.setattr(complexes, "_cache", {}, raising=False)
        complexes._cache["edge"] = 1
        assert _held(complexes) != before


def test_json_dump_deterministic():
    cx = build_complex(TREFOIL)
    a = json.dumps(cx.to_json(), sort_keys=True)
    b = json.dumps(build_complex(TREFOIL).to_json(), sort_keys=True)
    assert a == b
    payload = cx.to_json()
    assert sum(row["dim"] for row in payload["census"]) == 30


SHIFTS = [(0, 0), (1, 0), (-1, 0)]


def _shifted(bd, shift):
    return (bd[0] + shift[0], bd[1] + shift[1])


def _random_dims(rng):
    """Dimensions on bidegrees i = 0..4, j = +-1; about one in five absent."""
    return {(i, j): rng.randint(1, 3) for i in range(5) for j in (-1, 1)
            if rng.random() < 0.8}


def _random_map(rng, dims, shift, name):
    """A map dims -> dims of the given shift, half its entries nonzero."""
    m = GradedMap(name, dims, dims, shift)
    for bd, cols in dims.items():
        for r in range(dims.get(_shifted(bd, shift), 0)):
            for c in range(cols):
                if rng.random() < 0.5:
                    m.add(bd, r, c, rng.choice((-2, -1, 1, 2)))
    return m


def _dense(m, bd):
    """The block of ``m`` at ``bd`` as a full list of rows."""
    out = [[0] * m.src.get(bd, 0)
           for _ in range(m.tgt.get(_shifted(bd, m.shift), 0))]
    for (r, c), v in m.get(bd, {}).items():
        out[r][c] = v
    return out


def _dense_first_difference(f, g):
    for bd in sorted(f.src):
        for r, (row_f, row_g) in enumerate(zip(_dense(f, bd), _dense(g, bd))):
            for c, (x, y) in enumerate(zip(row_f, row_g)):
                if x != y:
                    return {"i": bd[0], "j": bd[1], "row": r, "col": c,
                            "lhs": x, "rhs": y}
    return None


def _assert_clean(m):
    """No zero entry and no empty block is stored."""
    assert all(m.values()), m
    assert all(v for blk in m.values() for v in blk.values()), m


class TestGradedMap:
    """``GradedMap`` against dense integer matrix arithmetic on seeded
    random sparse blocks, over every pair of the shifts d, h and the chain
    maps have."""

    @pytest.mark.parametrize("seed", range(6))
    def test_compose(self, seed):
        rng = random.Random(seed)
        cancelled = 0
        for sf in SHIFTS:
            for sg in SHIFTS:
                dims = _random_dims(rng)
                f = _random_map(rng, dims, sf, "f")
                g = _random_map(rng, dims, sg, "g")
                fg = f.compose(g)
                assert fg.name == "f.g"
                assert fg.shift == _shifted(sf, sg)
                _assert_clean(fg)
                for bd, cols in dims.items():
                    mid = _shifted(bd, sg)
                    a, b = _dense(f, mid), _dense(g, bd)
                    inner = dims.get(mid, 0)
                    rows = dims.get(_shifted(mid, sf), 0)
                    want = [[sum(a[r][k] * b[k][c] for k in range(inner))
                             for c in range(cols)] for r in range(rows)]
                    assert _dense(fg, bd) == want, (sf, sg, bd)
                    cancelled += sum(
                        1 for r in range(rows) for c in range(cols)
                        if not want[r][c]
                        and any(a[r][k] and b[k][c] for k in range(inner)))
                ident = GradedMap.identity(dims)
                for m in (f.compose(ident), ident.compose(f)):
                    assert all(_dense(m, bd) == _dense(f, bd) for bd in dims)
        assert cancelled  # products whose terms cancel to zero occur

    def test_compose_drops_cancelled_blocks(self):
        dims = {(0, 0): 1, (1, 0): 2, (2, 0): 1}
        g = GradedMap("g", dims, dims, (1, 0), {(0, 0): {(0, 0): 1, (1, 0): -1}})
        f = GradedMap("f", dims, dims, (1, 0), {(1, 0): {(0, 0): 1, (0, 1): 1}})
        assert f.compose(g) == {}
        cx = build_complex(TREFOIL)
        assert cx.diffs.compose(cx.diffs) == {}

    @pytest.mark.parametrize("seed", range(6))
    def test_plus_minus(self, seed):
        rng = random.Random(100 + seed)
        for shift in SHIFTS:
            dims = _random_dims(rng)
            f = _random_map(rng, dims, shift, "f")
            g = _random_map(rng, dims, shift, "g")
            for scale in (1, -1, 3):
                got = f.plus(g, scale=scale)
                _assert_clean(got)
                for bd in dims:
                    want = [[x + scale * y for x, y in zip(rf, rg)]
                            for rf, rg in zip(_dense(f, bd), _dense(g, bd))]
                    assert _dense(got, bd) == want
            assert f.minus(g).name == "f" and f.minus(g, name="e").name == "e"
            # every entry of g cancels on the way back
            back = f.minus(g).plus(g)
            _assert_clean(back)
            assert back == {bd: blk for bd, blk in f.items() if blk}
            assert f.minus(f) == {}

    @pytest.mark.parametrize("seed", range(6))
    def test_first_difference(self, seed):
        rng = random.Random(200 + seed)
        found = 0
        for shift in SHIFTS:
            dims = _random_dims(rng)
            f = _random_map(rng, dims, shift, "f")
            g = GradedMap("g", dims, dims, shift,
                          {bd: dict(blk) for bd, blk in f.items()})
            assert f.first_difference(g) is None
            # several changed entries in each of two blocks; a change may
            # also cancel an entry or an earlier change
            targets = [bd for bd in sorted(dims)
                       if dims.get(_shifted(bd, shift), 0)]
            for bd in rng.sample(targets, min(2, len(targets))):
                rows = dims[_shifted(bd, shift)]
                for _ in range(rng.randint(2, 5)):
                    g.add(bd, rng.randrange(rows), rng.randrange(dims[bd]),
                          rng.choice((-2, -1, 1, 2)))
            want = _dense_first_difference(f, g)
            found += want is not None
            assert f.first_difference(g) == want
            assert g.first_difference(f) == _dense_first_difference(g, f)
            zero = GradedMap("0", dims, dims, shift)
            want = _dense_first_difference(f, zero)
            if want is not None:
                want["value"] = want.pop("lhs")
                del want["rhs"]
            assert f.first_violation() == want
        assert found == len(SHIFTS)

    @staticmethod
    def _dense_product(f, g, bd, dims):
        mid = _shifted(bd, g.shift)
        a, b = _dense(f, mid), _dense(g, bd)
        rows = dims.get(_shifted(mid, f.shift), 0)
        return [[sum(a[r][k] * b[k][c] for k in range(dims.get(mid, 0)))
                 for c in range(dims[bd])] for r in range(rows)]

    @pytest.mark.parametrize("seed", range(4))
    def test_identity_factor(self, seed):
        # an identity on either side: the product is the other factor, as
        # copies of its blocks, against dense products
        rng = random.Random(300 + seed)
        for shift in SHIFTS:
            dims = _random_dims(rng)
            f = _random_map(rng, dims, shift, "f")
            ident = GradedMap.identity(dims)
            assert ident.is_identity and not f.is_identity
            for left, right in ((ident, f), (f, ident)):
                p = left.compose(right)
                assert p.name == f"{left.name}.{right.name}"
                assert p.shift == shift and not p.is_identity
                _assert_clean(p)
                for bd in dims:
                    assert _dense(p, bd) == \
                        self._dense_product(left, right, bd, dims)
                    assert _dense(p, bd) == _dense(f, bd)
                # the product holds copies: writing to it leaves f as it was
                before = {bd: dict(blk) for bd, blk in f.items()}
                for bd, blk in p.items():
                    rc = next(iter(blk))
                    blk[rc] += 5
                    p.add(bd, rc[0], rc[1], 1)
                assert f == before
        # a write clears the mark, and the product sums again
        dims = {(0, 0): 2}
        ident = GradedMap.identity(dims)
        ident.add((0, 0), 0, 1, 3)
        assert not ident.is_identity
        f = GradedMap("f", dims, dims, (0, 0), {(0, 0): {(1, 0): 1,
                                                        (1, 1): 2}})
        assert ident.compose(f) == {(0, 0): {(0, 0): 3, (1, 0): 1,
                                             (0, 1): 6, (1, 1): 2}}

    @pytest.mark.parametrize("seed", range(4))
    def test_one_entry_per_column(self, seed):
        # a right operand with at most one entry per column, as isom, its
        # inverse and h have, against dense products
        rng = random.Random(400 + seed)
        for sf in SHIFTS:
            for sg in SHIFTS:
                dims = _random_dims(rng)
                f = _random_map(rng, dims, sf, "f")
                g = GradedMap("g", dims, dims, sg)
                for bd, cols in dims.items():
                    rows = dims.get(_shifted(bd, sg), 0)
                    for c in range(cols):
                        if rows and rng.random() < 0.8:
                            g.add(bd, rng.randrange(rows), c,
                                  rng.choice((-2, -1, 1, 2)))
                fg = f.compose(g)
                assert fg.shift == _shifted(sf, sg)
                _assert_clean(fg)
                for bd in dims:
                    assert _dense(fg, bd) == \
                        self._dense_product(f, g, bd, dims)

    @pytest.mark.parametrize("seed", range(4))
    def test_first_difference_on_equal_and_differing_blocks(self, seed):
        # maps that agree on some blocks and differ on others, against the
        # dense scan; first_identity_difference against the built identity
        rng = random.Random(500 + seed)
        for shift in SHIFTS:
            dims = _random_dims(rng)
            f = _random_map(rng, dims, shift, "f")
            g = GradedMap("g", dims, dims, shift,
                          {bd: dict(blk) for bd, blk in f.items()})
            for bd in sorted(g)[1::2]:
                r, c = next(iter(g[bd]))
                g.add(bd, r, c, rng.choice((-1, 1)))
            assert f.first_difference(g) == _dense_first_difference(f, g)
            assert g.first_difference(f) == _dense_first_difference(g, f)
            assert f.first_difference(f) is None
        dims = _random_dims(rng)
        ident = GradedMap.identity(dims)
        near = GradedMap("n", dims, dims, (0, 0),
                         {bd: dict(blk) for bd, blk in ident.items()})
        assert near.first_identity_difference() is None
        for bd in sorted(near)[::2]:
            near.add(bd, rng.randrange(dims[bd]), rng.randrange(dims[bd]),
                     rng.choice((-2, -1, 1)))
        for m in (near, _random_map(rng, dims, (0, 0), "f"),
                  GradedMap("0", dims, dims)):
            assert m.first_identity_difference() == \
                m.first_difference(ident) == \
                _dense_first_difference(m, ident)
