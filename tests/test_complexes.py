import gc
import json
import random
import types
from itertools import product

import pytest

from khovanov import (
    MovePatch,
    apply_move,
    jones_kauffman,
    jones_refined,
    parse_pd,
    trace_circles,
)
from khovanov.complexes import (
    GradedMap,
    _edge_table,
    _trace_states,
    after_twin,
    build_complex,
    graded_euler,
    verify_d_squared,
)

from helpers import (
    EnhancedState,
    add,
    build_complex_per_state,
    check_cube,
    complex_under,
    disjoint_union,
    enumerate_enhanced,
    expand_keys,
    flip_coefficient,
    grow,
    held as _held,
    key_index,
    minus,
    plus,
    random_diagrams,
    saddle,
    saddle_per_state,
)

TREFOIL = parse_pd("X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]")


class TestBuild:
    def test_unknot(self):
        cx = build_complex(parse_pd("O"))
        assert cx.dims == {(0, 1): 1, (0, -1): 1}
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
        for (i, j), n in cx.dims.items():
            per_i[i] = per_i.get(i, 0) + n
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
    """The build keeps no ``EnhancedState`` and lists no generator: it
    keeps the marker states and the runs of sign tuples, and no key
    (markers, signs)."""

    def test_no_enhanced_state_reachable(self):
        for d in [TREFOIL] + random_diagrams(seed=47, count=5):
            cx = build_complex(d)
            found = _reachable(cx)
            assert not any(isinstance(x, EnhancedState) for x in found)
            keys = set(key_index(cx))
            assert len(keys) == cx.total_dim()
            assert not any(isinstance(x, tuple) and x in keys for x in found)
            markers = {m for m, _ in keys}
            signs = {s for _, s in keys}
            assert any(isinstance(x, tuple) and x in markers for x in found)
            assert any(isinstance(x, tuple) and x in signs for x in found)

    def test_reachability_sees_a_kept_state(self):
        cx = build_complex(TREFOIL)
        cx.extra = {"kept": [next(enumerate_enhanced(TREFOIL))]}
        assert any(isinstance(x, EnhancedState) for x in _reachable(cx))


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
        # the twin keeps the cube's dimensions, runs, circles, rank
        # tables and edges, and negates d only on a copy of its odd blocks
        for d in random_diagrams(seed=41, count=10, max_crossings=6):
            cx = build_complex(d)
            before = {bd: dict(block) for bd, block in cx.diffs.items()}
            twin = after_twin(cx)
            assert twin.dims is cx.dims and twin.layout is cx.layout
            assert twin.circles is cx.circles
            assert (twin.runs, twin.rank, twin.base, twin.edges) == (
                cx.runs, cx.rank, cx.base, cx.edges)
            assert twin.runs is cx.runs and twin.base is cx.base
            assert cx.diffs == before and cx.diffs.name == twin.diffs.name
            assert (twin.diffs.src, twin.diffs.tgt, twin.diffs.shift) == \
                (cx.diffs.src, cx.diffs.tgt, (1, 0))


    def test_rank_tables_place_every_generator(self):
        # the kept tables: the row of (m, s) is base[m][sum(s)] + rank[s],
        # its run (m, sum(s)) starts at ``entry``, and each kept edge is the
        # merge/split pattern of its flip, with its table; the per-state
        # oracle places every key where the tables do
        for d in random_diagrams(seed=43, count=10, max_crossings=6):
            cx = build_complex(d)
            index = build_complex_per_state(d).index
            assert index == key_index(cx)
            for key, (bd, row) in index.items():
                m, signs = key
                assert row == cx.base[m][sum(signs)] + cx.rank[signs]
                assert cx.entry(m, sum(signs)) == (bd, cx.base[m][sum(signs)])
            assert all(sum(run[0]) == tau and len(cx.circles[m]) == len(run[0])
                       for bd, m, tau, run, row0 in cx.cells())
            check_cube(cx)


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
        ("X[4,2,5,1] X[6,4,1,3] X[2,6,3,5] O O", 7, 3),
        ("X[4,1,3,2] X[2,3,1,4] O", 6, 11),
    ], ids=["trefoil-8", "figure_eight-7", "hopf-7", "trefoil-7-loops",
            "hopf-6-loop"])
    def test_grown_diagrams_match_per_state_oracle(self, pd, n, seed, rule):
        # the last two keep crossingless loops beside their crossings, whose
        # circles come first in every state
        d = grow(parse_pd(pd), n, seed)
        assert d.n == n
        assert d.loops == pd.count("O")
        cx = complex_under(d, rule)
        oracle = build_complex_per_state(d, rule)
        assert expand_keys(cx) == oracle.gens   # lists: row order included
        assert key_index(cx) == oracle.index
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
        from khovanov import cli, moves, transports

        def verify(pd, kind, *ids):
            for extra in ([], ["--search"]):
                assert cli.main(["--format", "json", "verify-move", pd, kind,
                                 *ids, *extra]) == 0

        def alive():
            gc.collect()
            return sum(isinstance(x, (transports.Transports, moves._Patch))
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
        from khovanov import cli, moves, transports

        gc.collect()
        gc.disable()
        try:
            assert cli.main(["--format", "json", "verify-move",
                             "X[2,3,3,4] X[1,1,2,4]", "R2", "1", "0",
                             "--search"]) == 0
            alive = [x for x in gc.get_objects() if isinstance(
                x, (moves._Patch, moves._Side, transports.Transports))]
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


def _walk_random():
    """100 seeded random diagrams: every fifth with a crossingless loop
    added, every seventh beside a disjoint Hopf link, and every eleventh
    beside a disjoint kinked unknot with a loop; at most 8 crossings."""
    hopf, kinked = parse_pd("X[4,1,3,2] X[2,3,1,4]"), parse_pd("X[1,1,2,2] O")
    out = []
    for k, d in enumerate(random_diagrams(seed=61, count=100,
                                          max_crossings=5)):
        if k % 5 == 0:
            d = parse_pd(d.serialize() + " O")
        if k % 7 == 0:
            d = disjoint_union(d, hopf)
        if k % 11 == 0:
            d = disjoint_union(kinked, d)
        out.append(d)
    return out


def _crossing_parts(d) -> int:
    """The number of parts the crossings of ``d`` fall into, two crossings
    being in one part when they share an arc."""
    part = {}

    def root(k):
        while part.setdefault(k, k) != k:
            k = part[k]
        return k

    first = {}
    for k, c in enumerate(d.crossings):
        for a in c.ends:
            part[root(k)] = root(first.setdefault(a, k))
    return len({root(k) for k in range(d.n)})


def _seven_fold(n):
    """The trefoil grown by seed 7 to n - 2 crossings and folded by R2 on
    arc 2."""
    folded, _ = apply_move(grow(TREFOIL, n - 2, seed=7),
                           MovePatch("R2", "complicate", arcs=(2,)))
    return folded


def _check_walk(d):
    """``_trace_states`` against ``trace_circles``, state by state: the
    circles, in product order, and the circle through each crossing end,
    counted after the loops' circles."""
    circles, where = _trace_states(d)
    states = list(product((1, -1), repeat=d.n))
    assert circles == [trace_circles(d, m) for m in states]
    ends = [a for c in d.crossings for a in c.ends]
    assert type(where) is bytes and len(where) == len(states) * len(ends)
    for i, traced in enumerate(circles):
        at = where[i * len(ends):(i + 1) * len(ends)]
        assert all(a in traced[d.loops + k] for a, k in zip(ends, at))


def _check_against_oracles(d):
    cx = build_complex(d)
    _check_walk(d)
    check_cube(cx)
    oracle = build_complex_per_state(d)
    assert expand_keys(cx) == oracle.gens
    assert cx.diffs == oracle.diffs


class TestWalk:
    """``build_complex`` traces every marker state in one depth-first walk
    and reads each flip's pattern off the circle positions of its four
    ends; its circles, edges and edge tables must be what tracing each
    state, comparing whole circles and re-signing one sign tuple at a time
    give, and its layout and d the per-state oracle's."""

    def test_corpus(self, corpus):
        assert len(corpus) == 18
        for entry in corpus:
            _check_against_oracles(parse_pd(entry["pd"]))

    def test_random_diagrams(self):
        diagrams = _walk_random()
        assert len(diagrams) == 100
        # loops beside crossings, split diagrams with crossings on two
        # parts, and R1 kinks all occur
        assert sum(d.loops > 0 and d.n > 0 for d in diagrams) >= 10
        assert sum(_crossing_parts(d) > 1 for d in diagrams) >= 10
        assert sum(any(len(set(c.ends)) < 4 for c in d.crossings)
                   for d in diagrams) >= 10
        # and 40 plain ones, at most 6 crossings
        for d in diagrams + random_diagrams(seed=43, count=40):
            _check_against_oracles(d)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_seeded_folds(self, n):
        d = _seven_fold(n)
        assert d.n == n
        _check_against_oracles(d)

    def test_crossingless(self):
        for d in (parse_pd("O"), parse_pd("O O O")):
            _check_against_oracles(d)
            assert _trace_states(d) == ([trace_circles(d, ())], b"")


class TestEdgeTable:
    """``_edge_table`` raises when a target leaves the run tau - 1."""

    @staticmethod
    def _edges(kind):
        cx = build_complex(_seven_fold(5))
        edges = [e for e in cx.edge_tables
                 if len(e[1]) == (2 if kind == "merge" else 1)]
        assert edges
        return cx, edges

    @pytest.mark.parametrize("kind", ["merge", "split"])
    def test_mislabelled_runs(self, kind):
        cx, edges = self._edges(kind)
        for carry, old, new in edges:
            runs = cx.runs[len(carry) - len(new) + len(old)]
            shifted = {tau + 2: run for tau, run in runs.items()}
            with pytest.raises(AssertionError, match=r"differential not of "
                               r"bidegree \(1,0\)"):
                _edge_table((carry, old, new), shifted, cx.rank, {})

    @pytest.mark.parametrize("kind", ["merge", "split"])
    def test_circle_carried_twice(self, kind):
        # an unchanged new circle that reads a changed old one
        cx, edges = self._edges(kind)
        bad = [(carry[:k] + (old[0],) + carry[k + 1:], old, new)
               for carry, old, new in edges
               for k in range(len(carry)) if k not in new]
        assert bad
        for edge in bad:
            runs = cx.runs[len(edge[0]) - len(edge[2]) + len(edge[1])]
            with pytest.raises(AssertionError, match="bidegree"):
                _edge_table(edge, runs, cx.rank, {})


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
                    add(m, bd, r, c, rng.choice((-2, -1, 1, 2)))
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
                got = plus(f, g, scale=scale)
                _assert_clean(got)
                for bd in dims:
                    want = [[x + scale * y for x, y in zip(rf, rg)]
                            for rf, rg in zip(_dense(f, bd), _dense(g, bd))]
                    assert _dense(got, bd) == want
            assert minus(f, g).name == "f"
            assert minus(f, g, name="e").name == "e"
            # every entry of g cancels on the way back
            back = plus(minus(f, g), g)
            _assert_clean(back)
            assert back == {bd: blk for bd, blk in f.items() if blk}
            assert minus(f, f) == {}

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
                    add(g, bd, rng.randrange(rows), rng.randrange(dims[bd]),
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
        # an identity on either side: the product is the other factor, in
        # blocks of its own, against dense products
        rng = random.Random(300 + seed)
        for shift in SHIFTS:
            dims = _random_dims(rng)
            f = _random_map(rng, dims, shift, "f")
            ident = GradedMap.identity(dims)
            for left, right in ((ident, f), (f, ident)):
                p = left.compose(right)
                assert p.name == f"{left.name}.{right.name}"
                assert p.shift == shift
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
                    add(p, bd, rc[0], rc[1], 1)
                assert f == before
        # an identity written to is an identity no more
        dims = {(0, 0): 2}
        ident = GradedMap.identity(dims)
        add(ident, (0, 0), 0, 1, 3)
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
                            add(g, bd, rng.randrange(rows), c,
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
        # dense scan, among them maps near the identity on their source
        rng = random.Random(500 + seed)
        for shift in SHIFTS:
            dims = _random_dims(rng)
            f = _random_map(rng, dims, shift, "f")
            g = GradedMap("g", dims, dims, shift,
                          {bd: dict(blk) for bd, blk in f.items()})
            for bd in sorted(g)[1::2]:
                r, c = next(iter(g[bd]))
                add(g, bd, r, c, rng.choice((-1, 1)))
            assert f.first_difference(g) == _dense_first_difference(f, g)
            assert g.first_difference(f) == _dense_first_difference(g, f)
            assert f.first_difference(f) is None
        dims = _random_dims(rng)
        ident = GradedMap.identity(dims)
        near = GradedMap("n", dims, dims, (0, 0),
                         {bd: dict(blk) for bd, blk in ident.items()})
        assert near.first_difference(GradedMap.identity(near.src)) is None
        for bd in sorted(near)[::2]:
            add(near, bd, rng.randrange(dims[bd]),
                rng.randrange(dims[bd]), rng.choice((-2, -1, 1)))
        for m in (near, _random_map(rng, dims, (0, 0), "f"),
                  GradedMap("0", dims, dims)):
            assert m.first_difference(GradedMap.identity(m.src)) == \
                _dense_first_difference(m, ident)
