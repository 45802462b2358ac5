"""Property tests on random braid closures: the incremental crossing order
of the frontier Jones sum against its O(n^2) definition, the frontier sum
against the refined state sum, its independent oracle, the "after"
ordering rule's complex, derived from the built cube by a sign per degree,
against the per-state oracle, the two laws of the tangle engine's
crossing tensor that its d^2 certificate rests on, and the invariance of
the engine's table under random R1 kinks and R2 folds."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from khovanov import (  # noqa: E402
    MovePatch,
    apply_move,
    build_complex,
    from_braid,
    jones_kauffman,
    jones_refined,
)
from khovanov.complexes import after_twin  # noqa: E402
from khovanov.states import _greedy_order  # noqa: E402
from khovanov.tangles import (  # noqa: E402
    TangleComplex,
    _add,
    _compose,
    _cycles,
    tangle_complexes,
    tangle_homology,
)

from helpers import (  # noqa: E402
    build_complex_per_state,
    expand_keys,
    greedy_order_rescan,
    key_index,
)


@st.composite
def braids(draw, max_letters=12, max_strands=5):
    """(word, strands): up to ``max_letters`` letters +-i on 2 to
    ``max_strands`` strands; a position that no letter touches closes to a
    crossingless loop."""
    strands = draw(st.integers(2, max_strands))
    letter = st.integers(1, strands - 1).flatmap(
        lambda i: st.sampled_from((i, -i)))
    return draw(st.lists(letter, max_size=max_letters)), strands


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(braids())
def test_greedy_order_and_frontier_sum(braid):
    d = from_braid(*braid)
    assert _greedy_order(d) == greedy_order_rescan(d)
    assert jones_kauffman(d) == jones_refined(d)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(braids(max_letters=7, max_strands=4))
def test_after_twin_matches_per_state_oracle(braid):
    d = from_braid(*braid)
    twin = after_twin(build_complex(d))
    oracle = build_complex_per_state(d, "after")
    assert (expand_keys(twin), key_index(twin), twin.diffs) == \
        (oracle.gens, oracle.index, oracle.diffs)


@st.composite
def tensor_cases(draw):
    """(C, crossing): C has three objects x0, x1, x2 in degrees 0, 1, 2 and
    random entries f: x0 -> x1 and g: x1 -> x2, its matchings drawn from a
    tangle complex of a random braid closure, and the crossing is the one
    that closure tensors next.  g f need not be 0."""
    d = from_braid(*draw(braids(max_letters=8, max_strands=4)))
    if not d.n:
        d = from_braid([1], 2)
    step = draw(st.integers(0, d.n - 1))
    cx = TangleComplex([(0, (), 0)], [{}])
    for _, (_, cx) in zip(range(step), tangle_complexes(d)):
        pass
    ms = draw(st.lists(st.sampled_from(sorted({m for _, m, _ in cx.objects})),
                       min_size=3, max_size=3))

    def morphism(m1, m2):
        cycles = len(_cycles(m1, m2, {})[1])
        return draw(st.dictionaries(st.integers(0, (1 << cycles) - 1),
                                    st.sampled_from((-2, -1, 1, 2, 3)),
                                    min_size=1, max_size=3))

    f, g = morphism(*ms[:2]), morphism(*ms[1:])
    c3 = TangleComplex([(h, m, 0) for h, m in enumerate(ms)],
                       [{1: f}, {2: g}, {}])
    return c3, d.crossings[_greedy_order(d)[step]]


def _blocks(tensor) -> list:
    """The objects of ``tensor`` grouped by (object, smoothing) of the
    complex it was tensored from, in order: (x0, P), (x0, N), (x1, P), ...
    (each group is one run of equal smoothings)."""
    blocks = []
    for y, s in enumerate(tensor.smoothings):
        if y and s == tensor.smoothings[y - 1]:
            blocks[-1].append(y)
        else:
            blocks.append([y])
    return blocks


def _product(tensor, first, mid, last) -> dict:
    """{(source, target): morphism} of the entries of ``tensor`` from the
    objects ``first`` through ``mid`` to ``last``, composed and summed."""
    obj, canon, d, out = tensor.objects, tensor.canon, tensor.d, {}
    for x in first:
        for y in mid:
            for z in last:
                if y in d[x] and z in d[y]:
                    for keys, c in _compose(d[y][z], d[x][y],
                                            canon[obj[x][1]],
                                            canon[obj[y][1]],
                                            canon[obj[z][1]], {}, {}).items():
                        _add(out.setdefault((x, z), {}), keys, c)
    return {pair: mor for pair, mor in out.items() if mor}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tensor_cases())
def test_crossing_tensor_is_functorial(case):
    # (g f) (x) id_s = (g (x) id_s)(f (x) id_s) for s = P, N, against the
    # tensor of the two-object complex whose one entry is g f; and the
    # interchange law (f (x) id_N)(id (x) s) = (id (x) s)(f (x) id_P) for
    # f and for g, where the Koszul signs of x and y differ, so the two
    # routes from (x, P) to (y, N) sum to zero
    c3, crossing = case
    store = {}
    t3 = c3.tensor(crossing, store)
    (_, ma, _), (_, mb, _), (_, mc, _) = c3.objects
    canon = c3.canon
    gf = _compose(c3.d[1][2], c3.d[0][1], canon[ma], canon[mb], canon[mc],
                  store, {})
    t2 = TangleComplex([(0, ma, 0), (2, mc, 0)], [{1: gf} if gf else {},
                                                  {}]).tensor(crossing, store)
    b3, b2 = _blocks(t3), _blocks(t2)
    assert len(b3) == 6 and len(b2) == 4
    for s in (0, 1):
        first, last = b3[s], b3[4 + s]
        assert (len(first), len(last)) == (len(b2[s]), len(b2[2 + s]))
        to = dict(zip(first + last, b2[s] + b2[2 + s]))
        want = {(to[x], to[z]): mor for (x, z), mor in
                _product(t3, first, b3[2 + s], last).items()}
        got = {(x, z): mor for x in b2[s] for z, mor in t2.d[x].items()
               if z in b2[2 + s]}
        assert want == got
    for x in (0, 1):
        p, n = b3[2 * x], b3[2 * x + 3]
        routes = [_product(t3, p, b3[2 * x + 1], n),
                  _product(t3, p, b3[2 * x + 2], n)]
        total = {}
        for route in routes:
            for pair, mor in route.items():
                for keys, c in mor.items():
                    _add(total, (pair, keys), c)
        assert total == {}


@st.composite
def grown_closures(draw, max_crossings=30):
    """(closure, grown): the closure of a braid of 2 to 10 letters on 2 to
    4 strands, and the diagram that random R1 kinks (any of the four
    variants) and R2 folds, each on a random arc, grow from it to a random
    size of at most ``max_crossings`` crossings."""
    strands = draw(st.integers(2, 4))
    letter = st.integers(1, strands - 1).flatmap(
        lambda i: st.sampled_from((i, -i)))
    closure = from_braid(draw(st.lists(letter, min_size=2, max_size=10)),
                         strands)
    grown = closure
    target = draw(st.integers(closure.n + 1, max_crossings))
    while grown.n < target:
        kind = draw(st.sampled_from(("R1", "R2") if target - grown.n >= 2
                                    else ("R1",)))
        variant = draw(st.sampled_from(("+", "-", "+over", "-over"))) \
            if kind == "R1" else ""
        grown, _ = apply_move(grown, MovePatch(
            kind, "complicate", arcs=(draw(st.sampled_from(grown.arcs)),),
            variant=variant))
    return closure, grown


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(grown_closures())
def test_reidemeister_sequences_keep_the_table(case):
    # checked, so d^2 = 0 is asserted on every tensor of the grown diagram
    closure, grown = case
    assert tangle_homology(grown, max_crossings=30, check=True) == \
        (tangle_homology(closure)[0], [])
