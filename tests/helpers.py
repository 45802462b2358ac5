"""Shared test utilities: random diagram generation and independent oracles."""

from __future__ import annotations

import copy
import heapq
import random
import warnings
import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from itertools import combinations, product

from khovanov import MovePatch, apply_move, from_braid, parse_pd
from khovanov.diagram import (
    LinkDiagram,
    _root,
    _relabel_canonical,
    _splice,
    diagram_from_tuples,
    match_r3,
)
from khovanov.complexes import (
    GradedMap,
    KhovanovComplex,
    _cube_edge,
    after_twin,
    build_complex,
)
from khovanov import homology
from khovanov.homology import (
    HomologyTable,
    SmithDecomposition,
    _triplets_to_dense,
    homology_groups,
)
from khovanov.kernels import census_circle_counts
from khovanov.moves import (
    _CHECKS,
    _PREMISES,
    _PRODUCTS,
    MoveEquivalence,
    default_candidates,
)
from khovanov.states import (
    DEFAULT_MAX_CROSSINGS,
    LaurentPoly,
    _greedy_order,
    check_guard,
    jones_kauffman,
    trace_circles,
)
from khovanov import tangles
from khovanov.tangles import _glue, tangle_homology


def add(m: GradedMap, bd, row, col, coeff) -> None:
    """Add ``coeff`` at (row, col) of the block of ``m`` at ``bd``; an
    entry that cancels is dropped.  The oracles write their maps an entry
    at a time."""
    if not coeff:
        return
    block = m.setdefault(bd, {})
    v = block.get((row, col), 0) + coeff
    if v:
        block[(row, col)] = v
    else:
        del block[(row, col)]


def plus(f: GradedMap, g: GradedMap, name=None, scale=1) -> GradedMap:
    """f + scale * g, with no zero entry or empty block stored."""
    assert f.shift == g.shift
    out = GradedMap(name or f.name, f.src, f.tgt, f.shift)
    for bd in sorted(f.keys() | g.keys()):
        acc = dict(f.get(bd, ()))
        for rc, v in g.get(bd, {}).items():
            acc[rc] = acc.get(rc, 0) + scale * v
        acc = {rc: v for rc, v in acc.items() if v}
        if acc:
            out[bd] = acc
    return out


def minus(f: GradedMap, g: GradedMap, name=None) -> GradedMap:
    return plus(f, g, name=name, scale=-1)


SEEDS = [
    "O",
    "X[1,1,2,2]",
    "X[2,3,3,4] X[1,1,2,4]",
    "X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]",
    "X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]",
]


def random_diagram(rng: random.Random, max_crossings: int = 6):
    """A random honest link diagram built by complicating a seed diagram."""
    diagram = parse_pd(rng.choice(SEEDS))
    while True:
        budget = max_crossings - diagram.n
        moves = []
        if budget >= 1:
            moves.append("R1")
        if budget >= 2:
            moves.append("R2")
        if not moves or rng.random() < 0.35:
            return diagram
        kind = rng.choice(moves)
        arc = rng.choice(diagram.arcs) if diagram.arcs else 0
        variant = rng.choice(["+", "-", "+over", "-over"]) if kind == "R1" else ""
        diagram, _ = apply_move(
            diagram,
            MovePatch(kind, "complicate", arcs=(arc,), variant=variant),
        )


def random_diagrams(seed: int, count: int, max_crossings: int = 6):
    rng = random.Random(seed)
    return [random_diagram(rng, max_crossings) for _ in range(count)]


def grow(diagram, target: int, seed: int, keep_triangle=False):
    """``diagram`` complicated up to ``target`` crossings by the benchmark's
    seeded growth (``perfbench/inputs.py::grow``): an R2 fold with
    probability 1/2 while at least two crossings remain, else an R1 kink in
    a random variant, each on a random arc.  R1 and R2 keep the invariants,
    and each added crossing triples the generators.  With ``keep_triangle``
    no move touches a side of the R3 triangle at crossings (0, 1, 2)."""
    rng = random.Random(seed)
    while diagram.n < target:
        kind = "R2" if target - diagram.n >= 2 and rng.random() < 0.5 \
            else "R1"
        arcs = diagram.arcs
        if keep_triangle:
            sides = set(match_r3(diagram, 0, 1, 2)["mids"])
            arcs = [a for a in arcs if a not in sides]
        variant = rng.choice(["+", "-", "+over", "-over"]) \
            if kind == "R1" else ""
        diagram, _ = apply_move(
            diagram,
            MovePatch(kind, "complicate", arcs=(rng.choice(arcs),),
                      variant=variant),
        )
    return diagram


def snf_naive(matrix):
    """Dense textbook Smith reduction, written independently of the library
    routine: recursive block structure, re-scanning the whole block for the
    smallest nonzero pivot before every reduction step (without that the
    coefficients of an 8x8 integer matrix already explode), one Euclidean
    step at a time, divisibility repaired by absorbing a witness row.
    Returns the positive invariant factors in order.
    """
    m = [list(r) for r in matrix]
    nr = len(m)
    nc = len(m[0]) if m else 0
    t = 0
    factors = []
    while t < nr and t < nc:
        while True:
            pos = min(
                ((r, c) for r in range(t, nr) for c in range(t, nc) if m[r][c]),
                key=lambda rc: abs(m[rc[0]][rc[1]]),
                default=None,
            )
            if pos is None:
                return tuple(factors)
            m[t], m[pos[0]] = m[pos[0]], m[t]
            for row in m:
                row[t], row[pos[1]] = row[pos[1]], row[t]
            p = m[t][t]
            bad_row = next((r for r in range(t + 1, nr) if m[r][t] % p), None)
            if bad_row is not None:
                q = m[bad_row][t] // p
                for c in range(nc):
                    m[bad_row][c] -= q * m[t][c]
                continue
            bad_col = next((c for c in range(t + 1, nc) if m[t][c] % p), None)
            if bad_col is not None:
                q = m[t][bad_col] // p
                for r in range(nr):
                    m[r][bad_col] -= q * m[r][t]
                continue
            for r in range(t + 1, nr):
                if m[r][t]:
                    q = m[r][t] // p
                    for c in range(nc):
                        m[r][c] -= q * m[t][c]
            for c in range(t + 1, nc):
                if m[t][c]:
                    q = m[t][c] // p
                    for r in range(nr):
                        m[r][c] -= q * m[r][t]
            witness = next(
                (r for r in range(t + 1, nr)
                 for c in range(t + 1, nc) if m[r][c] % p),
                None,
            )
            if witness is None:
                break
            for c in range(nc):
                m[t][c] += m[witness][c]
        factors.append(abs(m[t][t]))
        t += 1
    return tuple(factors)


def snf_least_entry(matrix, rows=None, cols=None) -> SmithDecomposition:
    """Smith normal form over Z with no bound on the entries, the oracle
    for small matrices: pivot on the nonzero entry of least absolute value
    (ties: lowest row, then column), clear its row and column by Euclidean
    steps, and absorb a witness row while the pivot does not divide the
    rest of the block.  Its coefficients can grow without bound: on a
    28 x 26 block with 65-bit entries (tests/data/) it does not finish in
    60 s.  Same arguments as ``khovanov.homology.smith_normal_form``.
    """
    if isinstance(matrix, dict):
        m = _triplets_to_dense(matrix, rows, cols)
    else:
        m = [list(r) for r in matrix]
    nr = len(m)
    nc = len(m[0]) if m else 0
    factors = []
    top = 0
    while True:
        pivot = None
        best = None
        for r in range(top, nr):
            row = m[r]
            for c in range(top, nc):
                v = row[c]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (r, c)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        r0, c0 = pivot
        m[top], m[r0] = m[r0], m[top]
        for row in m:
            row[top], row[c0] = row[c0], row[top]
        while True:
            p = m[top][top]
            dirty = False
            for r in range(top + 1, nr):
                v = m[r][top]
                if v:
                    q = v // p
                    if q:
                        for c in range(top, nc):
                            m[r][c] -= q * m[top][c]
                    if m[r][top]:
                        m[top], m[r] = m[r], m[top]
                        dirty = True
                        break
            if dirty:
                continue
            for c in range(top + 1, nc):
                v = m[top][c]
                if v:
                    q = v // p
                    if q:
                        for r in range(top, nr):
                            m[r][c] -= q * m[r][top]
                    if m[top][c]:
                        for row in m:
                            row[top], row[c] = row[c], row[top]
                        dirty = True
                        break
            if dirty:
                continue
            # pivot must divide the rest of the block, else absorb a witness row
            p = m[top][top]
            witness = None
            for r in range(top + 1, nr):
                for c in range(top + 1, nc):
                    if m[r][c] % p:
                        witness = r
                        break
                if witness is not None:
                    break
            if witness is None:
                break
            for c in range(top, nc):
                m[top][c] += m[witness][c]
        factors.append(abs(m[top][top]))
        top += 1
        if top >= nr or top >= nc:
            break
    return SmithDecomposition(tuple(factors))


def _det(matrix):
    m = [list(r) for r in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pr = next((r for r in range(k + 1, n) if m[r][k]), None)
            if pr is None:
                return 0
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def gcd_of_minors(matrix, k: int) -> int:
    """gcd of all k x k minors; the product d_1...d_k of invariant factors."""
    nr = len(matrix)
    nc = len(matrix[0]) if matrix else 0
    g = 0
    for rows in combinations(range(nr), k):
        for cols in combinations(range(nc), k):
            sub = [[matrix[r][c] for c in cols] for r in rows]
            g = gcd(g, _det(sub))
    return abs(g)


@dataclass(frozen=True)
class EnhancedState:
    """A Kauffman state with a sign on each circle (circle order canonical):
    the generator of the state-by-state oracles, which ``build_complex``
    keeps only as its key (markers, signs)."""

    markers: tuple[int, ...]
    circles: tuple[frozenset, ...]
    signs: tuple[int, ...]
    writhe: int

    @property
    def r(self) -> int:
        return len(self.circles)

    @property
    def sigma(self) -> int:
        return sum(self.markers)

    @property
    def tau(self) -> int:
        return sum(self.signs)

    @property
    def i(self) -> int:
        return (self.writhe - self.sigma) // 2

    @property
    def j(self) -> int:
        return (3 * self.writhe - self.sigma) // 2 + self.tau

    def key(self):
        return (self.markers, self.signs)


def enumerate_enhanced(diagram, max_crossings=DEFAULT_MAX_CROSSINGS):
    """All enhanced states, lazily: sum over marker states of 2^r sign
    choices."""
    check_guard(diagram, max_crossings)
    w = diagram.writhe()
    for markers in product((1, -1), repeat=diagram.n):
        circles = trace_circles(diagram, markers)
        for signs in product((1, -1), repeat=len(circles)):
            yield EnhancedState(markers, circles, signs, w)


def saddle(cx, key, c) -> list[tuple]:
    """Re-sign circles across the marker flip at crossing ``c`` (no global
    sign): returns [(state key, coefficient), ...].

    ``key`` is a generator of ``cx``, and the circles on both sides of the
    flip are read from ``cx.circles``.  The flip is positive-to-negative
    when markers[c] > 0 and the reverse otherwise; both directions are pure
    Frobenius saddles.  Exactly one merge or one split happens per flip.
    The oracle for the saddle transport of ``khovanov.moves._Side``, which
    resolves it once per marker state.
    """
    markers, signs = key
    new_markers = markers[:c] + (-markers[c],) + markers[c + 1:]
    edge = _cube_edge(cx.circles[markers], cx.circles[new_markers])
    return [((new_markers, new_signs), 1)
            for new_signs in resign(edge, signs)]


def resign(edge, signs) -> list:
    """Circle signs of the targets of one enhanced state across a cube edge
    (``complexes._cube_edge``), each with coefficient 1, one sign tuple at a
    time: the oracle for the merge/split branches of
    ``khovanov.complexes._edge_table``."""
    carry, old, new = edge
    out = [signs[k] for k in carry]
    if len(old) == 2:
        s1, s2 = signs[old[0]], signs[old[1]]
        if s1 < 0 and s2 < 0:
            return []
        out[new[0]] = 1 if (s1 > 0 and s2 > 0) else -1
        return [tuple(out)]
    p1, p2 = new
    if signs[old[0]] < 0:
        out[p1] = out[p2] = -1
        return [tuple(out)]
    targets = []
    for a, b in ((1, -1), (-1, 1)):
        out[p1], out[p2] = a, b
        targets.append(tuple(out))
    return targets


def edge_table_per_tuple(edge, runs, rank) -> dict:
    """``khovanov.complexes._edge_table`` worked out by ``resign``, one sign
    tuple at a time: {tau: [the tuple of target ranks of each sign tuple of
    the run tau]}, every target checked to lie in the run tau - 1."""
    table = {tau: [resign(edge, signs) for signs in run]
             for tau, run in runs.items()}
    if any(sum(t) != tau - 1 for tau, rows in table.items()
           for targets in rows for t in targets):
        raise AssertionError(f"differential not of bidegree (1,0): {edge}")
    return {tau: [tuple(rank[t] for t in targets) for targets in rows]
            for tau, rows in table.items()}


def saddle_per_state(diagram, state, c, traced=None):
    """Frobenius saddle at crossing ``c`` of one enhanced state, worked out
    from that state alone: circles traced afresh (once per marker state
    when ``traced``, a dict {markers: circles}, is given), changed circles
    found by set difference, merge/split rules applied by circle
    identity."""
    markers = list(state.markers)
    markers[c] = -markers[c]
    markers = tuple(markers)
    if traced is None:
        new_circles = trace_circles(diagram, markers)
    else:
        new_circles = traced.get(markers)
        if new_circles is None:
            new_circles = traced[markers] = trace_circles(diagram, markers)
    old_map = dict(zip(state.circles, state.signs))
    same = set(state.circles) & set(new_circles)
    old_changed = [x for x in state.circles if x not in same]
    new_changed = [x for x in new_circles if x not in same]
    out = []
    if len(old_changed) == 2 and len(new_changed) == 1:
        s1, s2 = old_map[old_changed[0]], old_map[old_changed[1]]
        if s1 < 0 and s2 < 0:
            return []
        merged = 1 if (s1 > 0 and s2 > 0) else -1
        signs = tuple(
            merged if x == new_changed[0] else old_map[x] for x in new_circles
        )
        out.append((EnhancedState(markers, new_circles, signs, state.writhe), 1))
    elif len(old_changed) == 1 and len(new_changed) == 2:
        s = old_map[old_changed[0]]
        pairs = [(1, -1), (-1, 1)] if s > 0 else [(-1, -1)]
        x1, x2 = new_changed
        for a, b in pairs:
            assign = {x1: a, x2: b}
            signs = tuple(
                assign[x] if x in assign else old_map[x] for x in new_circles
            )
            out.append((EnhancedState(markers, new_circles, signs, state.writhe), 1))
    else:
        raise AssertionError("expected a single merge or split")
    return out


def check_cube(cx) -> None:
    """Assert that the cube tables of ``cx`` are the per-state oracles':
    its circles are listed in ``product((1, -1))`` order and are those
    ``trace_circles`` gives for each marker state, each flip's pattern is
    ``_cube_edge``'s (None where the marker is negative), and each
    pattern's table is ``edge_table_per_tuple``'s, with no pattern left
    over."""
    d = cx.diagram
    states = list(product((1, -1), repeat=d.n))
    assert list(cx.circles) == states
    for m in states:
        assert cx.circles[m] == trace_circles(d, m), m
    assert sorted(cx.edges) == states[::-1]
    used = set()
    for m, flips in cx.edges.items():
        assert len(flips) == d.n
        for c, edge in enumerate(flips):
            flipped = m[:c] + (-1,) + m[c + 1:]
            assert edge == (None if m[c] < 0 else _cube_edge(
                cx.circles[m], cx.circles[flipped])), (m, c)
            if edge is not None:
                used.add(edge)
                assert cx.edge_tables[edge] == edge_table_per_tuple(
                    edge, cx.runs[len(cx.circles[m])], cx.rank), edge
    assert set(cx.edge_tables) == used


def disjoint_union(first, second):
    """The split diagram of ``first`` beside ``second``: the arcs of
    ``second`` relabelled past those of ``first``, the loops of both
    kept."""
    shift = max(first.arcs, default=0)
    tuples = [c.ends for c in first.crossings]
    tuples += [tuple(a + shift for a in c.ends) for c in second.crossings]
    return diagram_from_tuples(tuples, loops=first.loops + second.loops)


def flip_coefficient(markers, c: int, rule: str = "before") -> int:
    """Ordering sign of the differential's component at crossing ``c``:
    (-1)^(negative markers before c) under the "before" rule, after c under
    the "after" rule, each counted on its own."""
    if rule == "before":
        neg = sum(1 for m in markers[:c] if m < 0)
    elif rule == "after":
        neg = sum(1 for m in markers[c + 1 :] if m < 0)
    else:
        raise ValueError(f"unknown ordering rule {rule!r}")
    return -1 if neg % 2 else 1


def expand_keys(cx) -> dict:
    """{bidegree: [each generator's key (markers, signs), in row order]} of
    a ``KhovanovComplex``, expanded from its runs (``cells``): the
    per-generator view of a complex that lists no generator."""
    out = {}
    for bd, markers, _, run, _ in cx.cells():
        out.setdefault(bd, []).extend((markers, signs) for signs in run)
    return out


def key_index(cx) -> dict:
    """{key: (bidegree, row)} of every generator of ``cx``, from
    ``expand_keys``."""
    return {key: (bd, row) for bd, keys in expand_keys(cx).items()
            for row, key in enumerate(keys)}


def expanded_index(side) -> dict:
    """The run-keyed index of a ``khovanov.moves._Side`` ({(markers, tau):
    (bidegree, first row)}) expanded into {key: (bidegree, row)}, in the
    index's order."""
    cube, out = side.cube, {}
    for (markers, tau), (bd, row0) in side.index().items():
        run = cube.runs[len(cube.circles[markers])][tau]
        out.update(((markers, signs), (bd, row0 + k))
                   for k, signs in enumerate(run))
    return out


class PerStateComplex:
    """The complex of ``build_complex_per_state``, which lists its
    generators itself: ``gens[(i, j)]`` is the sorted list of keys of the
    bidegree, ``index`` each key's (bidegree, row) and ``diffs`` d as a
    ``GradedMap``."""

    def __init__(self, diagram):
        self.diagram, self.gens, self.index = diagram, {}, {}
        self.diffs = None

    def census(self) -> dict:
        return {bd: len(keys) for bd, keys in self.gens.items()}

    def to_json(self) -> dict:
        """``KhovanovComplex.to_json`` of the same census and d."""
        return KhovanovComplex(self.diagram, self.census(),
                               diffs=self.diffs).to_json()


def build_complex_per_state(diagram, sign_rule="before"):
    """The Khovanov complex with every enhanced state's differential worked
    out on its own by ``saddle_per_state``, each flip signed by
    ``flip_coefficient`` under ``sign_rule``: the oracle for the per-edge
    build in ``khovanov.complexes.build_complex`` ("before") and for its
    derived twin ``khovanov.complexes.after_twin`` ("after").  The circles
    of each flipped marker state are traced once, by ``trace_circles``,
    not read from any table of the build, and every generator is listed
    (``PerStateComplex``)."""
    cx = PerStateComplex(diagram)
    states, traced = {}, {}
    for s in enumerate_enhanced(diagram, max_crossings=diagram.n):
        cx.gens.setdefault((s.i, s.j), []).append(s.key())
        states[s.key()] = s
    for bd in cx.gens:
        cx.gens[bd].sort()
        for row, key in enumerate(cx.gens[bd]):
            cx.index[key] = (bd, row)
    cx.diffs = GradedMap("d", cx.census(), cx.census(), (1, 0))
    for (i, j), keys in cx.gens.items():
        block = cx.diffs.setdefault((i, j), {})
        for col, key in enumerate(keys):
            s = states[key]
            for c in range(diagram.n):
                if s.markers[c] < 0:
                    continue
                coeff = flip_coefficient(s.markers, c, sign_rule)
                for t, k in saddle_per_state(diagram, s, c, traced):
                    (bd_t, row) = cx.index[t.key()]
                    assert bd_t == (i + 1, j), (i, j, bd_t)
                    prev = block.get((row, col), 0) + coeff * k
                    if prev:
                        block[(row, col)] = prev
                    else:
                        block.pop((row, col), None)
    return cx


def torus_stability_gaps(p, qs, max_crossings=200) -> dict:
    """Torus-link stability over the ladder T(p, q), q in ``qs``: for each
    q, the table of T(p, q + 1) must equal that of T(p, q) with j shifted
    by p - 1 in every degree 0 <= i < p + q - 2.  Returns {q: (T(p, q)
    shifted, T(p, q + 1))}, each restricted to those degrees, for every q
    where the two differ.  Each T(p, q) is the closure of
    (sigma_1 ... sigma_{p-1})^q (``from_braid``), and its table is computed
    once."""
    tables = {}

    def table(q):
        if q not in tables:
            tables[q] = tangle_homology(from_braid(list(range(1, p)) * q, p),
                                        max_crossings=max_crossings)[0]
        return tables[q]

    gaps = {}
    for q in qs:
        low = range(0, p + q - 2)
        shifted = {(i, j + p - 1): group for (i, j), group in table(q).items()
                   if i in low and group != (0, ())}
        above = {(i, j): group for (i, j), group in table(q + 1).items()
                 if i in low and group != (0, ())}
        if shifted != above:
            gaps[q] = (shifted, above)
    return gaps


def dual_table(table) -> HomologyTable:
    """The table that mirror duality predicts for the mirror image: free
    rank at (i, j) goes to (-i, -j) and torsion at (i, j) to (1 - i, -j)
    (Khovanov, arXiv math/9908171, section 7)."""
    out = HomologyTable()
    for (i, j), (rank, torsion) in table.items():
        if rank:
            out[-i, -j] = (rank, out.get((-i, -j), (0, ()))[1])
        if torsion:
            out[1 - i, -j] = (out.get((1 - i, -j), (0, ()))[0], torsion)
    return out


def complex_under(diagram, rule):
    """``build_complex(diagram)`` under the "before" rule, its derived twin
    ``after_twin`` under the "after" rule."""
    cx = build_complex(diagram)
    return after_twin(cx) if rule == "after" else cx


def cube_homology(d: GradedMap) -> HomologyTable:
    """H^{i,j} = ker d_{i,j} / im d_{i-1,j} as free rank plus torsion, by
    unit cancellation across the whole complex, then Smith normal form of
    what is left: the oracle for a whole cube, whose blocks are too large
    for ``khovanov.homology.homology_groups`` (SNF of every whole block).
    The cancellation is the Gaussian-elimination lemma stated in
    ``khovanov/tangles.py``, applied to the integer entries of the cube:
    each j is reduced on its own, in one scan of its generators in
    numbering order (degree, then row); a column x with a +-1 entry is
    cancelled against the unit whose row y has the fewest entries, ties to
    the lowest y.  A unit that a cancellation creates in a column already
    scanned is left to SNF, which it reaches through
    ``khovanov.homology.smith_normal_form``.

    Takes the differential as ``homology_groups`` does: a ``GradedMap`` of
    shift (1, 0) with the dimensions of the complex in ``d.src``, such as a
    ``KhovanovComplex``'s ``diffs``.
    """
    degrees = {}
    for i, j in d.bidegrees():
        degrees.setdefault(j, []).append(i)
    table = HomologyTable()
    for j in sorted(degrees):
        table.update(_cube_homology_at_j(d, j, sorted(degrees[j])))
    return table


def _cube_homology_at_j(d: GradedMap, j: int, degrees) -> dict:
    """Homology of the summand of quantum grading j: unit cancellation,
    then Smith normal form of the residue, degree by degree."""
    # generators are numbered by (i, row); cols[x] and rows[y] hold d(x -> y)
    first = {}
    degree_of = []
    for i in degrees:
        first[i] = len(degree_of)
        degree_of.extend([i] * d.dim((i, j)))
    cols = [{} for _ in degree_of]
    rows = [{} for _ in degree_of]
    for i in degrees:
        if i + 1 not in first:
            continue
        src, tgt = first[i], first[i + 1]
        for (r, c), v in d.block((i, j)).items():
            if v:
                cols[src + c][tgt + r] = v
                rows[tgt + r][src + c] = v
    alive = [True] * len(degree_of)
    for x in range(len(degree_of)):
        units = [y for y, v in cols[x].items() if v == 1 or v == -1]
        if not units:
            continue
        y = min(units, key=lambda y: (len(rows[y]), y))
        e = cols[x][y]
        alive[x] = alive[y] = False
        out_x, in_y = cols[x], rows[y]
        del out_x[y], in_y[x]
        for v in out_x:
            del rows[v][x]
        for u, a in in_y.items():
            col_u = cols[u]
            del col_u[y]
            for v, b in out_x.items():
                new = col_u.get(v, 0) - a * e * b
                if new:
                    col_u[v] = rows[v][u] = new
                else:
                    del col_u[v], rows[v][u]
        for w in rows[x]:
            del cols[w][x]
        for z in cols[y]:
            del rows[z][y]
        cols[x] = rows[x] = cols[y] = rows[y] = {}
    # Smith normal form of the residue, degree by degree
    residue = {i: [x for x in range(first[i], first[i] + d.dim((i, j)))
                   if alive[x]] for i in degrees}
    snf = {}
    for i in degrees:
        targets = residue.get(i + 1, ())
        if not residue[i] or not targets:
            continue
        pos = {y: r for r, y in enumerate(targets)}
        block = {
            (pos[y], c): v
            for c, x in enumerate(residue[i])
            for y, v in cols[x].items()
        }
        if block:
            snf[i] = homology.smith_normal_form(
                block, rows=len(targets), cols=len(residue[i]))
    out = {}
    none = SmithDecomposition(())
    for i in degrees:
        incoming = snf.get(i - 1, none)
        free = len(residue[i]) - snf.get(i, none).rank - incoming.rank
        torsion = tuple(f for f in incoming.factors if f > 1)
        if free or torsion:
            out[(i, j)] = (free, torsion)
    return out


def invariant_factors_by_primes(orders) -> tuple:
    """The invariant factors, ascending, of the sum of Z/a over ``orders``
    by primary decomposition: the k-th largest factor is the product over
    primes p of p to the k-th largest exponent of p among the orders.
    Trial division, so the orders must have small prime factors."""
    exponents = {}
    for a in orders:
        p = 2
        while a > 1:
            e = 0
            while a % p == 0:
                a, e = a // p, e + 1
            if e:
                exponents.setdefault(p, []).append(e)
            p += 1
    factors = [1] * max(map(len, exponents.values()), default=0)
    for p, es in exponents.items():
        for k, e in enumerate(sorted(es, reverse=True)):
            factors[k] *= p ** e
    return tuple(reversed(factors))


def homology_with_loops(table, loops) -> HomologyTable:
    """``table`` tensored with (Z{+1} + Z{-1})^loops, one sign vector at a
    time, with the torsion merged by ``invariant_factors_by_primes``."""
    ranks, orders = Counter(), {}
    for (i, j), (rank, torsion) in table.items():
        for signs in product((1, -1), repeat=loops):
            bd = (i, j + sum(signs))
            ranks[bd] += rank
            orders.setdefault(bd, []).extend(torsion)
    return HomologyTable({bd: (ranks[bd], invariant_factors_by_primes(
        orders[bd])) for bd in orders})


def jones_census(diagram) -> LaurentPoly:
    """The Kauffman sum evaluated state by state over all 2^n marker
    states, from the circle-count census: the oracle for the frontier sum
    in ``khovanov.states.jones_kauffman``.  The state term is
    (-1)^((w-sigma)/2) q^((3w-sigma)/2) (q+1/q)^r."""
    w = diagram.writhe()
    n = diagram.n
    counts = census_circle_counts(diagram)
    circle_pows = [LaurentPoly({0: 1})]
    for _ in range(max(counts)):
        circle_pows.append(circle_pows[-1] * LaurentPoly.circle_factor())
    total = LaurentPoly()
    for mask in range(1 << n):
        # bit set = negative marker at that crossing
        sigma = n - 2 * bin(mask).count("1")
        coeff = -1 if ((w - sigma) // 2) % 2 else 1
        shift = (3 * w - sigma) // 2
        for e, c in circle_pows[counts[mask]].coeffs.items():
            total.add_term(coeff * c, e + shift)
    return total


def greedy_order_rescan(diagram) -> list[int]:
    """The frontier sum's crossing order by its definition: at each step
    re-sum, for every crossing left, its ends on open arcs (arcs with one
    end at a crossing already taken) and its own arcs (arcs with both ends
    at it), and take the largest (open ends + own arcs, own arcs), ties to
    the lowest index; O(n^2) sums.  The oracle for
    ``khovanov.states._greedy_order``, which updates the counts
    incrementally."""
    joined = dict.fromkeys(diagram.arcs, 0)
    left = list(range(diagram.n))
    order = []

    def key(k):
        ends = diagram.crossings[k].ends
        own = sum(ends.count(a) == 2 for a in set(ends))
        return (sum(joined[a] == 1 for a in ends) + own, own, -k)

    while left:
        best = max(left, key=key)
        left.remove(best)
        order.append(best)
        for a in diagram.crossings[best].ends:
            joined[a] += 1
    return order


def jones_enhanced(diagram) -> LaurentPoly:
    """The refined sum of (-1)^i q^j evaluated enhanced state by enhanced
    state, all 3^n-ish of them: the oracle for the per-marker-state sum in
    ``khovanov.states.jones_refined``."""
    total = LaurentPoly()
    for s in enumerate_enhanced(diagram, max_crossings=diagram.n):
        total.add_term(-1 if s.i % 2 else 1, s.j)
    return total


def _solve_exact(columns, target):
    """Coordinates of ``target`` in the basis ``columns`` (lists of equal
    length), or None if inconsistent.  Exact rational elimination."""
    rows = len(target)
    ncols = len(columns)
    aug = [[Fraction(columns[c][r]) for c in range(ncols)] + [Fraction(target[r])]
           for r in range(rows)]
    piv_cols = []
    rank = 0
    for c in range(ncols):
        pr = next((r for r in range(rank, rows) if aug[r][c]), None)
        if pr is None:
            continue
        aug[rank], aug[pr] = aug[pr], aug[rank]
        pv = aug[rank][c]
        aug[rank] = [x / pv for x in aug[rank]]
        for r in range(rows):
            if r != rank and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[rank])]
        piv_cols.append(c)
        rank += 1
    for r in range(rank, rows):
        if aug[r][ncols]:
            return None
    coords = [Fraction(0)] * ncols
    for r, c in enumerate(piv_cols):
        coords[c] = aug[r][ncols]
    return coords


def _dense_columns(m, bd, height, width) -> list:
    """The block of ``GradedMap`` ``m`` at ``bd`` as ``width`` dense columns
    of length ``height``, or more where an entry lies past them (a map
    built under a wrong convention may send a key to a row of another
    bidegree's summand)."""
    block = m.block(bd)
    height = max([height] + [r + 1 for r, _ in block])
    width = max([width] + [c + 1 for _, c in block])
    cols = [[0] * height for _ in range(width)]
    for (r, c), v in block.items():
        cols[c][r] = v
    return cols


def retained_keys(eq) -> set:
    """The keys of the retained summand of ``eq``'s source, classified one
    by one by the per-generator oracle (``per_generator_side``)."""
    return set(per_generator_side(eq.src).index())


def complement_vectors(eq, retained=None) -> dict:
    """{bd: [e_k - in(rho(e_k))]} of a ``MoveEquivalence``: for each key k
    at bd outside ``retained`` (by default ``retained_keys(eq)``), in
    generator order, the dense vector over the rows at bd, from dense
    columns of in and rho."""
    cx = eq.src_cx
    retained = retained_keys(eq) if retained is None else retained
    keys, out = expand_keys(cx), {}
    for bd in cx.bidegrees():
        dim = cx.dim(bd)
        width = eq.in_src.src.get(bd, 0)
        in_cols = _dense_columns(eq.in_src, bd, dim, width)
        rho_of = {}
        for (j, k), x in eq.rho_src.block(bd).items():
            if j < len(in_cols):
                rho_of.setdefault(k, []).append((j, x))
        vectors = []
        for k, key in enumerate(keys[bd]):
            if key in retained:
                continue
            v = [0] * dim
            v[k] = 1
            for j, x in rho_of.get(k, ()):
                for r, y in enumerate(in_cols[j]):
                    v[r] -= x * y
            vectors.append(v)
        if vectors:
            out[bd] = vectors
    return out


def _rho_violation(eq, vectors):
    """First nonzero entry of rho on the complement vectors, in (bidegree,
    row, col) order, with col the vector's number, or None."""
    for bd in sorted(vectors):
        nonzero = {}
        images = _apply(eq.rho_src, bd, vectors[bd], eq.rho_src.tgt.get(bd, 0))
        for k, image in enumerate(images):
            nonzero.update({(r, k): y for r, y in enumerate(image) if y})
        if nonzero:
            r, c = min(nonzero)
            return {"i": bd[0], "j": bd[1], "row": r, "col": c,
                    "value": nonzero[(r, c)]}
    return None


def _apply(m, bd, vectors, height) -> list:
    """The block of ``m`` at ``bd`` applied to each dense vector of
    ``vectors``, as dense vectors of length ``height`` or more (see
    ``_dense_columns``)."""
    block = m.block(bd).items()
    height = max([height] + [r + 1 for (r, _), _ in block])
    images = []
    for v in vectors:
        image = [0] * height
        for (r, c), x in block:
            image[r] += x * v[c]
        images.append(image)
    return images


def _coordinate_differential(cx, vectors, d) -> GradedMap:
    """The differential on the span of the complement vectors
    (``complement_vectors``), as ``homology_groups`` takes it: d of each
    vector written, by ``_solve_exact``, in the vectors one bidegree up."""
    dims = {bd: len(vs) for bd, vs in vectors.items()}
    out = GradedMap("d", dims, dims, (1, 0))
    for bd, vs in vectors.items():
        tgt_bd = (bd[0] + 1, bd[1])
        cols = vectors.get(tgt_bd, [])
        block = {}
        for col, image in enumerate(_apply(d, bd, vs, cx.dim(tgt_bd))):
            if not any(image):
                continue
            coords = _solve_exact(cols, image)
            if coords is None:
                raise AssertionError("complement is not d-invariant")
            for row, val in enumerate(coords):
                if val:
                    if val.denominator != 1:
                        raise AssertionError(
                            "complement differential not integral"
                        )
                    block[(row, col)] = int(val)
        if block:
            out[bd] = block
    return out


def dense_decomposition(eq, retained=None):
    """The decomposition check of a ``MoveEquivalence`` recomputed densely
    from its definition, with a complement of its own
    (``complement_vectors``, outside the keys ``retained``): ``rho`` kills
    the complement, the retained and complement vectors together have a
    determinant of +-1 over each whole bidegree, and the complement is a
    subcomplex with zero homology (coordinates by rational elimination,
    homology by dense SNF).  The oracle for
    ``MoveEquivalence._check_decomposition``; returns None or the first
    violation, with the same reasons."""
    vectors = complement_vectors(eq, retained)
    rv = _rho_violation(eq, vectors)
    if rv is not None:
        return {"reason": "complement not in ker(rho)", **rv}
    for bd in eq.src_cx.bidegrees():
        dim = eq.src_cx.dim(bd)
        cols = _dense_columns(eq.in_src, bd, dim, eq.in_src.src.get(bd, 0))
        cols += vectors.get(bd, [])
        if len(cols) != dim:
            return {"reason": "dimension mismatch", "i": bd[0], "j": bd[1],
                    "have": len(cols), "want": dim}
        det = _det([list(r) for r in zip(*cols)]) if dim else 1
        if det not in (1, -1):
            return {"reason": "basis not unimodular", "i": bd[0],
                    "j": bd[1], "det": det}
    try:
        table = homology_groups(_coordinate_differential(eq.src_cx, vectors,
                                                         eq.d_src))
    except AssertionError as exc:
        return {"reason": str(exc)}
    if table:
        bd = sorted(table)[0]
        return {"reason": "complement not acyclic", "i": bd[0], "j": bd[1],
                "group": table[bd]}
    return None


def _permutation_sign(perm) -> int:
    """Sign of a permutation of range(len(perm)), by its cycles."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        k = start
        length = 0
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def basis_det_per_row(eq, bd) -> int:
    """``MoveEquivalence._basis_det`` row by row: the retained rows listed
    by testing each row against the complement, the sign of the row order
    (retained rows, then the complement's) by the cycles of that
    permutation, and in's block on the retained rows read off as a signed
    permutation, or by ``homology._bareiss`` when it is none.  The oracle
    for the run-wise determinant."""
    contr_rows = complement_rows_per_generator(eq).get(bd, [])
    skip = set(contr_rows)
    retained_rows = [r for r in range(eq.src_cx.dim(bd)) if r not in skip]
    block_row = {r: k for k, r in enumerate(retained_rows)}
    entries = [(block_row[r], c, v)
               for (r, c), v in eq.in_src.block(bd).items()
               if r in block_row]
    sign = _permutation_sign(retained_rows + contr_rows)
    n = len(retained_rows)
    rows = {r for r, _, _ in entries}
    cols = {c for _, c, _ in entries}
    if (len(entries) == len(rows) == len(cols) == n
            and all(v in (1, -1) for _, _, v in entries)):
        perm = [0] * n
        for r, c, v in entries:
            perm[r] = c
            sign *= v
        return sign * _permutation_sign(perm)
    dense = [[0] * n for _ in range(n)]
    for r, c, v in entries:
        dense[r][c] = v
    rank, det = homology._bareiss(dense)
    return sign * det if rank == n else 0


def sparse_det(columns) -> int:
    """Exact determinant of the square matrix with the sparse ``columns``
    ({row: value} each), by elimination on sparse rows, over Z while the
    pivots are units and over Q after: each step
    pivots in a column with the fewest entries left, on its row with the
    fewest, and the determinant is the product of the pivots times the
    sign of the pivot positions."""
    n = len(columns)
    rows, col_rows = {}, [set() for _ in range(n)]
    for c, col in enumerate(columns):
        for r, v in col.items():
            if v:
                rows.setdefault(r, {})[c] = v
                col_rows[c].add(r)
    heap = [(len(rs), c) for c, rs in enumerate(col_rows)]
    heapq.heapify(heap)
    done, perm, det = set(), [0] * n, 1
    while heap:
        size, c = heapq.heappop(heap)
        if c in done or size != len(col_rows[c]):
            continue
        if not size:
            return 0
        r = min(col_rows[c], key=lambda r: (len(rows[r]), r))
        pivot_row = rows.pop(r)
        pv = pivot_row[c]
        det *= pv
        done.add(c)
        perm[c] = r
        for c2 in pivot_row:
            col_rows[c2].discard(r)
        for r2 in list(col_rows[c]):
            row = rows[r2]
            f = row[c] * pv if pv in (1, -1) else Fraction(row[c]) / pv
            for c2, v in pivot_row.items():
                nv = row.get(c2, 0) - f * v
                if nv:
                    row[c2] = nv
                    col_rows[c2].add(r2)
                else:
                    row.pop(c2, None)
                    col_rows[c2].discard(r2)
        for c2 in pivot_row:
            if c2 not in done:
                heapq.heappush(heap, (len(col_rows[c2]), c2))
    seen, sign = [False] * n, 1
    for start in range(n):
        k, length = start, 0
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0 and length:
            sign = -sign
    assert det == int(det)
    return sign * int(det)


# The sign transports of ``khovanov.moves`` worked out generator by
# generator from the circles, with no table: the oracles for the
# transports of ``khovanov.moves._Side``, which resolves each once per
# marker state.  The saddle's is ``saddle`` above.

def _flipped(markers, at):
    return markers[:at] + (-markers[at],) + markers[at + 1:]


def attach_per_generator(circles, key, flip_at, patch_arcs, value):
    markers, signs = key
    old = circles[markers]
    markers = _flipped(markers, flip_at)
    new_signs = []
    for nc in circles[markers]:
        if nc <= patch_arcs:
            new_signs.append(value)
            continue
        owners = [sign for oc, sign in zip(old, signs) if nc <= oc]
        if len(owners) != 1:
            raise AssertionError("attach: circle containment not one-to-one")
        new_signs.append(owners[0])
    return markers, tuple(new_signs)


def drop_per_generator(circles, key, flip_at, patch_arcs):
    markers, signs = key
    old = [(oc, sign) for oc, sign in zip(circles[markers], signs)
           if not (oc <= patch_arcs)]
    markers = _flipped(markers, flip_at)
    new_signs = []
    for nc in circles[markers]:
        owners = [sign for oc, sign in old if oc <= nc]
        if len(owners) != 1:
            raise AssertionError("drop: circle containment not one-to-one")
        new_signs.append(owners[0])
    return markers, tuple(new_signs)


def _carry_signs(owners_of, signs, new_circles, error):
    assign, used, unmatched = {}, set(), []
    for nc in new_circles:
        owners = [k for k in owners_of(nc) if k not in used]
        if len(owners) == 1:
            assign[nc] = signs[owners[0]]
            used.add(owners[0])
        else:
            unmatched.append(nc)
    leftovers = [k for k in range(len(signs)) if k not in used]
    if len(unmatched) == 1 and len(leftovers) == 1:
        assign[unmatched[0]] = signs[leftovers[0]]
    elif unmatched or leftovers:
        raise AssertionError(error)
    return tuple(assign[nc] for nc in new_circles)


def bijective_per_generator(circles, key, new_markers, patch_arcs):
    ext = [oc - patch_arcs for oc in circles[key[0]]]
    new_markers = tuple(new_markers)
    return new_markers, _carry_signs(
        lambda nc: [k for k, e in enumerate(ext) if e and e == nc - patch_arcs],
        key[1], circles[new_markers],
        "bijective transport: external arcs do not match")


def cross_per_generator(src_circles, key, tgt_circles, tgt_markers, corr):
    images = [frozenset(corr[x] for x in oc if x in corr)
              for oc in src_circles[key[0]]]
    tgt_markers = tuple(tgt_markers)
    return tgt_markers, _carry_signs(
        lambda tc: [k for k, img in enumerate(images) if img and img <= tc],
        key[1], tgt_circles[tgt_markers],
        "cross-diagram transport: circles do not match")


def mid_sign_per_generator(circles, key, patch_arcs):
    for circle, sign in zip(circles[key[0]], key[1]):
        if circle <= patch_arcs:
            return sign
    raise AssertionError("xb-family state has no patch-local circle")


class PerGeneratorTransports:
    """The sign transports of ``khovanov.moves._Side`` applied to one
    generator at a time, each worked out afresh from the circles by the
    per-generator functions above (``saddle`` for the saddle), with no
    resolution kept."""

    def __init__(self, cube, patch_arcs, target=None):
        self.cube, self.circles = cube, cube.circles
        self.patch_arcs, self.target = patch_arcs, target

    def attach(self, key, flip_at, value):
        return attach_per_generator(self.circles, key, flip_at,
                                    self.patch_arcs, value)

    def drop(self, key, flip_at):
        return drop_per_generator(self.circles, key, flip_at, self.patch_arcs)

    def bijective(self, key, new_markers):
        return bijective_per_generator(self.circles, key, new_markers,
                                       self.patch_arcs)

    def cross(self, key, tgt_markers):
        tgt_circles, corr = self.target
        return cross_per_generator(self.circles, key, tgt_circles,
                                   tgt_markers, corr)

    def saddle(self, key, c):
        return saddle(self.cube, key, c)

    def mid_sign(self, key):
        return mid_sign_per_generator(self.circles, key, self.patch_arcs)


def _saddle_terms(tables, key, crossing, pq_rule):
    """Frobenius saddle at a patch crossing, under the coefficient table
    ``pq_rule``."""
    terms = tables.saddle(key, crossing)
    if pq_rule == "negated":
        # a merge leaves one term, with one circle (so one sign) fewer
        merged = len(terms) == 1 and len(terms[0][0][1]) < len(key[1])
        if merged:
            terms = [(t, -k) for t, k in terms]
    elif pq_rule != "standard":
        raise ValueError(f"unknown pq rule {pq_rule!r}")
    return terms


def _dims(index) -> dict:
    """Dimension per bidegree of the summand that ``index`` names."""
    dims = {}
    for bd, _ in index.values():
        dims[bd] = dims.get(bd, 0) + 1
    return dims


def _oracle_memoized(build):
    """A ``PerGeneratorSide`` builder memoized under its name and
    arguments; a build that raised ``AssertionError`` raises its message
    again."""
    def memoized(side, *args):
        key = (build.__name__, *args)
        if key not in side.memo:
            try:
                side.memo[key] = build(side, *args)
            except AssertionError as exc:
                side.memo[key] = AssertionError(str(exc))
        found = side.memo[key]
        if isinstance(found, AssertionError):
            raise AssertionError(str(found))
        return found
    return memoized


class PerGeneratorSide:
    """The maps of a ``khovanov.moves._Side`` built generator by generator,
    each generator classified and transported on its own
    (``PerGeneratorTransports``) and each entry added to its ``GradedMap``
    one at a time: the oracle for the side's builders, which write a run of
    generators at a time from the cube's rank tables.  It shares the side's
    cube and slots and nothing else."""

    def __init__(self, side):
        self.cube, self.suffix = side.cube, side.suffix
        self.keys = expand_keys(side.cube)
        self.position = key_index(side.cube).__getitem__
        self.a, self.b, self.c = side.a, side.b, side.c
        self.patch_arcs, self.x_range = side.patch_arcs, side.x_range
        target = None
        if side.target is not None:
            other, corr = side.target
            target = (other.cube.circles, corr)
        self.tables = PerGeneratorTransports(self.cube, self.patch_arcs,
                                             target)
        self.memo = {}

    def family(self, key):
        """Patch-marker pattern of a generator: 'x', 'xa', 'xb', 'xab' with a
        trailing 'c' when the marker at c is negative (R3 only)."""
        markers = key[0]
        tag = ""
        if markers[self.a] < 0:
            tag += "a"
        if markers[self.b] < 0:
            tag += "b"
        name = "x" + tag
        if self.c is not None and markers[self.c] < 0:
            name += "c"
        return name

    def mid_sign(self, key) -> int:
        """Sign of the patch-local circle of an 'xb'-family state."""
        return self.tables.mid_sign(key)

    def s_x(self, key) -> int:
        markers = key[0]
        neg = sum(1 for k in self.x_range if markers[k] < 0)
        return -1 if neg % 2 else 1

    @_oracle_memoized
    def index(self) -> dict:
        """{leading key: (bidegree, row)} of the retained summand: the 'xa'
        keys, each leading its combination r(g), and for R3 the keys whose
        marker at c is negative, in generator order per bidegree.  The two
        key sets are disjoint, so a key alone names its entry."""
        cx = self.cube
        index = {}
        for bd in cx.bidegrees():
            row = 0
            for key in self.keys[bd]:
                fam = self.family(key)
                if fam == "xa" or fam.endswith("c"):
                    index[key] = (bd, row)
                    row += 1
        return index

    @_oracle_memoized
    def complement_rows(self) -> dict:
        """{bidegree: rows of the keys that ``index`` does not name}; a
        bidegree without one is left out."""
        index, rows = self.index(), {}
        for bd, keys in self.keys.items():
            contr = [row for row, key in enumerate(keys) if key not in index]
            if contr:
                rows[bd] = contr
        return rows

    def _term_row(self, cx, bd, key) -> int:
        """Row of ``key``, a term of a retained combination at ``bd``."""
        tbd, row = self.position(key)
        if tbd != bd:
            raise AssertionError("retained combination mixes bidegrees")
        return row

    @_oracle_memoized
    def inclusion(self, partner_mid, partner_sign, pq_rule) -> GradedMap:
        """in: the column of a leading 'xa' key g is the combination
        r(g) = g + attach(S_b(g)), that of a c-negative key the key itself."""
        cx = self.cube
        index = self.index()
        out = GradedMap("in" + self.suffix, _dims(index), cx.dims)
        for key, (bd, col) in index.items():
            add(out, bd, self.position(key)[1], col, 1)
            if self.family(key) != "xa":
                continue
            for t, coeff in _saddle_terms(self.tables, key, self.b, pq_rule):
                partner = self.tables.attach(t, self.a, partner_mid)
                add(out, bd, self._term_row(cx, bd, partner), col,
                    partner_sign * coeff)
        return out

    @_oracle_memoized
    def retraction(self, active_mid, rho_b_sign, pq_rule) -> GradedMap:
        cx = self.cube
        index = self.index()
        out = GradedMap("rho" + self.suffix, cx.dims, _dims(index))
        saddles = (self.a,) if self.c is None else (self.a, self.c)
        for bd in cx.bidegrees():
            for col, key in enumerate(self.keys[bd]):
                fam = self.family(key)
                if fam == "xa" or fam.endswith("c"):
                    add(out, bd, index[key][1], col, 1)
                elif fam == "xb" and self.mid_sign(key) == active_mid:
                    base = self.tables.drop(key, self.b)
                    for at in saddles:
                        for t, coeff in _saddle_terms(self.tables, base, at,
                                                      pq_rule):
                            add(out, bd, index[t][1], col, rho_b_sign * coeff)
                elif fam == "xab" and self.c is not None:
                    markers = list(key[0])
                    markers[self.a] = 1
                    markers[self.c] = -1
                    t = self.tables.bijective(key, markers)
                    add(out, bd, index[t][1], col, 1)
        return out

    @_oracle_memoized
    def homotopy(self, partner_mid, active_mid, h_w_sign, h_b_sign,
                 h_x_mod) -> GradedMap:
        cx = self.cube
        out = GradedMap("h", cx.dims, cx.dims, (-1, 0))
        for bd in cx.bidegrees():
            for col, key in enumerate(self.keys[bd]):
                fam = self.family(key)
                sx = self.s_x(key) if h_x_mod else 1
                if fam == "xab":
                    t = self.tables.attach(key, self.a, partner_mid)
                    add(out, bd, self.position(t)[1], col, h_w_sign * sx)
                elif fam == "xb" and self.mid_sign(key) == active_mid:
                    t = self.tables.drop(key, self.b)
                    add(out, bd, self.position(t)[1], col, h_b_sign * sx)
        return out


class PerGeneratorWhole(PerGeneratorSide):
    """The R2 target: its index names every key of its complex, and in_D
    and rho_D are identities."""

    @_oracle_memoized
    def index(self) -> dict:
        return key_index(self.cube)

    def inclusion(self, *_) -> GradedMap:
        return GradedMap.identity(self.cube.dims, "in_D")

    def retraction(self, *_) -> GradedMap:
        return GradedMap.identity(self.cube.dims, "rho_D")


# each side's oracle, made on first use and dropped with the side
_ORACLE_SIDES = weakref.WeakKeyDictionary()


def per_generator_side(side) -> PerGeneratorSide:
    """The per-generator oracle of a ``khovanov.moves._Side``, or of the
    R2 target ``_Whole``: one per side, which holds no reference to it."""
    oracle = _ORACLE_SIDES.get(side)
    if oracle is None:
        whole = side.a is None
        oracle = _ORACLE_SIDES[side] = (
            PerGeneratorWhole if whole else PerGeneratorSide)(side)
    return oracle


def _target_key_for(patch, tables, key):
    """Image key in the target's index, and coefficient, of one leading
    key of the source's.

    R2 drops the bigon's two markers.  For R3, combinations (marker at c
    positive) keep their slot markers; c-negative states swap the
    markers at the slots of a and b (the isotopy of the c-smoothed
    diagrams exchanges which crossing plays which role).  The swap
    conjugates the ordering signs, which costs -1 exactly on states with
    negative markers at both a and b.
    """
    markers = key[0]
    eps = 1
    if patch.kind == "R2":
        tgt_markers = markers[:-2]
    elif markers[patch.src.c] > 0:
        tgt_markers = markers
    else:
        a, b = patch.src.a, patch.src.b
        tgt_markers = list(markers)
        tgt_markers[a], tgt_markers[b] = markers[b], markers[a]
        if markers[a] < 0 and markers[b] < 0:
            eps = -1
    return tables.cross(key, tgt_markers), eps


def isom_per_generator(patch, src, tgt) -> GradedMap:
    """The isomorphism of ``patch`` built key by key, from the
    per-generator sides ``src`` and ``tgt`` (``per_generator_side``)."""
    index_src, index_tgt = src.index(), tgt.index()
    out = GradedMap("isom", _dims(index_src), _dims(index_tgt))
    for key, (bd, col) in index_src.items():
        tgt_key, eps = _target_key_for(patch, src.tables, key)
        tbd, row = index_tgt[tgt_key]
        if tbd != bd:
            raise AssertionError(
                f"isom does not preserve bidegree: {bd} -> {tbd}"
            )
        add(out, bd, row, col, eps)
    return out


def invert_signed_permutation_per_entry(f: GradedMap) -> GradedMap:
    out = GradedMap("isom_inv", f.tgt, f.src)
    for bd, blk in f.items():
        seen_rows = set()
        seen_cols = set()
        for (r, c), v in blk.items():
            if v not in (1, -1) or r in seen_rows or c in seen_cols:
                raise AssertionError("isom is not a signed permutation")
            seen_rows.add(r)
            seen_cols.add(c)
            add(out, bd, c, r, v)
    return out


def support_discipline_per_generator(eq):
    """``MoveEquivalence._check_support_discipline`` column by column."""
    src = per_generator_side(eq.src)
    for bd in eq.src_cx.bidegrees():
        keys = src.keys[bd]
        rho_blk = eq.rho_src.block(bd)
        h_blk = eq.h.block(bd)
        rho_cols = {c for (_, c) in rho_blk}
        h_cols = {c for (_, c) in h_blk}
        for col, key in enumerate(keys):
            fam = src.family(key)
            rho_ok = (
                fam == "xa"
                or fam.endswith("c")
                or (fam == "xb" and src.mid_sign(key) == eq.conv.active_mid)
                or (fam == "xab" and eq.kind == "R3")
            )
            h_ok = fam == "xab" or (
                fam == "xb" and src.mid_sign(key) == eq.conv.active_mid
            )
            if col in rho_cols and not rho_ok:
                return {"map": "rho", "family": fam, "i": bd[0], "j": bd[1]}
            if col in h_cols and not h_ok:
                return {"map": "h", "family": fam, "i": bd[0], "j": bd[1]}
    return None


def complement_rows_per_generator(eq) -> dict:
    """{bidegree: rows of the keys outside ``retained_keys(eq)``} of
    ``eq``'s source, key by key; a bidegree without one is left out."""
    return per_generator_side(eq.src).complement_rows()


def in_contr_per_generator(eq) -> GradedMap:
    """``MoveEquivalence._in_contr`` entry by entry: at each bidegree,
    column k is e - in rho e for the k-th key e outside the retained
    summand (``complement_rows_per_generator``)."""
    cx = eq.src_cx
    rows = complement_rows_per_generator(eq)
    out = GradedMap("in_contr", {bd: len(r) for bd, r in rows.items()},
                    cx.dims)
    in_rho = eq.in_src.compose(eq.rho_src)
    for bd, contr in rows.items():
        by_col = {}
        for (r, c), v in in_rho.block(bd).items():
            by_col.setdefault(c, []).append((r, v))
        for k, row in enumerate(contr):
            add(out, bd, row, k, 1)
            for r, v in by_col.get(row, ()):
                add(out, bd, r, k, -v)
    return out


def check_per_generator(eq, seen=None):
    """Assert that ``eq``'s support check, the rows of the runs its index
    does not name (``_Side.row_runs``) and its complement map equal the
    per-generator oracle's.  With ``seen``, a set, each check runs once per
    distinct pair of maps it reads."""
    seen = set() if seen is None else seen
    key = (id(eq.rho_src), id(eq.h), eq.conv.active_mid)
    if key not in seen:
        seen.add(key)
        assert eq._check_support_discipline() == \
            support_discipline_per_generator(eq)
    key = (id(eq.in_src), id(eq.rho_src))
    if key not in seen:
        seen.add(key)
        unnamed = {bd: [r for row0, n, named in runs if not named
                        for r in range(row0, row0 + n)]
                    for bd, runs in eq.src.row_runs.items()}
        assert {bd: rows for bd, rows in unnamed.items() if rows} == \
            complement_rows_per_generator(eq)
        assert map_entries(eq._in_contr()) == \
            map_entries(in_contr_per_generator(eq))


def _outcome_of(build, *args):
    """``build(*args)``, or the message of the ``AssertionError`` it
    raised."""
    try:
        return build(*args)
    except AssertionError as exc:
        return str(exc)


def map_entries(m):
    """A ``GradedMap`` entry for entry: its name, dimensions, shift and
    blocks."""
    return m.name, m.src, m.tgt, m.shift, dict(m)


def map_builds(patch, conv, sides=None) -> dict:
    """Each map of ``conv`` on ``patch`` in the order ``MoveEquivalence``
    builds them, entry for entry (``map_entries``; an index as its items in
    order, a run-keyed one expanded by ``expanded_index``), or the message
    its build raised: built by the patch's sides, or by ``sides``, a
    (source, target) pair of ``per_generator_side``s, and then with the
    isomorphism built key by key."""
    c = conv
    if sides is None:
        src, tgt = patch.src, patch.tgt

        def index(side):
            return expanded_index(side)

        def isom():
            return patch.isom()

        def isom_inv():
            return patch.isom_inv()
    else:
        src, tgt = sides

        def index(side):
            return side.index()

        def isom():
            return isom_per_generator(patch, src, tgt)

        def isom_inv():
            return invert_signed_permutation_per_entry(isom())
    builds = {
        "index": lambda: index(src),
        "in": lambda: src.inclusion(c.partner_mid, c.partner_sign, c.pq_rule),
        "rho": lambda: src.retraction(c.active_mid, c.rho_b_sign, c.pq_rule),
        "h": lambda: src.homotopy(c.partner_mid, c.active_mid, c.h_w_sign,
                                  c.h_b_sign, c.h_x_mod),
        "index_D": lambda: index(tgt),
        "in_D": lambda: tgt.inclusion(c.partner_mid, c.partner_sign,
                                      c.pq_rule),
        "rho_D": lambda: tgt.retraction(c.active_mid, c.rho_b_sign,
                                        c.pq_rule),
        "isom": isom,
        "isom_inv": isom_inv,
    }
    out = {}
    for name, build in builds.items():
        got = _outcome_of(build)
        if isinstance(got, GradedMap):
            got = map_entries(got)
        elif isinstance(got, dict):  # an index, in its order
            got = list(got.items())
        out[name] = got
    return out


def unshared(patch):
    """A copy of the ``khovanov.moves._Patch`` ``patch`` that shares its
    geometry and its complexes and nothing else: an equivalence on it
    resolves its own transports, and builds and checks everything of its
    own."""
    out = copy.copy(patch)
    out.memo = {}
    for name in ("src", "tgt"):
        side = copy.copy(getattr(patch, name))
        side.memo = {}
        for made in ("classes", "dims", "row_runs"):
            vars(side).pop(made, None)
        setattr(out, name, side)
    return out


def convention_search_full(patch, candidates=None):
    """``khovanov.moves.convention_search`` without its short circuit and
    without its memo: every candidate gets its own copy of ``patch``
    (``unshared``), so it resolves its own transports, builds its own in,
    rho, h and isomorphism, runs the whole ``checks()`` list and passes when
    all of them hold.  The oracle for the search's stop at the first failing
    identity and for its memo; returns the passing candidates themselves,
    in candidate order."""
    if candidates is None:
        candidates = default_candidates()
    passing = []
    for conv in candidates:
        try:
            eq = MoveEquivalence(unshared(patch), conv)
            checks = eq.checks(include_decomposition=False)
        except AssertionError:
            continue
        if all(c["pass"] for c in checks):
            passing.append(conv)
    return passing


class MapKeyedEquivalence(MoveEquivalence):
    """``MoveEquivalence`` with each verdict and shared product keyed by
    the maps it reads, by identity, as they were keyed before the search
    grouped its candidates by the values of the fields those maps read.
    The patch's sides hold every map as long as the keys, so a map's id
    stands for it."""

    READS = {**_CHECKS, **_PREMISES, **_PRODUCTS}

    def _verdict_key(self, name) -> tuple:
        return (name, *(id(getattr(self, m)) for m in self.READS[name]))


def convention_search_per_candidate(patch, candidates=None):
    """``khovanov.moves.convention_search`` as a walk of each candidate's
    own checks: each candidate builds its complexes and maps first (a
    failed build drops it), then walks the checks in report order,
    decomposition aside, up to the first that fails, reading the verdicts
    and products that earlier candidates left in the patch under the maps
    they read (``MapKeyedEquivalence``).  The oracle for the search's walk
    over the checks and for its verdict keys: it should be given a patch of
    its own.  Returns the passing candidates themselves, in candidate
    order."""
    if candidates is None:
        candidates = default_candidates()
    passing = []
    for conv in candidates:
        try:
            eq = MapKeyedEquivalence(patch, conv)
            eq.build()
            holds = all(violation is None for _, violation in
                        eq._violations(include_decomposition=False))
        except AssertionError:
            continue
        if holds:
            passing.append(conv)
    return passing


def held(module) -> dict:
    """Sizes of the containers a module keeps between calls: its global
    dicts, lists and sets, its functions' mutable default arguments and the
    caches of its ``functools`` cached functions."""
    out = {}
    for name, value in vars(module).items():
        if name.startswith("__"):
            continue
        if isinstance(value, (dict, list, set)):
            out[name] = len(value)
        if hasattr(value, "cache_info"):
            out[name] = value.cache_info().currsize
        for k, default in enumerate(getattr(value, "__defaults__", None)
                                    or ()):
            if isinstance(default, (dict, list, set)):
                out[f"{name}.{k}"] = len(default)
    return out


def full_violations(eq) -> list[dict]:
    """Every check of ``eq.checks()`` computed from its whole-cube
    products, with no shared result and no premise: both composites are
    composed and tested against the differentials, and the decomposition
    certificate runs all four steps.  The oracle for the checks that
    ``MoveEquivalence`` reads off the identities that imply them."""
    def identity_gap(f):
        return f.first_difference(GradedMap.identity(f.src))

    def chain_gap(f, d_src, d_tgt):
        return d_tgt.compose(f).first_difference(f.compose(d_src))

    d_in = eq.d_src.compose(eq.in_src)
    d_r = eq.rho_src.compose(d_in)
    in_rho = eq.in_src.compose(eq.rho_src)

    def homotopy_gap():
        lhs = plus(eq.d_src.compose(eq.h), eq.h.compose(eq.d_src))
        return lhs.first_difference(minus(GradedMap.identity(lhs.src),
                                          in_rho, name="id-in.rho"))

    def isom_chain_gap():
        d_r_tgt = eq.rho_tgt.compose(eq.d_tgt.compose(eq.in_tgt))
        return eq.isom.compose(d_r).first_difference(d_r_tgt.compose(eq.isom))

    def decomposition_gap():
        # the complement of its own, dense; the determinant over each whole
        # bidegree by sparse elimination, since a dense one is too slow at
        # eight crossings
        cx = eq.src_cx
        vectors = complement_vectors(eq)
        rv = _rho_violation(eq, vectors)
        if rv is not None:
            return {"reason": "complement not in ker(rho)", **rv}
        for bd in cx.bidegrees():
            dim = cx.dim(bd)
            contr = vectors.get(bd, [])
            have = eq.in_src.src.get(bd, 0) + len(contr)
            if have != dim:
                return {"reason": "dimension mismatch", "i": bd[0],
                        "j": bd[1], "have": have, "want": dim}
            columns = [{} for _ in range(eq.in_src.src.get(bd, 0))]
            for (r, c), v in eq.in_src.block(bd).items():
                columns[c][r] = v
            columns += [{r: x for r, x in enumerate(v) if x} for v in contr]
            det = sparse_det(columns)
            if det not in (1, -1):
                return {"reason": "basis not unimodular", "i": bd[0],
                        "j": bd[1], "det": det}
        for bd, contr in vectors.items():
            up = (bd[0] + 1, bd[1])
            d_contr = _apply(eq.d_src, bd, contr, cx.dim(up))
            if any(any(image) for image in _apply(
                    eq.rho_src, up, d_contr, eq.rho_src.tgt.get(up, 0))):
                return {"reason": "complement is not d-invariant"}
        return None

    checks = [
        ("rho_in_identity",
         lambda: identity_gap(eq.rho_src.compose(eq.in_src))),
        ("rho_in_identity_target",
         lambda: identity_gap(eq.rho_tgt.compose(eq.in_tgt))),
        ("in_chain_map",
         lambda: d_in.first_difference(eq.in_src.compose(d_r))),
        ("rho_chain_map", lambda: eq.rho_src.compose(eq.d_src)
         .first_difference(d_r.compose(eq.rho_src))),
        ("composite_chain_map", lambda: chain_gap(
            eq.in_tgt.compose(eq.isom.compose(eq.rho_src)), eq.d_src,
            eq.d_tgt)),
        ("composite_chain_map_back", lambda: chain_gap(
            eq.in_src.compose(eq.isom_inv.compose(eq.rho_tgt)), eq.d_tgt,
            eq.d_src)),
        ("isom_chain_map", isom_chain_gap),
        ("isom_invertible",
         lambda: identity_gap(eq.isom_inv.compose(eq.isom))
         or identity_gap(eq.isom.compose(eq.isom_inv))),
        ("homotopy_identity", homotopy_gap),
        ("bidegrees", eq._check_bidegrees),
        ("support_discipline", eq._check_support_discipline),
        ("decomposition", decomposition_gap),
    ]
    out = []
    for name, check in checks:
        violation = check()
        entry = {"name": name, "pass": violation is None}
        if violation is not None:
            entry["first_violation"] = violation
        out.append(entry)
    return out


def rank_rational(matrix, rows=None, cols=None) -> int:
    """Rank over the rationals by exact fraction elimination."""
    if isinstance(matrix, dict):
        matrix = _triplets_to_dense(matrix, rows, cols)
    m = [[Fraction(v) for v in row] for row in matrix]
    nr = len(m)
    nc = len(m[0]) if m else 0
    rank = 0
    for c in range(nc):
        pr = next((r for r in range(rank, nr) if m[r][c]), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        pv = m[rank][c]
        for r in range(rank + 1, nr):
            if m[r][c]:
                f = m[r][c] / pv
                for cc in range(c, nc):
                    m[r][cc] -= f * m[rank][cc]
        rank += 1
        if rank == nr:
            break
    return rank


def rank_mod(matrix, p: int, rows=None, cols=None) -> int:
    """Rank over the field with p elements."""
    if isinstance(matrix, dict):
        matrix = _triplets_to_dense(matrix, rows, cols)
    m = [[v % p for v in row] for row in matrix]
    nr = len(m)
    nc = len(m[0]) if m else 0
    rank = 0
    for c in range(nc):
        pr = next((r for r in range(rank, nr) if m[r][c]), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        inv = pow(m[rank][c], -1, p)
        for r in range(rank + 1, nr):
            if m[r][c]:
                f = (m[r][c] * inv) % p
                for cc in range(c, nc):
                    m[r][cc] = (m[r][cc] - f * m[rank][cc]) % p
        rank += 1
        if rank == nr:
            break
    return rank


# -- skein triples --------------------------------------------------------------

def switch_crossing(diagram: LinkDiagram, ci: int) -> LinkDiagram:
    """Swap over/under at one crossing (D+ <-> D-)."""
    tuples = list(diagram.pd_tuples())
    c = diagram.crossings[ci]
    e = c.ends
    r = c.over_in  # old over-in becomes the new under-in
    tuples[ci] = (e[r], e[(r + 1) % 4], e[(r + 2) % 4], e[(r + 3) % 4])
    new_tuples, mapping = _relabel_canonical(tuples)
    return diagram_from_tuples(new_tuples, loops=diagram.loops)


def smooth_crossing(diagram: LinkDiagram, ci: int) -> LinkDiagram:
    """Oriented (Seifert) smoothing of one crossing: the skein D0."""
    c = diagram.crossings[ci]
    under_in, under_out = c.ends[0], c.ends[2]
    over_in, over_out = c.ends[c.over_in], c.ends[4 - c.over_in]
    tuples, loops, _ = _splice(
        diagram.pd_tuples(),
        diagram.loops,
        {ci},
        [(under_in, over_out), (over_in, under_out)],
    )
    if not tuples:
        return LinkDiagram([], loops=loops)
    new_tuples, _ = _relabel_canonical(tuples)
    return diagram_from_tuples(new_tuples, loops=loops)


def check_skein(
    d_plus: LinkDiagram, d_minus: LinkDiagram, d_zero: LinkDiagram
) -> bool:
    """Check q^-2 V(D+) - q^2 V(D-) = (q^-1 - q) V(D0) exactly.

    The caller is responsible for the three diagrams differing at one site;
    only crossing counts (n, n, n-1) are sanity-checked here.
    """
    if not (d_plus.n == d_minus.n == d_zero.n + 1):
        warnings.warn(
            f"skein triple has crossing counts ({d_plus.n}, {d_minus.n}, "
            f"{d_zero.n}), expected (n, n, n-1)",
            stacklevel=2,
        )
    vp = jones_kauffman(d_plus)
    vm = jones_kauffman(d_minus)
    v0 = jones_kauffman(d_zero)
    lhs = LaurentPoly({-2: 1}) * vp - LaurentPoly({2: 1}) * vm
    rhs = LaurentPoly({-1: 1, 1: -1}) * v0
    return lhs == rhs


# The union-find template layer, verbatim in its first form: disks named by
# tagged tuples, cycles named by their least labels, and every neck-cutting
# term derived from the tags.  The oracle of the engine's templates.
# ``_cycles`` here is that form's; the engine's ranks the cycles instead.
PAIRS = {"P": ((0, 1), (2, 3)), "N": ((1, 2), (3, 0))}
DISK = {"P": (0, 0, 1, 1), "N": (1, 0, 0, 1), "S": (0, 0, 0, 0)}


def _cycles(m1, m2) -> dict:
    """{label: least label of its cycle} for the cycles of m1 u m2."""
    p1, p2 = {}, {}
    for m, p in ((m1, p1), (m2, p2)):
        for a, b in m:
            p[a], p[b] = b, a
    key = {}
    for a in sorted(p1):
        x = a
        while x not in key:
            key[x] = key[p1[x]] = a
            x = p2[p1[x]]
    return key


def _neck_cut(genus, e, tags) -> list:
    """One connected piece in the disk basis, as [(dotted tags, coeff)];
    ``e`` is genus + dots."""
    if e > 1:
        return []
    if e == 1:
        return [(tags, 1 << genus)]
    return [(tags[:i] + tags[i + 1:], 1) for i in range(len(tags))]


def _template(disks, glues, boundary) -> list:
    """The connected pieces of ``disks`` glued along the intervals
    ``glues``, for any dots.  ``boundary`` tags each boundary circle of the
    result with a disk it touches: ("k", key) for a cycle, ("s", bit) or
    ("t", bit) for a loop of the source or target.  Returns per piece its
    dotted-side disks ("f" and "g"), its genus and its two expansions, for
    genus + dots = 0 and 1, as [(source signs, target signs, dotted cycle
    keys, coeff)] (a sign bit is set for a loop delooped to {-1})."""
    parent = {v: v for v in disks}
    for a, b in glues:
        parent[_root(parent, a)] = _root(parent, b)
    pieces = {}
    for v in disks:
        pieces.setdefault(_root(parent, v), [[], 0, []])[0].append(v)
    for a, _ in glues:
        pieces[_root(parent, a)][1] += 1
    for v, tag in boundary:
        pieces[_root(parent, v)][2].append(tag)
    out = []
    for members, glued, tags in pieces.values():
        twice_genus = 2 - len(members) + glued - len(tags)
        assert twice_genus >= 0 and twice_genus % 2 == 0, "not a surface"
        genus, tags = twice_genus // 2, tuple(tags)
        expansions = []
        for e in (0, 1):
            terms = []
            for dotted, coeff in _neck_cut(genus, e, tags):
                src = sum(b for kind, b in tags if kind == "s"
                          and (kind, b) not in dotted)
                tgt = sum(b for kind, b in dotted if kind == "t")
                keys = frozenset(k for kind, k in dotted if kind == "k")
                terms.append((src, tgt, keys, coeff))
            expansions.append(terms)
        out.append((frozenset(k for side, k in members if side == "f"),
                    frozenset(k for side, k in members if side == "g"),
                    genus, expansions))
    return out


def _tensor_template(m1, m2, ends, part) -> list:
    """f (x) (the crossing's part ``part``: id_P, id_N or the saddle S) for
    f: m1 -> m2, with the loops of the glued matchings delooped."""
    fkey = _cycles(m1, m2)
    disk = DISK[part]
    disks = [("f", k) for k in set(fkey.values())]
    disks += [("c", i) for i in set(disk)]
    glues, first = [], {}
    for p, a in enumerate(ends):
        here = ("c", disk[p])
        if a in fkey:
            glues.append((("f", fkey[a]), here))
        elif a in first:
            glues.append((first[a], here))
        else:
            first[a] = here

    def disk_of(a):
        return ("f", fkey[a]) if a in fkey else first[a]

    (new1, loops1), (new2, loops2) = [
        _glue(m, [(ends[p], ends[q]) for p, q in PAIRS[s]])
        for m, s in ((m1, "N" if part == "N" else "P"),
                     (m2, "P" if part == "P" else "N"))]
    boundary = [(disk_of(k), ("k", k))
                for k in set(_cycles(new1, new2).values())]
    for kind, loops in (("s", loops1), ("t", loops2)):
        boundary += [(disk_of(x), (kind, 1 << i)) for i, x in enumerate(loops)]
    return _template(disks, glues, boundary)


def _compose_template(ma, mb, mc) -> list:
    """g . f for f: ma -> mb and g: mb -> mc, glued along the arcs of mb."""
    fkey, gkey = _cycles(ma, mb), _cycles(mb, mc)
    disks = [("f", k) for k in set(fkey.values())]
    disks += [("g", k) for k in set(gkey.values())]
    glues = [(("f", fkey[a]), ("g", gkey[a])) for a, _ in mb]
    boundary = [(("f", fkey[k]), ("k", k))
                for k in set(_cycles(ma, mc).values())]
    return _template(disks, glues, boundary)


def _ranks(m1, m2) -> dict:
    """{least label: rank} of the cycles of m1 u m2, ranked by least label."""
    return {k: r for r, k in enumerate(sorted(set(_cycles(m1, m2).values())))}


def _pieces(template, f_rank, g_rank, k_rank) -> Counter:
    """The multiset of a template's pieces, each (f bits, g bits, genus,
    (sorted e = 0 terms, sorted e = 1 terms)), with the cycles of f, of g
    and of the boundary named by ``1 << rank``."""
    def bits(keys, rank):
        return sum(1 << rank[k] for k in keys)

    return Counter(
        (bits(fk, f_rank), bits(gk, g_rank), genus,
         tuple(tuple(sorted((s, t, bits(k, k_rank), c)
                            for s, t, k, c in terms)) for terms in exps))
        for fk, gk, genus, exps in template)


def engine_pieces(template) -> Counter:
    """The multiset of an engine template's pieces, in ``_pieces``'s form."""
    return Counter((f, g, genus, tuple(tuple(sorted(terms)) for terms in exps))
                   for f, g, genus, exps in template)


def oracle_pieces(key) -> Counter:
    """The multiset of pieces the union-find layer gives for the template
    under an engine store ``key``: (m1, m2, ends, part) for a tensor, or
    (ma, mb, mc) for a composite."""
    if len(key) == 4:
        m1, m2, ends, part = key
        new = [_glue(m, [(ends[p], ends[q]) for p, q in PAIRS[s]])[0]
               for m, s in ((m1, "N" if part == "N" else "P"),
                            (m2, "P" if part == "P" else "N"))]
        return _pieces(_tensor_template(m1, m2, ends, part), _ranks(m1, m2),
                       {}, _ranks(*new))
    ma, mb, mc = key
    return _pieces(_compose_template(ma, mb, mc), _ranks(ma, mb),
                   _ranks(mb, mc), _ranks(ma, mc))


# The d^2 check of the tangle engine before its certificate: every
# composable pair of entries of each tensor summed, each composite glued by
# its template.  The oracle of ``TangleComplex.d_squared_zero``'s
# certificate and of ``_compose``'s identity composites.
def compose_by_template(g, f, ma, mb, mc, templates) -> dict:
    """g . f in the disk basis of ma u mc, always by the composite
    template, kept in ``templates``."""
    template = templates.get((ma, mb, mc))
    if template is None:
        template = templates[ma, mb, mc] = tangles._compose_template(
            ma, mb, mc, {})
    out = {}
    for df, cf in f.items():
        for dg, cg in g.items():
            for _, _, keys, coeff in tangles._glued(template, df, dg,
                                                    cf * cg):
                tangles._add(out, keys, coeff)
    return out


def d_squared_zero_pairwise(cx, templates) -> bool:
    """Whether every composite of two entries of ``cx`` sums to zero, all
    blocks summed."""
    obj, canon = cx.objects, cx.canon
    for x, row in enumerate(cx.d):
        acc = {}
        for y, f in row.items():
            for z, g in cx.d[y].items():
                for keys, c in compose_by_template(
                        g, f, canon[obj[x][1]], canon[obj[y][1]],
                        canon[obj[z][1]], templates).items():
                    tangles._add(acc, (z, keys), c)
        if acc:
            return False
    return True


def tensor_sizes(diagram):
    """Yield the object count of each tensor of the tangle engine's run on
    ``diagram``, before its elimination, in ``_greedy_order``."""
    store = {}
    cx = tangles.TangleComplex([(0, (), 0)], [{}])
    for k in _greedy_order(diagram):
        cx = cx.tensor(diagram.crossings[k], store)
        yield len(cx.objects)
        cx.eliminate(store)


def tangle_violations_pairwise(diagram) -> list:
    """The violations ``tangle_homology(diagram, check=True)`` reports,
    found by summing every pair of entries of each tensor, and of the
    residue."""
    store, templates, violations = {}, {}, []
    cx = tangles.TangleComplex([(0, (), 0)], [{}])
    for k in _greedy_order(diagram):
        cx = cx.tensor(diagram.crossings[k], store)
        if not d_squared_zero_pairwise(cx, templates):
            violations.append(k)
        cx.eliminate(store)
    if not d_squared_zero_pairwise(cx, templates):
        violations.append("residue")
    return violations
