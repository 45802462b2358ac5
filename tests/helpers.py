"""Shared test utilities: random diagram generation and independent oracles."""

from __future__ import annotations

import copy
import heapq
import random
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from itertools import combinations, product

from khovanov import MovePatch, apply_move, parse_pd
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
    _resign,
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
from khovanov.moves import MoveEquivalence, default_candidates
from khovanov.states import (
    DEFAULT_MAX_CROSSINGS,
    LaurentPoly,
    check_guard,
    jones_kauffman,
    trace_circles,
)
from khovanov.tangles import _glue

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
    The oracle for the saddle transport of ``moves._Transports``, which
    resolves it once per marker state.
    """
    markers, signs = key
    new_markers = markers[:c] + (-markers[c],) + markers[c + 1:]
    edge = _cube_edge(cx.circles[markers], cx.circles[new_markers])
    return [((new_markers, new_signs), 1)
            for new_signs in _resign(edge, signs)]


def saddle_per_state(diagram, state, c):
    """Frobenius saddle at crossing ``c`` of one enhanced state, worked out
    from that state alone: circles traced afresh, changed circles found by
    set difference, merge/split rules applied by circle identity."""
    markers = list(state.markers)
    markers[c] = -markers[c]
    markers = tuple(markers)
    new_circles = trace_circles(diagram, markers)
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


def build_complex_per_state(diagram, sign_rule="before"):
    """The Khovanov complex with every enhanced state's differential worked
    out on its own by ``saddle_per_state``, each flip signed by
    ``flip_coefficient`` under ``sign_rule``: the oracle for the per-edge
    build in ``khovanov.complexes.build_complex`` ("before") and for its
    derived twin ``khovanov.complexes.after_twin`` ("after")."""
    cx = KhovanovComplex(diagram)
    states = {}
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
                for t, k in saddle_per_state(diagram, s, c):
                    (bd_t, row) = cx.index[t.key()]
                    assert bd_t == (i + 1, j), (i, j, bd_t)
                    prev = block.get((row, col), 0) + coeff * k
                    if prev:
                        block[(row, col)] = prev
                    else:
                        block.pop((row, col), None)
    return cx


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


def cube_homology(cx) -> HomologyTable:
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

    Takes any object with ``bidegrees()``, ``dim(bd)`` and ``matrix(bd)``
    (d: C^{i,j} -> C^{i+1,j} as {(row, col): value}): a ``KhovanovComplex``,
    whose ``matrix(bd)`` is a block of its ``GradedMap`` d, or a hand-built
    complex with plain dicts.
    """
    degrees = {}
    for i, j in cx.bidegrees():
        degrees.setdefault(j, []).append(i)
    table = HomologyTable()
    for j in sorted(degrees):
        table.update(_cube_homology_at_j(cx, j, sorted(degrees[j])))
    return table


def _cube_homology_at_j(cx, j: int, degrees) -> dict:
    """Homology of the summand of quantum grading j: unit cancellation,
    then Smith normal form of the residue, degree by degree."""
    # generators are numbered by (i, row); cols[x] and rows[y] hold d(x -> y)
    first = {}
    degree_of = []
    for i in degrees:
        first[i] = len(degree_of)
        degree_of.extend([i] * cx.dim((i, j)))
    cols = [{} for _ in degree_of]
    rows = [{} for _ in degree_of]
    for i in degrees:
        if i + 1 not in first:
            continue
        src, tgt = first[i], first[i + 1]
        for (r, c), v in cx.matrix((i, j)).items():
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
    residue = {i: [x for x in range(first[i], first[i] + cx.dim((i, j)))
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
    end at a crossing already taken), and take the most, ties to the lowest
    index; O(n^2) sums.  The oracle for ``khovanov.states._greedy_order``,
    which updates the counts incrementally."""
    joined = dict.fromkeys(diagram.arcs, 0)
    left = list(range(diagram.n))
    order = []
    while left:
        best = max(left, key=lambda k: (
            sum(joined[a] == 1 for a in diagram.crossings[k].ends), -k))
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


def complement_vectors(eq) -> dict:
    """{bd: [e_k - in(rho(e_k))]} of a ``MoveEquivalence``: for each key k
    at bd that ``eq.index_src`` does not name, in generator order, the dense
    vector over the rows at bd, from dense columns of in and rho."""
    cx = eq.src_cx
    out = {}
    for bd in cx.bidegrees():
        dim = cx.dim(bd)
        width = eq.in_src.src.get(bd, 0)
        in_cols = _dense_columns(eq.in_src, bd, dim, width)
        rho_of = {}
        for (j, k), x in eq.rho_src.block(bd).items():
            if j < len(in_cols):
                rho_of.setdefault(k, []).append((j, x))
        vectors = []
        for k, key in enumerate(cx.gens[bd]):
            if key in eq.index_src:
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


class _CoordinateComplex:
    """Complex structure on the span of the complement vectors
    (``complement_vectors``): d of each vector written, by
    ``_solve_exact``, in the vectors one bidegree up."""

    def __init__(self, cx, vectors, d):
        self.gens = {bd: list(range(len(vs))) for bd, vs in vectors.items()}
        self.diffs = {}
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
                self.diffs[bd] = block

    def bidegrees(self):
        return sorted(self.gens)

    def dim(self, bd):
        return len(self.gens.get(bd, ()))

    def matrix(self, bd):
        return self.diffs.get(bd, {})


def dense_decomposition(eq):
    """The decomposition check of a ``MoveEquivalence`` recomputed densely
    from its definition, with a complement of its own
    (``complement_vectors``): ``rho`` kills the complement, the retained and
    complement vectors together have a determinant of +-1 over each whole
    bidegree, and the complement is a subcomplex with zero homology
    (coordinates by rational elimination, homology by dense SNF).  The
    oracle for ``MoveEquivalence._check_decomposition``; returns None or
    the first violation, with the same reasons."""
    vectors = complement_vectors(eq)
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
        table = homology_groups(_CoordinateComplex(eq.src_cx, vectors,
                                                  eq.d_src))
    except AssertionError as exc:
        return {"reason": str(exc)}
    if table:
        bd = sorted(table)[0]
        return {"reason": "complement not acyclic", "i": bd[0], "j": bd[1],
                "group": table[bd]}
    return None


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
# generator from the circles, with no table: the oracles for
# ``moves._Transports``, which resolves each once per marker state.  The
# saddle's is ``saddle`` above.

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
        vars(side).pop("tables", None)
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
        lhs = eq.d_src.compose(eq.h).plus(eq.h.compose(eq.d_src))
        return lhs.first_difference(GradedMap.identity(lhs.src).minus(
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
    new_tuples, mapping = _relabel_canonical(tuples, diagram.loops)
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
        [],
    )
    if not tuples:
        return LinkDiagram([], loops=loops)
    new_tuples, _ = _relabel_canonical(tuples, loops)
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
