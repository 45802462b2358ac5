"""The bigraded integer Khovanov chain complex of a link diagram, whole:
every enhanced state of the cube.  R2 and R3 ``verify-move`` act on it, and
the tests hold ``tangles.py``'s tables to its homology; the CLI's tables
come from ``tangles.py``.

Generators are enhanced states, each held as its key (markers, signs): the
circles depend only on the markers, so the complex keeps them once per
marker state (``KhovanovComplex.circles``).  The differential flips one
positive marker to negative and re-signs the circles touched by the flip:

    merge (two circles to one):  (+,+) -> +,  (+,-) and (-,+) -> -,
                                 (-,-) -> term dropped;
    split (one circle to two):   + -> (+,-) + (-,+),  - -> (-,-).

Each flip carries the global sign (-1)^(number of negative markers strictly
before the flipped crossing in the crossing order); ``after_twin`` gives
the "after" rule's complex, a sign per degree away.  The differential has
bidegree (1, 0): it raises i and preserves j, which together with d^2 = 0
and the graded Euler characteristic equalling the Jones polynomial pins the
rules down.

The differential is a ``GradedMap``: a dict from bidegree to a sparse block
{(row, col): coeff}.  The same type carries the maps of the Reidemeister
equivalences in ``moves.py`` (in, rho, h and the isomorphism), so every
identity there and d^2 = 0 here is one ``compose`` and one comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .diagram import LinkDiagram
from .states import (
    DEFAULT_MAX_CROSSINGS,
    LaurentPoly,
    check_guard,
    trace_circles,
)

__all__ = [
    "KhovanovComplex",
    "GradedMap",
    "build_complex",
    "after_twin",
    "verify_d_squared",
    "graded_euler",
]

StateKey = tuple  # (markers tuple, signs tuple), signs in canonical circle order


class GradedMap(dict):
    """Sparse integer map between bigraded free modules, of one bidegree
    shift.

    ``self[bd]`` is the block from bidegree ``bd`` of the source to
    ``bd + shift`` of the target, as {(row, col): coeff}; no zero entry is
    stored.  ``src`` and ``tgt`` map each bidegree to its dimension.
    """

    def __init__(self, name, src: dict, tgt: dict, shift=(0, 0), blocks=()):
        super().__init__(blocks)
        self.name = name
        self.src = src
        self.tgt = tgt
        self.shift = shift
        self.is_identity = False

    def add(self, bd, row, col, coeff):
        if not coeff:
            return
        self.is_identity = False
        block = self.setdefault(bd, {})
        v = block.get((row, col), 0) + coeff
        if v:
            block[(row, col)] = v
        else:
            del block[(row, col)]

    def block(self, bd) -> dict:
        return self.get(bd, {})

    @classmethod
    def identity(cls, dims: dict, name="id") -> "GradedMap":
        """The identity on ``dims``, marked ``is_identity`` (``add``
        clears the mark)."""
        out = cls(name, dims, dims, (0, 0),
                  {bd: {(k, k): 1 for k in range(n)}
                   for bd, n in sorted(dims.items()) if n})
        out.is_identity = True
        return out

    def compose(self, other: "GradedMap", name=None) -> "GradedMap":
        """self after other (self . other).  Each block is summed in a local
        dict and its zeros dropped once; a block that cancels is left out.

        Two products need no sum.  When either factor is an identity, each
        block of the product is a copy of the other factor's block.  When a
        block of ``other`` has at most one entry per column, each entry of
        the product is a single term w * v, never zero."""
        s0, s1 = other.shift
        out = GradedMap(name or f"{self.name}.{other.name}", other.src,
                        self.tgt, (self.shift[0] + s0, self.shift[1] + s1))
        for bd, g in other.items():
            f = self.get((bd[0] + s0, bd[1] + s1))
            if not f or not g:
                continue
            if self.is_identity or other.is_identity:
                out[bd] = dict(g if self.is_identity else f)
                continue
            by_col = {}
            for (r, c), v in f.items():
                by_col.setdefault(c, []).append((r, v))
            if len({c for _, c in g}) == len(g):
                prod = {(r, c): w * v for (m, c), v in g.items()
                        for r, w in by_col.get(m, ())}
            else:
                prod = {}
                for (m, c), v in g.items():
                    for r, w in by_col.get(m, ()):
                        prod[(r, c)] = prod.get((r, c), 0) + w * v
                if 0 in prod.values():
                    prod = {rc: v for rc, v in prod.items() if v}
            if prod:
                out[bd] = prod
        return out

    def plus(self, other: "GradedMap", name=None, scale=1) -> "GradedMap":
        """self + scale * other."""
        assert self.shift == other.shift
        out = GradedMap(name or self.name, self.src, self.tgt, self.shift)
        for bd in sorted(self.keys() | other.keys()):
            acc = dict(self.get(bd, ()))
            for rc, v in other.get(bd, {}).items():
                acc[rc] = acc.get(rc, 0) + scale * v
            acc = {rc: v for rc, v in acc.items() if v}
            if acc:
                out[bd] = acc
        return out

    def minus(self, other: "GradedMap", name=None) -> "GradedMap":
        return self.plus(other, name=name, scale=-1)

    def first_violation(self):
        """First nonzero entry, in (bidegree, row, col) order, or None."""
        for bd in sorted(self):
            nonzero = [rc for rc, v in self[bd].items() if v]
            if nonzero:
                r, c = min(nonzero)
                return {"i": bd[0], "j": bd[1], "row": r, "col": c,
                        "value": self[bd][(r, c)]}
        return None

    def first_difference(self, other: "GradedMap"):
        """First entry, in (bidegree, row, col) order, where the two maps
        disagree, with both values; None if they are equal."""
        for bd in sorted(self.keys() | other.keys()):
            a, b = self.get(bd, {}), other.get(bd, {})
            if a == b:
                continue
            differ = [rc for rc in a.keys() | b.keys()
                      if a.get(rc, 0) != b.get(rc, 0)]
            if differ:
                r, c = min(differ)
                return {"i": bd[0], "j": bd[1], "row": r, "col": c,
                        "lhs": a.get((r, c), 0), "rhs": b.get((r, c), 0)}
        return None

    def first_identity_difference(self):
        """``first_difference`` against the identity on ``src``, without
        building the identity."""
        dims = self.src
        for bd in sorted(self.keys() | {bd for bd, n in dims.items() if n}):
            a, n = self.get(bd, {}), dims.get(bd, 0)
            if len(a) == n and all(a.get((k, k)) == 1 for k in range(n)):
                continue
            differ = [rc for rc, v in a.items()
                      if v != (1 if rc[0] == rc[1] < n else 0)]
            differ += [(k, k) for k in range(n) if (k, k) not in a]
            if differ:
                r, c = min(differ)
                return {"i": bd[0], "j": bd[1], "row": r, "col": c,
                        "lhs": a.get((r, c), 0),
                        "rhs": 1 if r == c < n else 0}
        return None


def _cube_edge(old_circles, new_circles) -> tuple:
    """Merge or split pattern of one marker flip, as ``(carry, old, new)``.

    ``carry[k]`` is the old position of new circle ``k`` (0 for a circle
    the flip changed); ``old`` and ``new`` are the positions of the changed
    circles: two old and one new for a merge, one old and two new for a
    split.  It depends only on the two marker states, not on signs.
    """
    same = set(old_circles) & set(new_circles)
    old = tuple(k for k, x in enumerate(old_circles) if x not in same)
    new = tuple(k for k, x in enumerate(new_circles) if x not in same)
    if (len(old), len(new)) not in ((2, 1), (1, 2)):
        raise AssertionError(
            f"marker flip changed {len(old)} -> {len(new)} "
            "circles; expected a single merge or split"
        )
    old_pos = {x: k for k, x in enumerate(old_circles)}
    carry = tuple(old_pos.get(x, 0) for x in new_circles)
    return carry, old, new


def _resign(edge, signs) -> list:
    """Circle signs of the targets of one enhanced state across a cube edge,
    each with coefficient 1 (merge and split rules in the module docstring)."""
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


@dataclass
class KhovanovComplex:
    """Bigraded free complex with sparse integer differentials.

    A generator is its state key (markers, signs); ``gens[(i, j)]`` lists
    the keys in canonical order.  ``diffs`` is d as a ``GradedMap`` of
    shift (1, 0), so ``diffs[(i, j)]`` holds the matrix of d: C^{i,j} ->
    C^{i+1,j} as {(row, col): coeff}.  ``circles`` maps each of the 2^n
    marker tuples to its circles, as ``states.trace_circles`` returns them,
    so a generator's circles are ``circles[key[0]]``; the transports of
    ``moves.py`` read them there instead of tracing again.
    """

    diagram: LinkDiagram
    gens: dict = field(default_factory=dict)
    diffs: GradedMap = field(
        default_factory=lambda: GradedMap("d", {}, {}, (1, 0)))
    index: dict = field(default_factory=dict)
    circles: dict = field(default_factory=dict)

    def bidegrees(self):
        return sorted(self.gens)

    def dim(self, bidegree) -> int:
        return len(self.gens.get(bidegree, ()))

    def total_dim(self) -> int:
        return sum(len(v) for v in self.gens.values())

    def position(self, key: StateKey):
        """(bidegree, row index) of a generator."""
        return self.index[key]

    def matrix(self, bidegree) -> dict:
        return self.diffs.get(bidegree, {})

    def census(self) -> dict:
        return {bd: len(v) for bd, v in self.gens.items()}

    def to_json(self) -> dict:
        """Generator census and differential triplets, deterministically ordered."""
        return {
            "census": [
                {"i": i, "j": j, "dim": len(self.gens[(i, j)])}
                for (i, j) in self.bidegrees()
            ],
            "differentials": [
                {
                    "i": i,
                    "j": j,
                    "triplets": [
                        [r, c, v]
                        for (r, c), v in sorted(self.diffs[(i, j)].items())
                    ],
                }
                for (i, j) in sorted(self.diffs)
                if self.diffs[(i, j)]
            ],
        }


def build_complex(
    diagram: LinkDiagram,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> KhovanovComplex:
    """Enhanced-state chain complex of a diagram, differential included.

    A bidegree lists its marker states in sorted order, each as the sorted
    run of its sign tuples of one tau: the row of (m, s) is base[m][tau] +
    rank[s].  Circles are traced once per marker state, each cube edge is
    resolved once, and each distinct merge/split pattern once, by
    ``_resign``, into a table of target ranks; the tables die with the call.
    """
    check_guard(diagram, max_crossings)
    cx = KhovanovComplex(diagram)
    for markers in product((1, -1), repeat=diagram.n):
        cx.circles[markers] = trace_circles(diagram, markers)
    w = diagram.writhe()
    runs, rank = {}, {}  # circle count -> {tau: sorted signs}; signs -> rank
    base, tables = {}, {}
    for m in sorted(cx.circles):  # an edge's target sorts before its source
        r, sigma = len(cx.circles[m]), sum(m)
        if r not in runs:
            runs[r] = {}
            for signs in product((-1, 1), repeat=r):
                run = runs[r].setdefault(sum(signs), [])
                rank[signs] = len(run)
                run.append(signs)
        out, neg = [], 0  # neg: negative markers before crossing c
        for c, marker in enumerate(m):
            if marker < 0:
                neg += 1
                continue
            new_markers = m[:c] + (-1,) + m[c + 1:]
            edge = _cube_edge(cx.circles[m], cx.circles[new_markers])
            if edge not in tables:
                tables[edge] = _edge_table(edge, runs[r], rank)
            out.append((base[new_markers], -1 if neg % 2 else 1,
                        tables[edge]))
        base[m] = {}
        for tau, run in runs[r].items():
            bd = ((w - sigma) // 2, (3 * w - sigma) // 2 + tau)
            keys = cx.gens.setdefault(bd, [])
            block = cx.diffs.setdefault(bd, {})
            base[m][tau] = col0 = len(keys)
            keys.extend([(m, signs) for signs in run])
            targets = [(to.get(tau - 1), coeff, table[tau])
                       for to, coeff, table in out]
            for k in range(len(run)):
                for row0, coeff, table in targets:
                    for t in table[k]:
                        block[(row0 + t, col0 + k)] = coeff
    for bd, keys in cx.gens.items():
        cx.index.update({key: (bd, row) for row, key in enumerate(keys)})
    cx.diffs.src = cx.diffs.tgt = cx.census()
    return cx


def after_twin(cx: KhovanovComplex) -> KhovanovComplex:
    """The complex of ``cx``'s diagram under the "after" ordering rule: the
    same generators, index and circles, and d negated on every block whose
    degree i has i - (w - n)/2 odd (w the writhe, n the crossings).

    Proof.  At a state m with m[c] = +1, the "before" and "after" counts of
    negative markers around c add up to N(m), all negative markers of m.
    m's generators sit at i = (w - sum(m))/2 = (w - n)/2 + N(m), so the
    "after" sign is the "before" sign times (-1)^(i - (w - n)/2)."""
    shift = (cx.diagram.writhe() - cx.diagram.n) // 2
    diffs = GradedMap("d", cx.diffs.src, cx.diffs.tgt, (1, 0), {
        bd: {rc: -v for rc, v in block.items()} if (bd[0] - shift) % 2
        else block for bd, block in cx.diffs.items()})
    return KhovanovComplex(cx.diagram, cx.gens, diffs, cx.index, cx.circles)


def _edge_table(edge, runs, rank) -> dict:
    """{tau: [target ranks of each sign tuple of the run tau]} of one
    merge/split pattern; every target must lie in the run tau - 1."""
    table = {tau: [_resign(edge, signs) for signs in run]
             for tau, run in runs.items()}
    if any(sum(t) != tau - 1 for tau, rows in table.items()
           for targets in rows for t in targets):
        raise AssertionError(f"differential not of bidegree (1,0): {edge}")
    return {tau: [[rank[t] for t in targets] for targets in rows]
            for tau, rows in table.items()}


def verify_d_squared(cx: KhovanovComplex) -> list:
    """Bidegrees (i, j) where d_{i+1,j} . d_{i,j} has a nonzero entry."""
    return sorted(cx.diffs.compose(cx.diffs))


def graded_euler(cx: KhovanovComplex) -> LaurentPoly:
    """Sum over bidegrees of (-1)^i dim C^{i,j} q^j."""
    out = LaurentPoly()
    for (i, j), keys in cx.gens.items():
        out.add_term(-len(keys) if i % 2 else len(keys), j)
    return out
