"""The bigraded integer Khovanov chain complex of a link diagram, whole:
every enhanced state of the cube.  R2 and R3 ``verify-move`` act on it, and
the tests hold ``tangles.py``'s tables to its homology; the CLI's tables
come from ``tangles.py``.

A generator is an enhanced state (markers, signs), but the complex lists
no generator.  The circles depend only on the markers, so it keeps them
once per marker state (``KhovanovComplex.circles``), traced for all 2^n
states by one depth-first walk over the crossings, and it places the
generators a run at a time: a run is one marker state's sign tuples of one
tau = sum(signs), and its rows are consecutive, so rank tables alone give
the row of any generator.  With the merge/split pattern of each cube edge,
they are what ``moves.py`` writes its maps from, a run at a time.  The
differential flips one positive marker to negative and re-signs the
circles touched by the flip:

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
{(row, col): coeff}, the package's one sparse graded-matrix type.  It also
carries the maps of the Reidemeister equivalences in ``moves.py`` (in, rho,
h and the isomorphism) and the residue that ``tangles.py`` hands to
``homology.homology_groups``, so d^2 = 0 here and every identity there but
the homotopy identity, which sums its terms block by block, is one
``compose`` and one ``first_difference``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product
from math import comb
from operator import itemgetter

from .diagram import LinkDiagram
from .states import (
    DEFAULT_MAX_CROSSINGS,
    LaurentPoly,
    _loop_sentinels,
    check_guard,
)

__all__ = [
    "KhovanovComplex",
    "GradedMap",
    "build_complex",
    "after_twin",
    "verify_d_squared",
    "graded_euler",
]

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

    def block(self, bd) -> dict:
        return self.get(bd, {})

    def bidegrees(self):
        """The bidegrees of the source, sorted."""
        return sorted(self.src)

    def dim(self, bd) -> int:
        """The dimension of the source at ``bd``."""
        return self.src.get(bd, 0)

    @classmethod
    def identity(cls, dims: dict, name="id") -> "GradedMap":
        """The identity on ``dims``: a diagonal block of ones at each
        bidegree of nonzero dimension."""
        return cls(name, dims, dims, (0, 0),
                   {bd: {(k, k): 1 for k in range(n)}
                    for bd, n in sorted(dims.items()) if n})

    def compose(self, other: "GradedMap", name=None) -> "GradedMap":
        """self after other (self . other).  Each block is summed in a local
        dict and its zeros dropped once; a block that cancels is left
        out."""
        s0, s1 = other.shift
        out = GradedMap(name or f"{self.name}.{other.name}", other.src,
                        self.tgt, (self.shift[0] + s0, self.shift[1] + s1))
        for bd, g in other.items():
            f = self.get((bd[0] + s0, bd[1] + s1))
            if not f or not g:
                continue
            by_col = {}
            for (r, c), v in f.items():
                by_col.setdefault(c, []).append((r, v))
            prod = {}
            for (m, c), v in g.items():
                for r, w in by_col.get(m, ()):
                    prod[(r, c)] = prod.get((r, c), 0) + w * v
            if 0 in prod.values():
                prod = {rc: v for rc, v in prod.items() if v}
            if prod:
                out[bd] = prod
        return out

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


def _traced_edge(old_at, new_at, count, loops):
    """``_cube_edge`` of one marker flip, read off the circle positions of
    the flipped crossing's four ends before (``old_at``) and after
    (``new_at``), each counted after the ``loops`` circles of crossingless
    loops, among ``count`` old circles; None unless the flip is a single
    merge or split.

    The flip re-pairs the ends at its crossing alone, so the circles it
    changes are exactly those through those ends, and every other circle
    keeps its arcs and so its least label.  Circles are listed by least
    label, so the k-th unchanged new circle is the k-th unchanged old one:
    the pattern depends on (count, old_at, new_at) alone."""
    old = tuple(sorted({loops + k for k in old_at}))
    new = tuple(sorted({loops + k for k in new_at}))
    if (len(old), len(new)) not in ((2, 1), (1, 2)):
        return None
    kept = iter([k for k in range(count) if k not in old])
    carry = tuple(0 if k in new else next(kept)
                  for k in range(count - len(old) + len(new)))
    return carry, old, new


def _trace_states(diagram: LinkDiagram) -> tuple:
    """The circles of every marker state, in ``product((1, -1))`` order, as
    ``states.trace_circles`` returns them, and the position of the circle
    through every crossing end of every state, counted after the circles of
    the crossingless loops: end e of crossing c of the i-th state at byte
    4ni + 4c + e of one bytes object.  A position is below 2n, the number
    of arcs.  One object, not a tuple per state, leaves no holes among the
    circles the build keeps when it is freed; a freed tuple of fewer than
    20 items also stays on CPython's free list.

    One depth-first walk over the crossings in their listed order, marker
    +1 before -1, traces them all.  A prefix's smoothings join its arcs
    into open paths and closed circles: a union-find of arcs whose sets are
    paths, each held at its two open ends (``opened``: the other end and
    the path's arcs; None for an arc that is no open end).  A join that
    meets a path's two ends closes a circle, kept under its least label for
    every state below.  Each smoothing logs the entry of every arc it
    touches before its first change (``undo``), and the walk restores them
    when it backs out.  At a leaf every circle is closed, and sorting their
    least labels lists them as ``trace_circles`` does, the negative loop
    sentinels first.  An arc's least label (``least``) and a label's circle
    are written when the circle closes and never undone: no circle below
    can hold that arc again, so a leaf reads those of its own path."""
    crossings = diagram.crossings
    single = {a: frozenset((a,)) for a in diagram.arcs}
    closed = sorted(_loop_sentinels(diagram))  # least labels, open prefix
    loops = len(closed)
    circle_of = {s: frozenset((s,)) for s in closed}
    least, opened = {}, dict.fromkeys(diagram.arcs)
    ends_of = (itemgetter(*[a for c in crossings for a in c.ends])
               if crossings else lambda least: ())
    smoothings = [(c.positive_pairs(), c.negative_pairs()) for c in crossings]
    last = len(crossings) - 1
    circles, where = [], bytearray()

    def close(arcs):
        label = min(arcs)
        circle_of[label] = arcs
        least.update(dict.fromkeys(arcs, label))
        closed.append(label)

    def leaf():
        labels = sorted(closed)
        circles.append(tuple(map(circle_of.__getitem__, labels)))
        at = dict(zip(labels, range(-loops, len(labels) - loops)))
        where.extend(map(at.__getitem__, ends_of(least)))

    def visit(k):
        for pairs in smoothings[k]:
            undo, top = {}, len(closed)
            for x, y in pairs:
                if x == y:  # both ends of one arc: a kink's small circle
                    close(single[x])
                    continue
                ox, oy = opened[x], opened[y]
                undo.setdefault(x, ox)
                undo.setdefault(y, oy)
                opened[x] = opened[y] = None
                if ox is not None and ox[0] == y:  # a path's ends meet
                    close(ox[1])
                    continue
                ex, mx = ox or (x, single[x])
                ey, my = oy or (y, single[y])
                undo.setdefault(ex, opened[ex])
                undo.setdefault(ey, opened[ey])
                arcs = mx | my
                opened[ex], opened[ey] = (ey, arcs), (ex, arcs)
            if k == last:
                leaf()
            else:
                visit(k + 1)
            opened.update(undo)
            del closed[top:]

    try:
        if crossings:
            visit(0)
        else:
            leaf()
    finally:
        # visit refers to itself through its closure: drop it, so that the
        # walk's tables go now, with no cyclic collection
        del visit
    return circles, bytes(where)


def _bidegree(writhe, markers, tau) -> tuple:
    """(i, j) of the generators of ``markers`` with sum(signs) = tau."""
    sigma = sum(markers)
    return (writhe - sigma) // 2, (3 * writhe - sigma) // 2 + tau


@dataclass
class KhovanovComplex:
    """Bigraded free complex with sparse integer differentials.

    The generators are placed a run at a time, and no generator is listed.
    ``dims`` maps each bidegree to its dimension, and ``layout`` each
    bidegree to its runs in row order, as (markers, tau, first row).
    ``diffs`` is d as a ``GradedMap`` of shift (1, 0), so ``diffs[(i, j)]``
    holds the matrix of d: C^{i,j} -> C^{i+1,j} as {(row, col): coeff}.
    ``circles`` maps each of the 2^n marker tuples, in
    ``product((1, -1))`` order, to its circles as ``states.trace_circles``
    returns them, all traced in one walk (``_trace_states``); the
    transports of ``moves.py`` read them there instead of tracing again.

    The rank tables of the build place every generator, so that a map can
    be written a run at a time (``cells``): ``runs`` maps each circle count
    r to {tau: the sorted sign tuples of r circles summing to tau}, ``rank``
    each sign tuple to its position in its run, and ``base`` each marker
    state to {tau: the row of its run's first generator}.  So the row of
    (m, s) is ``base[m][sum(s)] + rank[s]``, and ``entry`` gives a run's
    bidegree and first row.  ``edges`` maps each marker state m to the
    merge/split pattern of its flip at each crossing c (``_cube_edge``),
    None where m is negative at c, and ``edge_tables`` each distinct
    pattern to its table of target ranks (``_edge_table``): the targets of
    the run tau lie in the run tau - 1 of the flipped state.
    """

    diagram: LinkDiagram
    dims: dict = field(default_factory=dict)
    layout: dict = field(default_factory=dict)
    diffs: GradedMap = field(
        default_factory=lambda: GradedMap("d", {}, {}, (1, 0)))
    circles: dict = field(default_factory=dict)
    runs: dict = field(default_factory=dict)
    rank: dict = field(default_factory=dict)
    base: dict = field(default_factory=dict)
    edges: dict = field(default_factory=dict)
    edge_tables: dict = field(default_factory=dict)

    def bidegrees(self):
        return sorted(self.dims)

    def dim(self, bidegree) -> int:
        return self.dims.get(bidegree, 0)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def entry(self, markers, tau) -> tuple:
        """(bidegree, first row) of the run of ``markers`` with sum(signs)
        = tau."""
        return (_bidegree(self.diagram.writhe(), markers, tau),
                self.base[markers][tau])

    def cells(self):
        """(bidegree, markers, tau, run, first row) of each run of
        generators of one marker state and one tau, in generator order: by
        bidegree, then by markers, ``run`` being its sign tuples in rank
        order."""
        for bd in self.bidegrees():
            for markers, tau, row0 in self.layout[bd]:
                yield (bd, markers, tau,
                       self.runs[len(self.circles[markers])][tau], row0)

    def to_json(self) -> dict:
        """Generator census and differential triplets, deterministically ordered."""
        return {
            "census": [
                {"i": i, "j": j, "dim": self.dims[(i, j)]}
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
    store=None,
) -> KhovanovComplex:
    """Enhanced-state chain complex of a diagram, differential included.

    A bidegree lays out its marker states in sorted order, each as the
    sorted run of its sign tuples of one tau: the row of (m, s) is
    base[m][tau] + rank[s].  One depth-first walk over the crossings traces
    the circles of all 2^n marker states, with the circle position of each
    crossing end (``_trace_states``).  Each cube edge is then one dict probe:
    its merge/split pattern depends on the circle count and the positions
    of the flipped crossing's four ends before and after, and a key not
    seen before is resolved by ``_traced_edge`` (``_cube_edge`` compares
    whole circles, and names a flip that is no single merge or split).
    Each distinct pattern is resolved once, branch by branch
    (``_edge_table``), into a table of target ranks.  The rank tables, the
    runs of each bidegree, the edges and their tables are kept on the
    complex; no generator is listed.

    A pattern's table depends on the pattern alone (its circle counts fix
    the runs and ranks it reads), so builds may share them: ``store`` maps
    each pattern to its table, and a build takes from it the tables an
    earlier build made.  ``moves._Patch`` passes one store to the builds of
    its two sides, and it dies with the patch; without one, each build
    makes its own.  Nothing is kept in the module.
    """
    check_guard(diagram, max_crossings)
    store = {} if store is None else store
    cx = KhovanovComplex(diagram)
    states = list(product((1, -1), repeat=diagram.n))
    circles, where = _trace_states(diagram)
    cx.circles.update(zip(states, circles))
    # the flip at crossing c moves a state 2^(n-1-c) on in product order,
    # so the states walked backwards (sorted order) meet each edge's
    # target before its source
    steps = [1 << k for k in reversed(range(diagram.n))]
    stride = 4 * diagram.n  # the bytes of ``where`` per state
    w = diagram.writhe()
    runs, rank, base, dims = cx.runs, cx.rank, cx.base, cx.dims
    edges, tables = cx.edges, cx.edge_tables
    shared = {}  # each edge pattern and each tuple of target ranks, once
    patterns = {}  # (circle count, old ends, new ends) -> (edge, table)
    bases = [None] * len(states)  # base by position in product order
    for i in reversed(range(len(states))):
        m, r = states[i], len(circles[i])
        if r not in runs:
            runs[r] = {}
            for signs in product((-1, 1), repeat=r):
                run = runs[r].setdefault(sum(signs), [])
                rank[signs] = len(run)
                run.append(signs)
        out, neg = [], 0  # neg: negative markers before crossing c
        flips = [None] * len(m)
        for c, marker in enumerate(m):
            if marker < 0:
                neg += 1
                continue
            j, e = i + steps[c], stride * i + 4 * c
            f = e + stride * steps[c]
            key = (r, where[e:e + 4], where[f:f + 4])
            found = patterns.get(key)
            if found is None:
                edge = (_traced_edge(key[1], key[2], r, diagram.loops)
                        or _cube_edge(circles[i], circles[j]))
                edge = shared.setdefault(edge, edge)
                if edge not in tables:
                    if edge not in store:
                        store[edge] = _edge_table(edge, runs[r], rank, shared)
                    tables[edge] = store[edge]
                found = patterns[key] = (edge, tables[edge])
            flips[c], table = found
            out.append((bases[j], -1 if neg % 2 else 1, table))
        edges[m] = tuple(flips)
        base[m] = bases[i] = {}
        for tau, run in runs[r].items():
            bd = _bidegree(w, m, tau)
            block = cx.diffs.setdefault(bd, {})
            bases[i][tau] = col0 = dims.get(bd, 0)
            dims[bd] = col0 + len(run)
            cx.layout.setdefault(bd, []).append((m, tau, col0))
            targets = [(to.get(tau - 1), coeff, table[tau])
                       for to, coeff, table in out]
            for k in range(len(run)):
                for row0, coeff, table in targets:
                    for t in table[k]:
                        block[(row0 + t, col0 + k)] = coeff
    cx.diffs.src = cx.diffs.tgt = dims
    return cx


def after_twin(cx: KhovanovComplex) -> KhovanovComplex:
    """The complex of ``cx``'s diagram under the "after" ordering rule: the
    same dimensions, runs, circles and tables, and d negated on every
    block whose degree i has i - (w - n)/2 odd (w the writhe, n the
    crossings).

    Proof.  At a state m with m[c] = +1, the "before" and "after" counts of
    negative markers around c add up to N(m), all negative markers of m.
    m's generators sit at i = (w - sum(m))/2 = (w - n)/2 + N(m), so the
    "after" sign is the "before" sign times (-1)^(i - (w - n)/2)."""
    shift = (cx.diagram.writhe() - cx.diagram.n) // 2
    diffs = GradedMap("d", cx.diffs.src, cx.diffs.tgt, (1, 0), {
        bd: {rc: -v for rc, v in block.items()} if (bd[0] - shift) % 2
        else block for bd, block in cx.diffs.items()})
    return KhovanovComplex(cx.diagram, cx.dims, cx.layout, diffs, cx.circles,
                           cx.runs, cx.rank, cx.base, cx.edges,
                           cx.edge_tables)


def _edge_table(edge, runs, rank, shared) -> dict:
    """{tau: [the tuple of target ranks of each sign tuple of the run tau]}
    of one merge/split pattern (rules in the module docstring); every target
    must lie in the run tau - 1.  Each tuple of target ranks is held once,
    in ``shared``.

    Each branch reads a target off its source with one ``itemgetter``: a
    new circle carries the sign of its old one (``carry``), and a changed
    circle reads the sign the rule gives it.  A merge of a and b into p
    gives min(s[a], s[b]): it reads b when s[a] is + and a when only s[b]
    is, and (-,-) has no target.  A split of o into p1 < p2 gives (-,-)
    when s[o] is -, both read off o; else (+,-) and (-,+), read off o and
    off a - appended to the source."""
    carry, old, new = edge
    appended = len(carry) - len(new) + len(old)  # the index of the - read

    def reading(at):
        """The itemgetter of ``carry`` with position k read at ``at[k]``."""
        get = itemgetter(*[at.get(k, c) for k, c in enumerate(carry)])
        return get if len(carry) > 1 else lambda signs: (get(signs),)

    out = {}
    if len(old) == 2:
        (a, b), (p,) = old, new
        from_a, from_b = reading({p: a}), reading({p: b})
        ones = [shared.setdefault((k,), (k,))
                for k in range(comb(len(carry), len(carry) // 2))]
        for tau, run in runs.items():
            targets = [from_b(s) if s[a] > 0 else from_a(s) if s[b] > 0
                       else None for s in run]
            if set(map(sum, filter(None, targets))) - {tau - 1}:
                raise AssertionError(
                    f"differential not of bidegree (1,0): {edge}")
            out[tau] = [ones[rank[t]] if t else () for t in targets]
        return out
    (o,), (p1, p2) = old, new
    both = reading({p1: o, p2: o})
    plus_minus = reading({p1: o, p2: appended})
    minus_plus = reading({p1: appended, p2: o})
    for tau, run in runs.items():
        targets = [(both(s),) if s[o] < 0
                   else (plus_minus(s + (-1,)), minus_plus(s + (-1,)))
                   for s in run]
        if set(map(sum, chain.from_iterable(targets))) - {tau - 1}:
            raise AssertionError(
                f"differential not of bidegree (1,0): {edge}")
        out[tau] = [shared.setdefault(ranks, ranks) for ranks in [
            tuple(map(rank.__getitem__, ts)) for ts in targets]]
    return out


def verify_d_squared(cx: KhovanovComplex) -> list:
    """Bidegrees (i, j) where d_{i+1,j} . d_{i,j} has a nonzero entry."""
    return sorted(cx.diffs.compose(cx.diffs))


def graded_euler(cx: KhovanovComplex) -> LaurentPoly:
    """Sum over bidegrees of (-1)^i dim C^{i,j} q^j."""
    out = LaurentPoly()
    for (i, j), n in cx.dims.items():
        out.add_term(-n if i % 2 else n, j)
    return out
