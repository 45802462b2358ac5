"""Khovanov homology tangle by tangle (Bar-Natan, *Fast Khovanov homology
computations*, arXiv math/0606318; *Khovanov's homology for tangles and
cobordisms*, arXiv math/0410495, sections 4 and 11).

The crossings are added one at a time, in the order ``states._greedy_order``
picks for the frontier Jones sum: the narrowest frontier next, so a kink
is added as it reaches the frontier and its small circle is delooped and
cancelled in that step, R1 done locally.  After each one the complex lives
over the planar tangle of the crossings added so far:

* an object is (homological degree h, crossingless matching of the open
  arc labels as a sorted tuple of pairs (a, b) with a < b, q-shift);
* a morphism between matchings M1 and M2 is {dotted cycles: int} in the
  disk basis: each cycle of M1 u M2 bounds one disk, dotted or not (two
  dots on a disk are zero), and the dotted ones are a bit mask, bit r for
  the cycle of rank r when the cycles are ordered by their least labels.

Adding crossing c tensors every object with its smoothings P (positive
marker, degree 0) and N (negative marker, degree 1, q-shift 1), and every
entry f with id_P and id_N; the saddle P -> N enters as (-1)^h id (x) saddle
(the Koszul sign).  Both the tensor and the vertical composition that
Gaussian elimination needs glue disks along intervals.  Each connected
piece of the glued surface, of genus g (from its Euler characteristic)
with `dots` dots and boundary circles B, is cut back into disks in closed
form by the sphere, dot and neck-cutting relations:

    g + dots >= 2:  0;
    g + dots == 1:  2^g times every disk of B dotted;
    g + dots == 0:  the sum over i of every disk of B dotted except i's
                    (no term when B is empty: the sphere is 0).

A closed loop of a glued matching is delooped at once, O = {+1} + {-1}: an
object with l loops becomes 2^l objects, and the entry between two of them
is the part of the glued morphism whose loop disks carry the right dots
(source loop +: dotted, -: undotted; target loop +: undotted, -: dotted).
Then every entry that is +-1 times an identity is cancelled by Gaussian
elimination (Bar-Natan, arXiv math/0606318, Lemma 4.2): if d has an entry
d(x -> y) = e, an isomorphism, the complex is chain-homotopy equivalent to
the one with x and y removed and every other entry replaced by

    d'(u -> v) = d(u -> v) - d(u -> y) e^-1 d(x -> v),

for u of x's degree and v of y's degree (entries into x and out of y are
dropped).  Over Z the invertible multiples of an identity are +-id, so
every other entry, however large, is carried exactly into the residue, and
the residue's homology, torsion included, equals the original's.

The frontier is empty at the end, every morphism is an integer and none is
+-1, and the residue goes straight to the Smith normal form of
``homology.py``, after the shift (-n_-, n_+ - 2 n_-), as a
``complexes.GradedMap`` of shift (1, 0), the type of the cube's
differential.  The diagram's
crossingless loops act on the table, not on the residue: each is a tensor
factor {+1} + {-1} with no differential, so l loops turn H^{i,j} into
binom(l, k) copies of it at j + l - 2k for k = 0 ... l, and the torsion of
each bidegree is merged into invariant factors.  The graded Euler
characteristic of each tangle complex, matching by matching, is the layer
of the frontier Jones sum after the same crossings.

A template is the gluing of one pair of morphisms' disks, cut into pieces,
for any dots: f (x) part for f: M1 -> M2 and a part of the crossing, or
g . f for f: Ma -> Mb and g: Mb -> Mc.  It depends on the labels only
through their order: ranks name the cycles and places name the loops, so
an order-preserving relabelling of the arguments onto 0, 1, ... gives the
same template.  That relabelling is its key: (M1, M2, ends, part) for a
tensor, (Ma, Mb, Mc) for a composite, so matchings that come back under
shifted labels, crossing after crossing, reuse it.  A composite with an
undotted identity factor, {0: c} from M to M, needs none: it is the other
factor times c.  One store per ``tangle_homology`` call (or
``tangle_complexes`` run) holds every template its tensors, eliminations
and d^2 certificates build, and interns their pieces, which are few, so
that templates share them.  A template depends on no diagram, so calls may
share a store: the two tables of one ``homology_invariance`` check of
``verify-move``, the diagram's and the moved one's, share one, and the
second call reuses the templates of the first.  A store dies with its call
or its check.  The cycles of each pair of matchings that the templates
read are found once per tensor, d^2 check or elimination, in a memo that
dies with that step, and nothing is kept in the module.

With ``check`` set, d^2 = 0 is proved by certificate at each crossing: on
the complex C before the tensor, and then only on the blocks of the
tensor that go from the smoothing P to N.  Its other blocks are
d_C^2 (x) id, by functoriality (``TangleComplex.d_squared_zero`` has the
proof), so the check never sums the composites of C's entries a second
time, tensored.
"""

from __future__ import annotations

from functools import cached_property
from math import comb

from .complexes import GradedMap
from .diagram import LinkDiagram
from .homology import HomologyTable, _invariant_factors, homology_groups
from .states import DEFAULT_MAX_CROSSINGS, _greedy_order, _join, check_guard

__all__ = ["TangleComplex", "tangle_complexes", "tangle_homology"]

# end positions paired by each smoothing, and the disk of each end position
# in id_P, id_N and the saddle P -> N
PAIRS = {"P": ((0, 1), (2, 3)), "N": ((1, 2), (3, 0))}
DISK = {"P": (0, 0, 1, 1), "N": (1, 0, 0, 1), "S": (0, 0, 0, 0)}


def _cycles(m1, m2, memo) -> tuple:
    """({label: rank of its cycle}, [least label of each cycle]) for the
    cycles of m1 u m2, ranked by their least labels, kept in ``memo``: one
    dict per tensor, d^2 check or elimination, which dies with the call."""
    out = memo.get((m1, m2))
    if out is not None:
        return out
    p1, p2 = {}, {}
    for m, p in ((m1, p1), (m2, p2)):
        for a, b in m:
            p[a], p[b] = b, a
    key, least = {}, []
    for a in sorted(p1):
        if a not in key:
            x = a
            while x not in key:
                key[x] = key[p1[x]] = len(least)
                x = p2[p1[x]]
            least.append(a)
    out = memo[m1, m2] = key, least
    return out


def _glue(matching, pairs):
    """The matching of the open labels after joining the label pairs of one
    smoothing to ``matching``, and a label on each loop that closes."""
    partner = {}
    for a, b in matching:
        partner[a], partner[b] = b, a
    loops = tuple(x for x, y in pairs if _join(partner, x, y))
    return tuple(sorted((a, b) for a, b in partner.items() if a < b)), loops


def _template(sides, glues, boundary) -> list:
    """The connected pieces of the disks numbered 0, 1, ... glued along the
    intervals ``glues`` (pairs of disk numbers), for any dots.  ``sides[v]``
    is (f bit, g bit) of disk v: the bit of the cycle it caps on the side
    of f or of g, 0 on neither.  ``boundary`` is [(disk, kind, bit)] for
    each boundary circle of the result and a disk it touches: kind 0 for a
    cycle (bit 1 << its rank), 1 or 2 for a loop of the source or target
    (bit 1 << its place among the loops).  Returns per piece its f and g
    bits, its genus and its two expansions, for genus + dots = 0 and 1, as
    ((source signs, target signs, dotted cycle bits, coeff), ...) (a sign
    bit is set for a loop delooped to {-1}).  Both are read off the
    piece's cycle bits K and target loop bits T in one pass: e = 1 dots
    every circle, (0, T, K, 2^genus); each e = 0 term leaves one circle
    undotted, which clears its bit in K, sets its source sign or clears
    its bit in T."""
    parent = list(range(len(sides)))
    for a, b in glues:
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        parent[a] = b
    pieces = {}
    for v, (f, g) in enumerate(sides):
        r = v
        while parent[r] != r:
            r = parent[r]
        piece = pieces.get(r)
        if piece is None:
            # f bits, g bits, 2 - disks + glues, then per kind of circle
            # (cycle, source loop, target loop) its bits, listed and or-ed
            pieces[r] = [f, g, 1, ([], [], []), [0, 0, 0]]
        else:
            piece[0] |= f
            piece[1] |= g
            piece[2] -= 1
        parent[v] = r
    for v, _ in glues:
        pieces[parent[v]][2] += 1
    for v, kind, bit in boundary:
        circles, bits = pieces[parent[v]][3:]
        circles[kind].append(bit)
        bits[kind] |= bit
    out = []
    for f, g, chi, (keys, srcs, tgts), (k, _, t) in pieces.values():
        twice_genus = chi - len(keys) - len(srcs) - len(tgts)
        assert twice_genus >= 0 and twice_genus % 2 == 0, "not a surface"
        genus = twice_genus // 2
        flat = [(0, t, k ^ b, 1) for b in keys]
        flat += [(b, t, k, 1) for b in srcs]
        flat += [(0, t ^ b, k, 1) for b in tgts]
        out.append((f, g, genus, (tuple(flat), ((0, t, k, 1 << genus),))))
    return out


def _glued(template, df, dg, coeff) -> list:
    """The terms of one glued pair of disk-basis terms ``df`` and ``dg``."""
    acc = [(0, 0, 0, coeff)]
    for fb, gb, genus, expansions in template:
        e = genus + (df & fb).bit_count() + (dg & gb).bit_count()
        if e > 1:
            return []
        acc = [(s1 | s2, t1 | t2, k1 | k2, c1 * c2)
               for s1, t1, k1, c1 in acc
               for s2, t2, k2, c2 in expansions[e]]
    return acc


def _tensor_template(m1, m2, ends, part, glued1, glued2, memo) -> list:
    """f (x) (the crossing's part ``part``: id_P, id_N or the saddle S) for
    f: m1 -> m2, with the loops of the glued matchings delooped;
    ``glued1`` and ``glued2`` are ``_glue`` of m1 and m2 with the
    smoothings at the source and target of the part."""
    fkey, fleast = _cycles(m1, m2, memo)
    base = len(fleast)
    sides = [(1 << r, 0) for r in range(base)]
    sides += [(0, 0)] * (1 if part == "S" else 2)
    disk = DISK[part]
    glues, first = [], {}
    for p, a in enumerate(ends):
        here = base + disk[p]
        if a in fkey:
            glues.append((fkey[a], here))
        elif a in first:
            glues.append((first[a], here))
        else:
            first[a] = here

    def disk_of(a):
        return fkey[a] if a in fkey else first[a]

    (new1, loops1), (new2, loops2) = glued1, glued2
    boundary = [(disk_of(a), 0, 1 << r)
                for r, a in enumerate(_cycles(new1, new2, memo)[1])]
    for kind, loops in ((1, loops1), (2, loops2)):
        boundary += [(disk_of(x), kind, 1 << i) for i, x in enumerate(loops)]
    return _template(sides, glues, boundary)


def _compose_template(ma, mb, mc, memo) -> list:
    """g . f for f: ma -> mb and g: mb -> mc, glued along the arcs of mb."""
    (fkey, fleast), (gkey, gleast) = (_cycles(ma, mb, memo),
                                      _cycles(mb, mc, memo))
    base = len(fleast)
    sides = [(1 << r, 0) for r in range(base)]
    sides += [(0, 1 << r) for r in range(len(gleast))]
    glues = [(fkey[a], base + gkey[a]) for a, _ in mb]
    boundary = [(fkey[a], 0, 1 << r)
                for r, a in enumerate(_cycles(ma, mc, memo)[1])]
    return _template(sides, glues, boundary)


def _add(acc: dict, key, coeff):
    value = acc.get(key, 0) + coeff
    if value:
        acc[key] = value
    else:
        acc.pop(key, None)


def _stored(store, key, pieces) -> tuple:
    """Store ``pieces`` as the template under ``key``.  Pieces are interned
    in the store too, each keyed by itself (a template key is a tuple of
    tuples, a piece starts with an int, so the two never meet), and
    templates share them."""
    template = store[key] = tuple(store.setdefault(p, p) for p in pieces)
    return template


def _compose(g, f, ma, mb, mc, store, memo) -> dict:
    """g . f in the disk basis of ma u mc.  The undotted disks of M u M are
    id_M, so a factor {0: c} with ma == mb, or mb == mc, is c id: the other
    factor scaled by c is the composite, and no template is built."""
    if ma == mb and len(f) == 1 and 0 in f:
        c = f[0]
        return {keys: c * cg for keys, cg in g.items()}
    if mb == mc and len(g) == 1 and 0 in g:
        c = g[0]
        return {keys: c * cf for keys, cf in f.items()}
    template = store.get((ma, mb, mc))
    if template is None:
        template = _stored(store, (ma, mb, mc),
                           _compose_template(ma, mb, mc, memo))
    out = {}
    for df, cf in f.items():
        for dg, cg in g.items():
            for _, _, keys, coeff in _glued(template, df, dg, cf * cg):
                _add(out, keys, coeff)
    return out


def _relabelling(objects, extra=()) -> tuple:
    """The order-preserving relabelling onto 0, 1, ... of ``extra`` and the
    open labels, which every matching of ``objects`` shares: (the labels in
    order, {label: new label}, {matching: relabelled matching})."""
    labels = sorted({*extra, *(a for _, m, _ in objects[:1] for pair in m
                               for a in pair)})
    to = {a: i for i, a in enumerate(labels)}
    canon = {}
    for _, m, _ in objects:
        if m not in canon:
            canon[m] = tuple((to[a], to[b]) for a, b in m)
    return labels, to, canon


def _koszul(h) -> int:
    """The sign of id (x) saddle out of an object of degree h."""
    return -1 if h % 2 else 1


class TangleComplex:
    """A complex over a planar tangle: ``objects[x]`` is (h, matching, q)
    and ``d[x]`` maps each target object to its morphism.  A complex that
    ``tensor`` returns also has ``smoothings[x]``, 0 or 1, the smoothing (P
    or N) of the crossing that object x carries; elimination drops it."""

    def __init__(self, objects, d, smoothings=None):
        self.objects = objects
        self.d = d
        self.smoothings = smoothings

    @cached_property
    def canon(self) -> dict:
        """{matching: its relabelling} for the composite templates' keys,
        computed once per complex: the d^2 check and elimination share it,
        and it stays valid when elimination drops objects."""
        return _relabelling(self.objects)[2]

    def tensor(self, crossing, store) -> "TangleComplex":
        """This complex tensored with one crossing, its loops delooped.
        Each matching is relabelled with the crossing's ends and glued to
        each smoothing once: the templates, which go to and come from
        ``store``, read the glued matchings as they are, and the objects
        take them back to the diagram's labels."""
        ends = crossing.ends
        labels, to, canon = _relabelling(self.objects, ends)
        cends = tuple(to[a] for a in ends)
        cpairs = [[(cends[p], cends[q]) for p, q in PAIRS[s]] for s in "PN"]
        glue, opened, memo = {}, {}, {}
        for m, cm in canon.items():
            glue[cm] = [_glue(cm, pairs) for pairs in cpairs]
            opened[m] = [(tuple((labels[a], labels[b]) for a, b in new), loops)
                         for new, loops in glue[cm]]

        def glued(m1, m2, part, f):
            """{(source signs, target signs): morphism} of f (x) part."""
            key = canon[m1], canon[m2], cends, part
            template = store.get(key)
            if template is None:
                template = _stored(store, key, _tensor_template(
                    *key, glue[key[0]][part == "N"], glue[key[1]][part != "P"],
                    memo))
            out = {}
            for df, cf in f.items():
                for src, tgt, keys, coeff in _glued(template, df, 0, cf):
                    _add(out.setdefault((src, tgt), {}), keys, coeff)
            return out

        objects, smoothings, first = [], [], {}
        for x, (h, m, q) in enumerate(self.objects):
            for s in (0, 1):
                glued_m, loops = opened[m][s]
                first[x, s] = len(objects)
                objects += [(h + s, glued_m,
                             q + s + len(loops) - 2 * bin(sign).count("1"))
                            for sign in range(1 << len(loops))]
                smoothings += [s] * (1 << len(loops))
        d = [{} for _ in objects]
        for x, row in enumerate(self.d):
            h, mx, _ = self.objects[x]
            for y, f in row.items():
                for s, part in enumerate("PN"):
                    for (src, tgt), mor in glued(mx, self.objects[y][1], part,
                                                 f).items():
                        if mor:
                            d[first[x, s] + src][first[y, s] + tgt] = mor
            saddle = glued(mx, mx, "S", {0: _koszul(h)})
            for (src, tgt), mor in saddle.items():
                if mor:
                    d[first[x, 0] + src][first[x, 1] + tgt] = mor
        return TangleComplex(objects, d, smoothings)

    def d_squared_zero(self, store, pn_only=False) -> bool:
        """Whether d^2 = 0: every composite of two entries, summed per pair
        of end objects, is zero.  With ``pn_only`` only the pairs from an
        object of the smoothing P to one of N are summed, which is the
        certificate ``tangle_complexes`` uses on a tensor C (x) X whose C
        has d_C^2 = 0.

        The certificate.  X is the crossing's complex P -> N, its one entry
        the saddle s.  The entries of C (x) X are f (x) id_P from (x, P) to
        (y, P) and f (x) id_N from (x, N) to (y, N), one pair per entry
        f: x -> y of d_C, and (-1)^h id (x) s from (x, P) to (x, N), h the
        degree of x (the Koszul sign).  Every path of two entries keeps the
        smoothing or goes from P to N, so d^2 has three blocks:

        * P-P: the sum over y of (g (x) id_P)(f (x) id_P), which is
          (sum of g f) (x) id_P = d_C^2 (x) id_P, since - (x) id_P is a
          functor: (g f) (x) id_P = (g (x) id_P)(f (x) id_P);
        * N-N: d_C^2 (x) id_N, in the same way;
        * P-N: one term per entry f: x -> y, from (x, P) to (y, N),
          (f (x) id_N)((-1)^h id (x) s) + ((-1)^(h+1) id (x) s)(f (x) id_P)
          = (-1)^h [(f (x) id_N)(id (x) s) - (id (x) s)(f (x) id_P)],
          zero by the interchange law of the planar algebra.

        Delooping conjugates each block by an isomorphism, object by
        object, so the blocks of the delooped complex vanish exactly when
        these do.  Hence d_C^2 = 0 leaves only the P-N blocks to sum, and
        a nonzero d^2 shows in them or in d_C^2.  The proof rests on the
        functoriality of gluing in Bar-Natan's planar algebra (arXiv
        math/0410495, section 5), as the engine realizes it: ``tensor``
        glues each entry to a part of the crossing and ``_compose`` glues
        two entries, both cut into the disk basis by the same closed
        forms.  A property test checks both laws on the engine's own
        tensor and composite.  The P-N blocks are still summed here: they
        hold the Koszul signs and the delooped saddles of this complex's
        own objects, which a wrong sign breaks one object at a time."""
        obj, d = self.objects, self.d
        canon = [self.canon[m] for _, m, _ in obj]
        side = self.smoothings if pn_only else None
        memo = {}
        for x, row in enumerate(d):
            if side is not None and side[x]:
                continue
            acc = {}
            for y, f in row.items():
                for z, g in d[y].items():
                    if side is not None and not side[z]:
                        continue
                    for keys, c in _compose(g, f, canon[x], canon[y],
                                            canon[z], store, memo).items():
                        _add(acc, (z, keys), c)
            if acc:
                return False
        return True

    def eliminate(self, store) -> None:
        """Cancel every entry that is +-1 times an identity, in scan order:
        an object x with such an entry is cancelled against the target y
        with the fewest incoming entries, ties to the lowest y, and the
        scan repeats until no such entry is left."""
        obj, out, canon = self.objects, self.d, self.canon
        into = [{} for _ in obj]
        for x, row in enumerate(out):
            for y, f in row.items():
                into[y][x] = f
        alive, found, memo = [True] * len(obj), True, {}
        while found:
            found = False
            for x in range(len(obj)):
                units = [y for y, f in out[x].items()
                         if obj[y][1] == obj[x][1] and len(f) == 1
                         and f.get(0) in (1, -1)]
                if not units:
                    continue
                found = True
                y = min(units, key=lambda y: (len(into[y]), y))
                e = out[x][y][0]
                alive[x] = alive[y] = False
                out_x, in_y = out[x], into[y]
                del out_x[y], in_y[x]
                for v in out_x:
                    del into[v][x]
                for u, a in in_y.items():
                    out_u = out[u]
                    del out_u[y]
                    for v, b in out_x.items():
                        new = dict(out_u.get(v, ()))
                        for keys, c in _compose(b, a, canon[obj[u][1]],
                                                canon[obj[x][1]],
                                                canon[obj[v][1]],
                                                store, memo).items():
                            _add(new, keys, -e * c)
                        if new:
                            out_u[v] = into[v][u] = new
                        elif v in out_u:
                            del out_u[v], into[v][u]
                for w in into[x]:
                    del out[w][x]
                for z in out[y]:
                    del into[z][y]
                out[x] = into[x] = out[y] = into[y] = {}
        keep = [x for x in range(len(obj)) if alive[x]]
        number = {x: k for k, x in enumerate(keep)}
        self.objects = [obj[x] for x in keep]
        self.d = [{number[y]: f for y, f in out[x].items()} for x in keep]
        self.smoothings = None


def tangle_complexes(diagram: LinkDiagram, violations=None, store=None):
    """Yield (crossing, reduced tangle complex) after each crossing of
    ``states._greedy_order``.  With a ``violations`` list, d^2 = 0 is checked
    on each tensor, and the crossings where it fails are appended.  The
    check is the certificate of ``TangleComplex.d_squared_zero``: d^2 = 0
    on the complex before the tensor, then on the tensor's P-N blocks only.
    When the first fails, every block of the tensor is summed, so a
    crossing is appended exactly when the tensor's d^2 is nonzero.  Every
    tensor, elimination and d^2 check shares the template ``store`` (a new
    dict when None)."""
    store = {} if store is None else store
    cx = TangleComplex([(0, (), 0)], [{}])
    for k in _greedy_order(diagram):
        premise = violations is not None and cx.d_squared_zero(store)
        cx = cx.tensor(diagram.crossings[k], store)
        if violations is not None and not cx.d_squared_zero(store, premise):
            violations.append(k)
        cx.eliminate(store)
        yield k, cx


def _with_loops(table, loops) -> HomologyTable:
    """``table`` tensored with (Z{+1} + Z{-1})^loops, which is free with no
    differential: binom(loops, k) copies of each group at j + loops - 2k."""
    ranks, orders = {}, {}
    for (i, j), (rank, torsion) in table.items():
        for k in range(loops + 1):
            bd, copies = (i, j + loops - 2 * k), comb(loops, k)
            ranks[bd] = ranks.get(bd, 0) + copies * rank
            orders.setdefault(bd, []).extend(torsion * copies)
    out = HomologyTable()
    for bd in sorted(ranks):
        out[bd] = (ranks[bd], _invariant_factors(orders[bd]))
    return out


def tangle_homology(diagram: LinkDiagram,
                    max_crossings: int = DEFAULT_MAX_CROSSINGS,
                    check: bool = False,
                    store=None) -> tuple[HomologyTable, list]:
    """The integral Khovanov table of ``diagram`` by the tangle-by-tangle
    algorithm, and the d^2 = 0 violations found when ``check`` is set: the
    crossings after whose tensor d^2 was nonzero, and "residue" if it is
    nonzero on the final complex.  ``store`` is the template store (a new
    dict when None); the two tables of one ``homology_invariance`` check
    share one."""
    check_guard(diagram, max_crossings)
    violations = [] if check else None
    store = {} if store is None else store
    cx = TangleComplex([(0, (), 0)], [{}])
    for _, cx in tangle_complexes(diagram, violations, store):
        pass
    if check and not cx.d_squared_zero(store):
        violations.append("residue")
    n_minus = sum(c.sign < 0 for c in diagram.crossings)
    shift = (-n_minus, diagram.n - 3 * n_minus)
    dims, place = {}, []
    for h, _, q in cx.objects:
        bd = (h + shift[0], q + shift[1])
        place.append((bd, dims.get(bd, 0)))
        dims[bd] = dims.get(bd, 0) + 1
    blocks = {}
    for x, row in enumerate(cx.d):
        bd, col = place[x]
        for y, f in row.items():
            blocks.setdefault(bd, {})[place[y][1], col] = f[0]
    table = homology_groups(GradedMap("d", dims, dims, (1, 0), blocks))
    return _with_loops(table, diagram.loops), violations or []
