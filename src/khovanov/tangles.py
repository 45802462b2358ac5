"""Khovanov homology tangle by tangle (Bar-Natan, *Fast Khovanov homology
computations*, arXiv math/0606318; *Khovanov's homology for tangles and
cobordisms*, arXiv math/0410495, sections 4 and 11).

The crossings are added one at a time, in the order ``states._greedy_order``
picks for the frontier Jones sum.  After each one the complex lives over
the planar tangle of the crossings added so far:

* an object is (homological degree h, crossingless matching of the open
  arc labels as a sorted tuple of pairs (a, b) with a < b, q-shift);
* a morphism between matchings M1 and M2 is {frozenset of dotted cycles:
  int} in the disk basis: each cycle of M1 u M2, named by its least label,
  bounds one disk, dotted or not (two dots on a disk are zero).

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
Then every entry that is +-1 times an identity is cancelled by the
Gaussian-elimination lemma stated in ``homology.py``.  The frontier is empty
at the end, every morphism is an integer, and the residue goes through the
same unit cancellation and Smith normal form as the whole cube did, after
the shift (-n_-, n_+ - 2 n_-) and a factor {+1} + {-1} per crossingless
loop.  The graded Euler characteristic of each tangle complex, matching by
matching, is the layer of the frontier Jones sum after the same crossings.
"""

from __future__ import annotations

from .diagram import LinkDiagram, _root
from .homology import HomologyTable, homology_groups
from .states import DEFAULT_MAX_CROSSINGS, _greedy_order, _join, check_guard

__all__ = ["TangleComplex", "tangle_complexes", "tangle_homology"]

EMPTY = frozenset()
# end positions paired by each smoothing, and the disk of each end position
# in id_P, id_N and the saddle P -> N
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


def _glue(matching, pairs):
    """The matching of the open labels after joining the label pairs of one
    smoothing to ``matching``, and a label on each loop that closes."""
    partner = {}
    for a, b in matching:
        partner[a], partner[b] = b, a
    loops = tuple(x for x, y in pairs if _join(partner, x, y))
    return tuple(sorted((a, b) for a, b in partner.items() if a < b)), loops


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


def _glued(template, df, dg, coeff) -> list:
    """The terms of one glued pair of disk-basis terms ``df`` and ``dg``."""
    acc = [(0, 0, EMPTY, coeff)]
    for fk, gk, genus, expansions in template:
        e = genus + len(df & fk) + len(dg & gk)
        if e > 1:
            return []
        acc = [(s1 | s2, t1 | t2, k1 | k2, c1 * c2)
               for s1, t1, k1, c1 in acc
               for s2, t2, k2, c2 in expansions[e]]
    return acc


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


def _add(acc: dict, key, coeff):
    value = acc.get(key, 0) + coeff
    if value:
        acc[key] = value
    else:
        acc.pop(key, None)


def _compose(g, f, ma, mb, mc, cache) -> dict:
    """g . f in the disk basis of ma u mc."""
    template = cache.get((ma, mb, mc))
    if template is None:
        template = cache[ma, mb, mc] = _compose_template(ma, mb, mc)
    out = {}
    for df, cf in f.items():
        for dg, cg in g.items():
            for _, _, keys, coeff in _glued(template, df, dg, cf * cg):
                _add(out, keys, coeff)
    return out


def _koszul(h) -> int:
    """The sign of id (x) saddle out of an object of degree h."""
    return -1 if h % 2 else 1


class TangleComplex:
    """A complex over a planar tangle: ``objects[x]`` is (h, matching, q)
    and ``d[x]`` maps each target object to its morphism."""

    def __init__(self, objects, d):
        self.objects = objects
        self.d = d

    def tensor(self, crossing) -> "TangleComplex":
        """This complex tensored with one crossing, its loops delooped."""
        ends, cache = crossing.ends, {}

        def glued(m1, m2, part, f):
            """{(source signs, target signs): morphism} of f (x) part."""
            if (m1, m2, part) not in cache:
                cache[m1, m2, part] = _tensor_template(m1, m2, ends, part)
            out = {}
            for df, cf in f.items():
                for src, tgt, keys, coeff in _glued(cache[m1, m2, part], df,
                                                    EMPTY, cf):
                    _add(out.setdefault((src, tgt), {}), keys, coeff)
            return out

        objects, first = [], {}
        pairs = [[(ends[p], ends[q]) for p, q in PAIRS[s]] for s in "PN"]
        for x, (h, m, q) in enumerate(self.objects):
            for s in (0, 1):
                glued_m, loops = _glue(m, pairs[s])
                first[x, s] = len(objects)
                objects += [(h + s, glued_m,
                             q + s + len(loops) - 2 * bin(sign).count("1"))
                            for sign in range(1 << len(loops))]
        d = [{} for _ in objects]
        for x, row in enumerate(self.d):
            h, mx, _ = self.objects[x]
            for y, f in row.items():
                for s, part in enumerate("PN"):
                    for (src, tgt), mor in glued(mx, self.objects[y][1], part,
                                                 f).items():
                        if mor:
                            d[first[x, s] + src][first[y, s] + tgt] = mor
            saddle = glued(mx, mx, "S", {EMPTY: _koszul(h)})
            for (src, tgt), mor in saddle.items():
                if mor:
                    d[first[x, 0] + src][first[x, 1] + tgt] = mor
        return TangleComplex(objects, d)

    def d_squared_zero(self) -> bool:
        """Whether every composite of two entries sums to zero."""
        cache, obj = {}, self.objects
        for x, row in enumerate(self.d):
            acc = {}
            for y, f in row.items():
                for z, g in self.d[y].items():
                    for keys, c in _compose(g, f, obj[x][1], obj[y][1],
                                            obj[z][1], cache).items():
                        _add(acc, (z, keys), c)
            if acc:
                return False
        return True

    def eliminate(self) -> None:
        """Cancel every entry that is +-1 times an identity, in scan order:
        an object x with such an entry is cancelled against the target y
        with the fewest incoming entries, ties to the lowest y, and the
        scan repeats until no such entry is left."""
        obj, out, cache = self.objects, self.d, {}
        into = [{} for _ in obj]
        for x, row in enumerate(out):
            for y, f in row.items():
                into[y][x] = f
        alive, found = [True] * len(obj), True
        while found:
            found = False
            for x in range(len(obj)):
                units = [y for y, f in out[x].items()
                         if obj[y][1] == obj[x][1] and len(f) == 1
                         and f.get(EMPTY) in (1, -1)]
                if not units:
                    continue
                found = True
                y = min(units, key=lambda y: (len(into[y]), y))
                e = out[x][y][EMPTY]
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
                        for keys, c in _compose(b, a, obj[u][1], obj[x][1],
                                                obj[v][1], cache).items():
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


def tangle_complexes(diagram: LinkDiagram, violations=None):
    """Yield (crossing, reduced tangle complex) after each crossing of
    ``states._greedy_order``.  With a ``violations`` list, d^2 = 0 is checked
    on each tensor, and the crossings where it fails are appended."""
    cx = TangleComplex([(0, (), 0)], [{}])
    for k in _greedy_order(diagram):
        cx = cx.tensor(diagram.crossings[k])
        if violations is not None and not cx.d_squared_zero():
            violations.append(k)
        cx.eliminate()
        yield k, cx


class _Residue:
    """The final complex, as ``homology_groups`` reads it."""

    def __init__(self, dims, blocks):
        self.dims, self.blocks = dims, blocks

    def bidegrees(self):
        return sorted(self.dims)

    def dim(self, bd):
        return self.dims.get(bd, 0)

    def matrix(self, bd):
        return self.blocks.get(bd, {})


def tangle_homology(diagram: LinkDiagram,
                    max_crossings: int = DEFAULT_MAX_CROSSINGS,
                    check: bool = False) -> tuple[HomologyTable, list]:
    """The integral Khovanov table of ``diagram`` by the tangle-by-tangle
    algorithm, and the d^2 = 0 violations found when ``check`` is set: the
    crossings after whose tensor d^2 was nonzero, and "residue" if it is
    nonzero on the final complex."""
    check_guard(diagram, max_crossings)
    violations = [] if check else None
    cx = TangleComplex([(0, (), 0)], [{}])
    for _, cx in tangle_complexes(diagram, violations):
        pass
    if check and not cx.d_squared_zero():
        violations.append("residue")
    n_minus = sum(c.sign < 0 for c in diagram.crossings)
    shift = (-n_minus, diagram.n - 3 * n_minus + diagram.loops)
    dims, place = {}, {}
    for x, (h, _, q) in enumerate(cx.objects):
        for sign in range(1 << diagram.loops):
            bd = (h + shift[0], q + shift[1] - 2 * bin(sign).count("1"))
            place[x, sign] = bd, dims.get(bd, 0)
            dims[bd] = dims.get(bd, 0) + 1
    blocks = {}
    for x, row in enumerate(cx.d):
        for y, f in row.items():
            for sign in range(1 << diagram.loops):
                bd, col = place[x, sign]
                blocks.setdefault(bd, {})[place[y, sign][1], col] = f[EMPTY]
    return homology_groups(_Residue(dims, blocks)), violations or []
