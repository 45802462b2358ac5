"""Explicit chain homotopy equivalences for Reidemeister moves II and III.

For a matched R2 bigon (crossings a, b) the complex of the pre-move diagram
splits off a retained subcomplex spanned by two-term combinations

    r(g) = g + attach(S_b(g)),   g an enhanced state with markers (a-, b+),

where S_b is the Frobenius saddle at b and ``attach`` re-inserts the bigon
circle with the partner sign.  The retraction sends g to r(g), sends a
bigon-circle state whose circle carries the active sign to minus r applied
to the saddle at a of the state with the circle removed, and kills
everything else.  The homotopy pairs the two acyclic families.  R3 has the
same skeleton with a triangle circle, a third retained family (states whose
marker at c is negative, mapped across the move by an isotopy of the
c-smoothed diagrams) and one extra retraction term through the saddle at c.

A retained summand is two things: its index {leading key: (bidegree,
row)}, which lists the leading states g and, for R3, the c-negative states
in generator order per bidegree, and the inclusion ``in``, whose column at
that row is r(g) (or the state itself).  The index depends on the
generators' families alone; rho, the isomorphism and the decomposition
certificate read it, and nothing else stands for the summand.  The R2
target's summand is its whole complex: its index is the complex's own and
its in_D and rho_D are identities.

Sign and labelling conventions are collected in ``SignConvention``; the
frozen default is certified empirically by ``convention_search``, which
reruns the identities over a finite candidate space.  Everything the candidates
build lives in one ``_Patch`` per patch: the geometry, which no sign field
changes, and one ``_Side`` per diagram of the move, with its one built complex
(with the circles of every marker state, ``KhovanovComplex.circles``) and its
"after" twin, its sign transports (``_Transports``) and its retained index.  A
map is built by a ``_Side`` method that takes the sign values it reads as its
arguments, and the side memoizes it under that call, so each map is built once
per distinct value of what it reads.  A check's verdict is memoized in the
patch under the check's name and the maps it reads; every map lives as long as
the patch, so a map stands for the values it was built from.  Each candidate is
still its own ``MoveEquivalence`` and stops at its first failing identity; a
``verify-move`` report lists every check.

A generator is its state key (markers, signs).  Each map is (patch map)
tensored with the identity: the patch decides which circle is inserted,
dropped or re-signed, and every other circle's sign is carried along, so
the carrying depends on the marker state alone.  ``_Transports`` resolves
each transport and the patch saddle once per marker state, from the
complex's ``circles``, as sign positions, and applies it to each
generator by indexing.

in, rho, h and the isomorphism are ``GradedMap``s, the type of the
complexes' differentials, and the checks compose them with ``cx.diffs``
itself; every check is an exact integer matrix identity, reported by
``GradedMap.first_difference`` at its first violating entry.  A product
that several checks read (d.in, d_R = rho.d.in, d'.in_D,
d_R' = rho_D.d'.in_D, in.rho) is composed once per equivalence.

Three checks are read off the identities that imply them, by the same
chain-map algebra as the Gaussian-elimination lemma (Bar-Natan, arXiv
math/0606318), and form their whole-cube products only when a premise
fails; those products alone name the first violation, so every report is
the one the products would give.  Write d, d' for the differentials of
the diagrams before and after the move.

- ``composite_chain_map``, for F = in_D isom rho, holds when rho and isom
  are chain maps and d' in_D = in_D d_R':
  d' F = in_D d_R' isom rho = in_D isom d_R rho = in_D isom rho d = F d.
- ``composite_chain_map_back``, for B = in isom_inv rho_D, holds when in
  and isom are chain maps, isom_inv is isom's inverse on both sides
  (``isom_invertible`` tests both products) and rho_D d' = d_R' rho_D:
  then isom_inv d_R' = d_R isom_inv, and
  d B = in d_R isom_inv rho_D = in isom_inv d_R' rho_D = B d'.
- ``decomposition``: C = im(in) + ker(rho) with ker(rho) contractible is
  not recomputed densely.  The homotopy identity d h + h d = id - in rho
  already contracts ker(rho), so ``MoveEquivalence._check_decomposition``
  only certifies, sparsely, that the complement, the image of id - in rho
  on the keys the index does not name, is a Z-basis of ker(rho); its
  docstring gives the proof.  Two of its four steps follow from identity
  checks: rho kills the complement by rho in = id, and so does rho d by
  rho's chain-map identity.  The dense recomputation is a test oracle.

The premises are memoized like the reported checks; the two that no report
lists (d' in_D = in_D d_R' and rho_D d' = d_R' rho_D) are ``_PREMISES``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import product

from .complexes import (
    GradedMap,
    KhovanovComplex,
    _cube_edge,
    _resign,
    after_twin,
    build_complex,
)
from .diagram import (
    LinkDiagram,
    MovePatch,
    PatchMismatchError,
    apply_move,
    diagram_from_tuples,
    match_r2,
    match_r3,
)
from .homology import _bareiss
from .states import DEFAULT_MAX_CROSSINGS

__all__ = [
    "SignConvention",
    "DEFAULT_CONVENTION",
    "MoveEquivalence",
    "convention_search",
    "default_candidates",
]


@dataclass(frozen=True)
class SignConvention:
    """One point of the finite convention space the maps are built from.

    ``partner_mid`` is the sign put on the bigon/triangle circle in the
    retained combination; ``active_mid`` selects the circle-sign family the
    retraction and homotopy act on.  The remaining fields are global signs on
    the individual formulas, the differential ordering rule (which only d
    reads: ``complexes.after_twin``), whether the homotopy carries
    (-1)^(negative markers outside the patch), and the saddle coefficient table
    (``negated`` deliberately breaks merges and is kept for demonstrating that
    the search rejects wrong tables).
    """

    name: str = "default"
    order_rule: str = "before"
    partner_mid: int = 1
    active_mid: int = -1
    partner_sign: int = 1
    rho_b_sign: int = -1
    h_w_sign: int = -1
    h_b_sign: int = 1
    h_x_mod: bool = True
    pq_rule: str = "standard"


DEFAULT_CONVENTION = SignConvention()


# ---------------------------------------------------------------------------
# exact linear algebra helpers (small dense blocks)
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# state transport between resolutions
# ---------------------------------------------------------------------------
#
# A generator is its key (markers, signs), the signs in the canonical order
# of the circles of its marker state.  Every transport takes a key and
# returns a key.  Which circle is inserted, dropped or re-signed, and which
# old circle each other circle's sign comes from, depends on the marker
# state alone (the patch map tensored with the identity), so ``_Transports``
# resolves each transport once per marker state, from the ``circles`` table
# that ``build_complex`` filled, and applies it to every generator by
# indexing.

def _flip(markers, at) -> tuple:
    return markers[:at] + (-markers[at],) + markers[at + 1:]


def _carry_positions(owners_of, count, new_circles, error) -> tuple:
    """For each of ``new_circles``, the position among ``count`` old circles
    of the one unused old circle that ``owners_of`` names for it; one new
    circle left without an owner takes the one old circle left over."""
    assign, used, unmatched = {}, set(), []
    for nc in new_circles:
        owners = [k for k in owners_of(nc) if k not in used]
        if len(owners) == 1:
            assign[nc] = owners[0]
            used.add(owners[0])
        else:
            unmatched.append(nc)
    leftovers = [k for k in range(count) if k not in used]
    if len(unmatched) == 1 and len(leftovers) == 1:
        assign[unmatched[0]] = leftovers[0]
    elif unmatched or leftovers:
        raise AssertionError(error)
    return tuple(assign[nc] for nc in new_circles)


class _Transports:
    """The sign transports out of one complex of a patch, resolved once per
    marker state (with the flip or target markers) and applied by indexing.

    A resolution is the new markers and, for each new circle, the position
    of the old sign it carries, where ``len(signs)`` is the slot of an
    inserted circle's value; the saddle's is its merge/split pattern
    (``complexes._cube_edge``).  A resolution that fails raises its
    ``AssertionError`` at the first generator that asks for it, and is
    resolved (and raises) again at the next.  ``target`` is the circles of
    the diagram after the move and the arc correspondence, for ``cross``.
    """

    def __init__(self, circles: dict, patch_arcs, target=None):
        self.circles = circles
        self.patch_arcs = patch_arcs
        self.target = target
        self.resolved = {}  # (transport, markers, flip or target) -> resolution

    def _resolution(self, kind, markers, arg):
        key = (kind, markers, arg)
        found = self.resolved.get(key)
        if found is None:
            found = self.resolved[key] = getattr(self, "_resolve_" + kind)(
                markers, arg)
        return found

    def attach(self, key, flip_at, value):
        """Insert the patch-local circle with ``value``; other circles keep
        their signs through containment (new circle inside old)."""
        markers, signs = key
        new, positions = self._resolution("attach", markers, flip_at)
        signs += (value,)
        return new, tuple([signs[k] for k in positions])

    def drop(self, key, flip_at):
        """Remove the patch-local circle; other circles keep their signs (old
        circle inside new)."""
        markers, signs = key
        new, positions = self._resolution("drop", markers, flip_at)
        return new, tuple([signs[k] for k in positions])

    def bijective(self, key, new_markers):
        """Move signs to the resolution ``new_markers`` whose circles match
        the key's circle for circle away from the patch."""
        new_markers = tuple(new_markers)
        positions = self._resolution("bijective", key[0], new_markers)
        return new_markers, tuple([key[1][k] for k in positions])

    def cross(self, key, tgt_markers):
        """Carry circle signs to the resolution ``tgt_markers`` of the
        diagram after the move, through the move's arc correspondence."""
        tgt_markers = tuple(tgt_markers)
        positions = self._resolution("cross", key[0], tgt_markers)
        return tgt_markers, tuple([key[1][k] for k in positions])

    def saddle(self, key, c) -> list[tuple]:
        """The Frobenius saddle at crossing ``c``, with no global sign:
        [(key, coefficient)]."""
        new, edge = self._resolution("saddle", key[0], c)
        return [((new, signs), 1) for signs in _resign(edge, key[1])]

    def mid_sign(self, key) -> int:
        """Sign of the patch-local circle."""
        return key[1][self._resolution("mid", key[0], None)]

    # -- resolutions, one per marker state -----------------------------------

    def _resolve_attach(self, markers, flip_at):
        old = self.circles[markers]
        new = _flip(markers, flip_at)
        positions = []
        for nc in self.circles[new]:
            if nc <= self.patch_arcs:
                positions.append(len(old))
                continue
            owners = [k for k, oc in enumerate(old) if nc <= oc]
            if len(owners) != 1:
                raise AssertionError(
                    "attach: circle containment not one-to-one")
            positions.append(owners[0])
        return new, tuple(positions)

    def _resolve_drop(self, markers, flip_at):
        old = [(k, oc) for k, oc in enumerate(self.circles[markers])
               if not (oc <= self.patch_arcs)]
        new = _flip(markers, flip_at)
        positions = []
        for nc in self.circles[new]:
            owners = [k for k, oc in old if oc <= nc]
            if len(owners) != 1:
                raise AssertionError("drop: circle containment not one-to-one")
            positions.append(owners[0])
        return new, tuple(positions)

    def _resolve_bijective(self, markers, new_markers):
        patch = self.patch_arcs
        ext = [oc - patch for oc in self.circles[markers]]
        return _carry_positions(
            lambda nc: [k for k, e in enumerate(ext) if e and e == nc - patch],
            len(ext), self.circles[new_markers],
            "bijective transport: external arcs do not match")

    def _resolve_cross(self, markers, tgt_markers):
        """Image arc sets (which may include loop sentinels) are matched by
        containment, so arcs private to either patch need no special
        casing."""
        tgt_circles, corr = self.target
        images = [frozenset(corr[x] for x in oc if x in corr)
                  for oc in self.circles[markers]]
        return _carry_positions(
            lambda tc: [k for k, img in enumerate(images) if img and img <= tc],
            len(images), tgt_circles[tgt_markers],
            "cross-diagram transport: circles do not match")

    def _resolve_saddle(self, markers, c):
        new = _flip(markers, c)
        return new, _cube_edge(self.circles[markers], self.circles[new])

    def _resolve_mid(self, markers, _):
        for k, circle in enumerate(self.circles[markers]):
            if circle <= self.patch_arcs:
                return k
        raise AssertionError("xb-family state has no patch-local circle")


def _saddle_terms(tables: _Transports, key, crossing, pq_rule):
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


# ---------------------------------------------------------------------------
# the patch: its geometry, its two sides and every map built on them
# ---------------------------------------------------------------------------

def _slots(diagram, kind) -> tuple:
    """(a, b, c, patch_arcs, x_range) of the patch in a diagram whose
    crossings are ordered so that the patch's come last, as (c,) b, a,
    validated by ``match_r2``/``match_r3``: ``patch_arcs`` are the arcs of
    the patch-local circle and ``x_range`` the crossings outside the patch."""
    n = diagram.n
    if kind == "R2":
        info = match_r2(diagram, n - 1, n - 2)
        return (n - 1, n - 2, None, frozenset((info["mid"], info["turn"])),
                range(n - 2))
    info = match_r3(diagram, n - 1, n - 2, n - 3)
    return n - 1, n - 2, n - 3, frozenset(info["mids"]), range(n - 3)


def _reorder(diagram: LinkDiagram, order) -> LinkDiagram:
    tuples = [diagram.crossings[i].ends for i in order]
    return diagram_from_tuples(tuples, loops=diagram.loops)


_MATCH = {"R2": (match_r2, "simplify"), "R3": (match_r3, "move")}


class _BuildFailed(str):
    """The message of a memoized build that raised ``AssertionError``.  Only
    the text is kept: the exception's traceback would pin the frames of the
    equivalence whose build failed."""


_MISSING = object()


def _cached(memo, key, build):
    """The entry of ``memo`` under ``key``, made by ``build()`` on first use
    and only read afterwards.  A build that raises ``AssertionError`` is
    stored as its message, and every later use raises an ``AssertionError``
    with that text, as a fresh build would."""
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        try:
            value = build()
        except AssertionError as exc:
            memo[key] = _BuildFailed(exc)
            raise
        memo[key] = value
    elif isinstance(value, _BuildFailed):
        raise AssertionError(str(value))
    return value


def _memoized(build):
    """A ``_Side`` builder memoized in the side's ``memo``: the call itself,
    the builder's name and its arguments, is the key.  The key holds no
    side, so that a side and its memo form no reference cycle and die with
    their patch when it is dropped."""
    @wraps(build)
    def memoized(side, *args):
        return _cached(side.memo, (build.__name__, *args),
                       lambda: build(side, *args))
    return memoized


def _dims(index) -> dict:
    """Dimension per bidegree of the summand that ``index`` names."""
    dims = {}
    for bd, _ in index.values():
        dims[bd] = dims.get(bd, 0) + 1
    return dims


class _Side:
    """One diagram of the move with its patch slots, its one complex
    ``cube`` and its sign transports.  Its retained summand is ``index()``
    and the ``inclusion`` built on it; ``retraction`` and the isomorphism
    read the index alone.  Each builder takes the sign values it reads and
    is memoized in ``memo`` (``_memoized``); the index reads none.  No
    builder reads the ordering rule: both rules list the same generators in
    the same order on the same circles, and only the checks read d
    (``complex``).  ``suffix`` marks the target's maps (in_D, rho_D);
    ``cross`` is the target side and the arc correspondence, for the
    source, whose transports carry signs across the move."""

    def __init__(self, diagram, slots, max_crossings, suffix="", cross=None):
        self.diagram, self.max_crossings = diagram, max_crossings
        self.suffix, self.cross = suffix, cross
        self.a, self.b, self.c, self.patch_arcs, self.x_range = slots
        self.memo = {}

    @cached_property
    def cube(self) -> KhovanovComplex:
        """The complex under the "before" rule, built on first use under
        the crossing guard ``max_crossings``."""
        return build_complex(self.diagram, max_crossings=self.max_crossings)

    @cached_property
    def _after(self) -> KhovanovComplex:
        return after_twin(self.cube)

    def complex(self, order_rule) -> KhovanovComplex:
        """The complex under ``order_rule``: ``cube``, or its "after" twin
        (``complexes.after_twin``), made on first use."""
        if order_rule not in ("before", "after"):
            raise ValueError(f"unknown ordering rule {order_rule!r}")
        return self.cube if order_rule == "before" else self._after

    @cached_property
    def tables(self) -> _Transports:
        """The sign transports out of this side."""
        target = None
        if self.cross is not None:
            side, corr = self.cross
            target = (side.cube.circles, corr)
        return _Transports(self.cube.circles, self.patch_arcs, target)

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

    @_memoized
    def index(self) -> dict:
        """{leading key: (bidegree, row)} of the retained summand: the 'xa'
        keys, each leading its combination r(g), and for R3 the keys whose
        marker at c is negative, in generator order per bidegree.  The two
        key sets are disjoint, so a key alone names its entry."""
        cx = self.cube
        index = {}
        for bd in cx.bidegrees():
            row = 0
            for key in cx.gens[bd]:
                fam = self.family(key)
                if fam == "xa" or fam.endswith("c"):
                    index[key] = (bd, row)
                    row += 1
        return index

    def _term_row(self, cx, bd, key) -> int:
        """Row of ``key``, a term of a retained combination at ``bd``."""
        tbd, row = cx.position(key)
        if tbd != bd:
            raise AssertionError("retained combination mixes bidegrees")
        return row

    @_memoized
    def inclusion(self, partner_mid, partner_sign, pq_rule) -> GradedMap:
        """in: the column of a leading 'xa' key g is the combination
        r(g) = g + attach(S_b(g)), that of a c-negative key the key itself."""
        cx = self.cube
        index = self.index()
        out = GradedMap("in" + self.suffix, _dims(index), cx.census())
        for key, (bd, col) in index.items():
            out.add(bd, cx.position(key)[1], col, 1)
            if self.family(key) != "xa":
                continue
            for t, coeff in _saddle_terms(self.tables, key, self.b, pq_rule):
                partner = self.tables.attach(t, self.a, partner_mid)
                out.add(bd, self._term_row(cx, bd, partner), col,
                        partner_sign * coeff)
        return out

    @_memoized
    def retraction(self, active_mid, rho_b_sign, pq_rule) -> GradedMap:
        cx = self.cube
        index = self.index()
        out = GradedMap("rho" + self.suffix, cx.census(), _dims(index))
        saddles = (self.a,) if self.c is None else (self.a, self.c)
        for bd in cx.bidegrees():
            for col, key in enumerate(cx.gens[bd]):
                fam = self.family(key)
                if fam == "xa" or fam.endswith("c"):
                    out.add(bd, index[key][1], col, 1)
                elif fam == "xb" and self.mid_sign(key) == active_mid:
                    base = self.tables.drop(key, self.b)
                    for at in saddles:
                        for t, coeff in _saddle_terms(self.tables, base, at,
                                                      pq_rule):
                            out.add(bd, index[t][1], col, rho_b_sign * coeff)
                elif fam == "xab" and self.c is not None:
                    markers = list(key[0])
                    markers[self.a] = 1
                    markers[self.c] = -1
                    t = self.tables.bijective(key, markers)
                    out.add(bd, index[t][1], col, 1)
        return out

    @_memoized
    def homotopy(self, partner_mid, active_mid, h_w_sign, h_b_sign,
                 h_x_mod) -> GradedMap:
        cx = self.cube
        dims = cx.census()
        out = GradedMap("h", dims, dims, (-1, 0))
        for bd in cx.bidegrees():
            for col, key in enumerate(cx.gens[bd]):
                fam = self.family(key)
                sx = self.s_x(key) if h_x_mod else 1
                if fam == "xab":
                    t = self.tables.attach(key, self.a, partner_mid)
                    out.add(bd, cx.position(t)[1], col, h_w_sign * sx)
                elif fam == "xb" and self.mid_sign(key) == active_mid:
                    t = self.tables.drop(key, self.b)
                    out.add(bd, cx.position(t)[1], col, h_b_sign * sx)
        return out


class _Whole(_Side):
    """The R2 target, which has no patch left: its retained summand is its
    whole complex, so its index is the complex's own and in_D and rho_D are
    identities.  Neither identity reads a sign field, so each is built once
    and ignores the arguments of the source's in and rho."""

    def __init__(self, diagram, max_crossings):
        super().__init__(diagram, (None,) * 5, max_crossings, "_D")

    @_memoized
    def index(self) -> dict:
        return self.cube.index

    def inclusion(self, *_) -> GradedMap:
        return _cached(self.memo, ("inclusion",), lambda: GradedMap.identity(
            self.cube.census(), "in_D"))

    def retraction(self, *_) -> GradedMap:
        return _cached(self.memo, ("retraction",), lambda: GradedMap.identity(
            self.cube.census(), "rho_D"))


def _invert_signed_permutation(f: GradedMap) -> GradedMap:
    out = GradedMap("isom_inv", f.tgt, f.src)
    for bd, blk in f.items():
        seen_rows = set()
        seen_cols = set()
        for (r, c), v in blk.items():
            if v not in (1, -1) or r in seen_rows or c in seen_cols:
                raise AssertionError("isom is not a signed permutation")
            seen_rows.add(r)
            seen_cols.add(c)
            out.add(bd, c, r, v)
    return out


class _Patch:
    """One R2 or R3 patch, and everything built on it for any number of
    ``MoveEquivalence``s.

    The geometry, which no sign convention changes: the source diagram
    reordered so that the patch crossings come last, in the order (c,) b, a
    that the sign analysis requires, and the diagram after the move, which
    inherits the slot order through ``apply_move``, with its arc correspondence
    ``corr``.  The two sides ``src`` and ``tgt``, each with its slots, its
    complex, built under the crossing guard ``max_crossings``, and its "after"
    twin, its transports and the memo of its maps, each under its builder's
    call (``_memoized``); the R2 target, which has no patch left, is a
    ``_Whole``.  And ``memo``: the isomorphism and its inverse, which read no
    sign field, and every check's verdict, under the check's name and the maps
    it reads (``MoveEquivalence._shared_check``).  Each entry is made on first
    use and only read afterwards; a build that raised ``AssertionError`` is
    kept as its message and raised again (``_cached``).
    """

    def __init__(self, diagram, crossings, kind,
                 max_crossings=DEFAULT_MAX_CROSSINGS):
        if kind not in _MATCH:
            raise PatchMismatchError(
                f"no homotopy machinery for kind {kind!r}")
        match, direction = _MATCH[kind]
        crossings = tuple(crossings)
        match(diagram, *crossings)  # validate before reordering
        n = diagram.n
        outside = [i for i in range(n) if i not in crossings]
        source = _reorder(diagram, outside + list(crossings[::-1]))
        source_slots = _slots(source, kind)
        last = tuple(range(n - 1, n - 1 - len(crossings), -1))  # a, b (, c)
        target, self.corr = apply_move(
            source, MovePatch(kind, direction, crossings=last))
        self.kind, self.memo = kind, {}
        self.tgt = (_Side(target, _slots(target, kind), max_crossings, "_D")
                    if kind == "R3" else _Whole(target, max_crossings))
        self.src = _Side(source, source_slots, max_crossings,
                         cross=(self.tgt, self.corr))

    def isom(self) -> GradedMap:
        """The isomorphism from the source's retained summand to the
        target's: it reads the two indexes and the source's ``cross``
        transport, and no sign field."""
        return _cached(self.memo, ("isom",), self._build_isom)

    def isom_inv(self) -> GradedMap:
        return _cached(self.memo, ("isom_inv",),
                       lambda: _invert_signed_permutation(self.isom()))

    def _target_key_for(self, key):
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
        if self.kind == "R2":
            tgt_markers = markers[:-2]
        elif markers[self.src.c] > 0:
            tgt_markers = markers
        else:
            a, b = self.src.a, self.src.b
            tgt_markers = list(markers)
            tgt_markers[a], tgt_markers[b] = markers[b], markers[a]
            if markers[a] < 0 and markers[b] < 0:
                eps = -1
        return self.src.tables.cross(key, tgt_markers), eps

    def _build_isom(self) -> GradedMap:
        index_src, index_tgt = self.src.index(), self.tgt.index()
        out = GradedMap("isom", _dims(index_src), _dims(index_tgt))
        for key, (bd, col) in index_src.items():
            tgt_key, eps = self._target_key_for(key)
            tbd, row = index_tgt[tgt_key]
            if tbd != bd:
                raise AssertionError(
                    f"isom does not preserve bidegree: {bd} -> {tbd}"
                )
            out.add(bd, row, col, eps)
        return out


# ---------------------------------------------------------------------------
# the move equivalence
# ---------------------------------------------------------------------------

def _chain_gap(f: GradedMap, d_src, d_tgt):
    """First entry where d_tgt . f and f . d_src differ, or None."""
    return d_tgt.compose(f).first_difference(f.compose(d_src))


# The maps each check reads, by their ``MoveEquivalence`` attributes, in
# report order; a check's verdict is memoized under its name and these maps.
_CHECKS = {
    "rho_in_identity": ("rho_src", "in_src"),
    "rho_in_identity_target": ("rho_tgt", "in_tgt"),
    "in_chain_map": ("d_src", "in_src", "rho_src"),
    "rho_chain_map": ("d_src", "in_src", "rho_src"),
    "composite_chain_map": ("d_src", "d_tgt", "in_tgt", "isom", "rho_src"),
    "composite_chain_map_back": ("d_src", "d_tgt", "in_src", "isom_inv",
                                 "rho_tgt"),
    "isom_chain_map": ("d_src", "d_tgt", "in_src", "in_tgt", "isom",
                       "rho_src", "rho_tgt"),
    "isom_invertible": ("isom", "isom_inv"),
    "homotopy_identity": ("d_src", "h", "in_src", "rho_src"),
    "bidegrees": ("in_src", "rho_src", "isom", "h"),
    "support_discipline": ("rho_src", "h"),
    "decomposition": ("d_src", "in_src", "rho_src"),
}
# Identities that no report lists: premises from which the composite checks
# follow (``MoveEquivalence._check_composite_chain_map``), memoized the same
# way.  in_D and rho_D are chain maps for d_R' = rho_D d' in_D.
_PREMISES = {
    "in_chain_map_target": ("d_tgt", "in_tgt", "rho_tgt"),
    "rho_chain_map_target": ("d_tgt", "in_tgt", "rho_tgt"),
}


class MoveEquivalence:
    """Everything the verification suite needs for one R2 or R3 patch under
    one sign convention.

    The maps are the patch's (``_Patch``): each builder is called with the
    convention's values of what it reads, so a candidate that agrees with
    an earlier one on them reads the same map, and a check whose maps are
    the same reads the same verdict.  Each side's retained summand is its
    index ``index_src``/``index_tgt`` ({leading key: (bidegree, row)}) and
    its inclusion ``in_src``/``in_tgt``; ``src_cx`` and ``tgt_cx`` are the
    two complexes under the convention's ordering rule, and only the checks
    read their d.  No map reads the rule, so the candidates of both rules
    share every map, and a check that reads no d one verdict.

    ``composite_chain_map`` and ``composite_chain_map_back`` pass without
    composing their composites when the identities that imply them hold
    (the module docstring has the two proofs), and the decomposition check
    skips its steps 1 and 4 when their premises are memoized as passing.
    Each verdict is the one the whole-cube products would give, so it is
    shared under the check's own maps, whichever way it was reached.
    """

    def __init__(self, patch: _Patch, convention=DEFAULT_CONVENTION):
        c = self.conv = convention
        self.patch, self.kind = patch, patch.kind
        self.src, self.tgt = src, tgt = patch.src, patch.tgt
        self.src_cx = src.complex(c.order_rule)
        self.tgt_cx = tgt.complex(c.order_rule)
        # the complexes' own d: checks only read them
        self.d_src, self.d_tgt = self.src_cx.diffs, self.tgt_cx.diffs
        self.index_src = src.index()
        self.in_src = src.inclusion(c.partner_mid, c.partner_sign, c.pq_rule)
        self.rho_src = src.retraction(c.active_mid, c.rho_b_sign, c.pq_rule)
        self.h = src.homotopy(c.partner_mid, c.active_mid, c.h_w_sign,
                              c.h_b_sign, c.h_x_mod)
        self.index_tgt = tgt.index()
        self.in_tgt = tgt.inclusion(c.partner_mid, c.partner_sign, c.pq_rule)
        self.rho_tgt = tgt.retraction(c.active_mid, c.rho_b_sign, c.pq_rule)
        self.isom = patch.isom()
        self.isom_inv = patch.isom_inv()

    # -- verification ---------------------------------------------------------

    def composite_forward(self) -> GradedMap:
        """in_D . isom . rho : C(D) -> C(D')."""
        return self.in_tgt.compose(self.isom.compose(self.rho_src), "forward")

    def composite_backward(self) -> GradedMap:
        """in . isom_inv . rho_D : C(D') -> C(D)."""
        return self.in_src.compose(self.isom_inv.compose(self.rho_tgt), "backward")

    # Products that more than one check reads, composed once per
    # equivalence and only read afterwards.

    @cached_property
    def _d_in(self) -> GradedMap:
        return self.d_src.compose(self.in_src)

    @cached_property
    def _d_r(self) -> GradedMap:
        """d_R = rho . d . in, the retained summand's differential."""
        return self.rho_src.compose(self._d_in)

    @cached_property
    def _d_in_tgt(self) -> GradedMap:
        return self.d_tgt.compose(self.in_tgt)

    @cached_property
    def _d_r_tgt(self) -> GradedMap:
        """d_R' = rho_D . d' . in_D, the target's retained differential."""
        return self.rho_tgt.compose(self._d_in_tgt)

    @cached_property
    def _in_rho(self) -> GradedMap:
        """in . rho, the projection onto the retained summand."""
        return self.in_src.compose(self.rho_src)

    def _verdict_key(self, name) -> tuple:
        """The memo key of check or premise ``name``'s verdict: the name and
        the maps it reads (``_CHECKS``, ``_PREMISES``).  The patch's sides
        hold each map as long as the patch holds its verdicts, so a map's id
        stands for it."""
        maps = _CHECKS[name] if name in _CHECKS else _PREMISES[name]
        return (name, *(id(getattr(self, m)) for m in maps))

    def _shared_check(self, name):
        """The verdict of check or premise ``name`` (None, or its first
        violation) from the patch's memo; its body ``_check_<name>``
        computes it on first use."""
        return _cached(self.patch.memo, self._verdict_key(name),
                       getattr(self, "_check_" + name))

    def _hold(self, *names) -> bool:
        """Whether every one of the checks ``names`` holds, evaluated in
        order through ``_shared_check`` up to the first that fails."""
        return all(self._shared_check(name) is None for name in names)

    def _stored_pass(self, name) -> bool:
        """Whether the patch's memo holds a passing verdict for check
        ``name``; nothing is computed."""
        return self.patch.memo.get(self._verdict_key(name), False) is None

    def _violations(self, include_decomposition=True):
        """(name, first violation or None) for each check, in report order.
        Lazy, so that a caller can stop at the first failing identity."""
        for name in _CHECKS:
            if name != "decomposition" or include_decomposition:
                yield name, self._shared_check(name)

    def checks(self, include_decomposition=True) -> list[dict]:
        """Every check, passing or not, with the first violation of each
        that fails."""
        out = []
        for name, violation in self._violations(include_decomposition):
            entry = {"name": name, "pass": violation is None}
            if violation is not None:
                entry["first_violation"] = violation
            out.append(entry)
        return out

    # -- the checks' bodies, one per name in ``_CHECKS`` and ``_PREMISES``;
    # each returns None or its first violation

    def _check_rho_in_identity(self):
        """rho . in = id on the retained summand."""
        return self.rho_src.compose(self.in_src).first_identity_difference()

    def _check_rho_in_identity_target(self):
        return self.rho_tgt.compose(self.in_tgt).first_identity_difference()

    def _check_in_chain_map(self):
        """d . in = in . d_R."""
        return self._d_in.first_difference(self.in_src.compose(self._d_r))

    def _check_rho_chain_map(self):
        """rho . d = d_R . rho."""
        return self.rho_src.compose(self.d_src).first_difference(
            self._d_r.compose(self.rho_src))

    def _check_composite_chain_map(self):
        """d' F = F d for F = in_D . isom . rho.

        When rho and isom are chain maps and d' in_D = in_D d_R', this
        holds without composing F:

            d' F = d' in_D isom rho = in_D d_R' isom rho
                 = in_D isom d_R rho = in_D isom rho d = F d.

        Only when a premise fails are F and both sides composed; they alone
        name the first violation."""
        if self._hold("rho_chain_map", "isom_chain_map", "in_chain_map_target"):
            return None
        return _chain_gap(self.composite_forward(), self.d_src, self.d_tgt)

    def _check_composite_chain_map_back(self):
        """d B = B d' for B = in . isom_inv . rho_D.

        When in is a chain map, isom intertwines d_R and d_R' with
        isom_inv as its two-sided inverse (``isom_invertible``), and
        rho_D d' = d_R' rho_D:
        isom_inv d_R' = isom_inv d_R' isom isom_inv
        = isom_inv isom d_R isom_inv = d_R isom_inv, so

            d B = d in isom_inv rho_D = in d_R isom_inv rho_D
                = in isom_inv d_R' rho_D = in isom_inv rho_D d' = B d'.

        Only when a premise fails are B and both sides composed."""
        if self._hold("in_chain_map", "isom_chain_map", "isom_invertible",
                      "rho_chain_map_target"):
            return None
        return _chain_gap(self.composite_backward(), self.d_tgt, self.d_src)

    def _check_isom_chain_map(self):
        """isom . d_R = d_R' . isom."""
        return self.isom.compose(self._d_r).first_difference(
            self._d_r_tgt.compose(self.isom))

    def _check_isom_invertible(self):
        """isom_inv . isom = id and isom . isom_inv = id, so that an isom
        that is one-to-one but not onto fails; the first violation of the
        left product first."""
        return (self.isom_inv.compose(self.isom).first_identity_difference()
                or self.isom.compose(self.isom_inv).first_identity_difference())

    def _check_homotopy_identity(self):
        """d h + h d = id - in . rho."""
        lhs = self.d_src.compose(self.h).plus(self.h.compose(self.d_src))
        return lhs.first_difference(GradedMap.identity(lhs.src).minus(
            self._in_rho, name="id-in.rho"))

    def _check_in_chain_map_target(self):
        """d' . in_D = in_D . d_R'."""
        return self._d_in_tgt.first_difference(
            self.in_tgt.compose(self._d_r_tgt))

    def _check_rho_chain_map_target(self):
        """rho_D . d' = d_R' . rho_D."""
        return self.rho_tgt.compose(self.d_tgt).first_difference(
            self._d_r_tgt.compose(self.rho_tgt))

    def _check_bidegrees(self):
        for m, want in ((self.in_src, (0, 0)), (self.rho_src, (0, 0)),
                        (self.isom, (0, 0)), (self.h, (-1, 0))):
            if m.shift != want:
                return {"map": m.name, "shift": m.shift}
        return None

    def _check_support_discipline(self):
        for bd in self.src_cx.bidegrees():
            keys = self.src_cx.gens[bd]
            rho_blk = self.rho_src.block(bd)
            h_blk = self.h.block(bd)
            rho_cols = {c for (_, c) in rho_blk}
            h_cols = {c for (_, c) in h_blk}
            for col, key in enumerate(keys):
                fam = self.src.family(key)
                rho_ok = (
                    fam == "xa"
                    or fam.endswith("c")
                    or (fam == "xb" and self.src.mid_sign(key) == self.conv.active_mid)
                    or (fam == "xab" and self.kind == "R3")
                )
                h_ok = fam == "xab" or (
                    fam == "xb" and self.src.mid_sign(key) == self.conv.active_mid
                )
                if col in rho_cols and not rho_ok:
                    return {"map": "rho", "family": fam, "i": bd[0], "j": bd[1]}
                if col in h_cols and not h_ok:
                    return {"map": "h", "family": fam, "i": bd[0], "j": bd[1]}
        return None

    def _complement_rows(self, bd) -> list:
        """Rows at ``bd`` of the keys that the index does not name."""
        index = self.index_src
        return [row for row, key in enumerate(self.src_cx.gens[bd])
                if key not in index]

    def _in_contr(self) -> GradedMap:
        """The complement as a map: at each bidegree, column k is
        e - in rho e for the k-th key e that the index does not name, read
        off the blocks of ``_in_rho``."""
        cx = self.src_cx
        rows = {bd: self._complement_rows(bd) for bd in cx.bidegrees()}
        out = GradedMap("in_contr", {bd: len(r) for bd, r in rows.items() if r},
                        cx.census())
        for bd, contr in rows.items():
            by_col = {}
            for (r, c), v in self._in_rho.block(bd).items():
                by_col.setdefault(c, []).append((r, v))
            for k, row in enumerate(contr):
                out.add(bd, row, k, 1)
                for r, v in by_col.get(row, ()):
                    out.add(bd, r, k, -v)
        return out

    def _check_decomposition(self):
        """Certify C = im(in) + ker(rho) with a contractible ker(rho) by a
        sparse certificate; None, or the first violation.

        Proof that the certificate suffices, given the identity checks that
        ``checks()`` runs with it (its ``pass`` requires all of them):

        - rho.in = id (``rho_in_identity``), so C = im(in) + ker(rho) is a
          direct sum over Z: x = in rho x + (x - in rho x).
        - in and rho are chain maps (``in_chain_map``, ``rho_chain_map``),
          so pi = id - in.rho is a chain map with pi.pi = pi, and
          ker(rho) = im(pi) is a subcomplex.
        - d h + h d = pi (``homotopy_identity``), so pi.h maps into ker(rho)
          and d (pi h) + (pi h) d = pi (d h + h d) = pi, which is the
          identity on ker(rho).  Hence ker(rho) is contractible, so acyclic.

        What is left is that the complement, pi(e_k) for every key k that
        the index does not name, is a Z-basis of ker(rho):

        1. rho kills every complement vector.  This follows from
           ``rho_in_identity``: rho(e - in rho e) = rho e - (rho in) rho e
           = 0;
        2. per bidegree, #retained + #complement = dim;
        3. pi(e_k) + in(rho e_k) = e_k, so column operations by im(in) turn
           the basis [in | pi(e_k)] into [in | e_k], whose determinant is,
           up to the sign of a row permutation, that of the square block of
           in on the rows of the retained keys.  That block is read off as a
           signed permutation (the identity on every patch seen so far), and
           only otherwise goes through ``homology._bareiss``.  The reported
           ``det`` is that of the whole basis, sign included;
        4. rho.d kills every complement vector, so the complement spans a
           subcomplex.  This follows from ``rho_chain_map`` and step 1:
           rho d c = d_R rho c = 0.

        Steps 2 and 3 read the complement's rows, the keys the index does
        not name, and no vector.  Steps 1 and 4 are skipped when the patch's
        memo holds a passing verdict of their premise, as it does after the
        identity checks of ``checks()``.  They are computed, on the
        complement as a map (``_in_contr``), when the premise failed, so
        that the report names the step's own witness, or when it has no
        memoized verdict (a direct call).

        The dense recomputation -- a determinant over each whole bidegree,
        rational coordinates of d on the complement and the homology of the
        complement -- is the test oracle ``dense_decomposition`` in
        tests/helpers.py.
        """
        in_c = None
        if not self._stored_pass("rho_in_identity"):
            in_c = self._in_contr()
            rv = self.rho_src.compose(in_c).first_violation()
            if rv is not None:
                return {"reason": "complement not in ker(rho)", **rv}
        for bd in self.src_cx.bidegrees():
            dim = self.src_cx.dim(bd)
            contr_rows = self._complement_rows(bd)
            have = self.in_src.src.get(bd, 0) + len(contr_rows)
            if have != dim:
                return {"reason": "dimension mismatch", "i": bd[0], "j": bd[1],
                        "have": have, "want": dim}
            det = self._basis_det(bd, contr_rows)
            if det not in (1, -1):
                return {"reason": "basis not unimodular", "i": bd[0],
                        "j": bd[1], "det": det}
        if not self._stored_pass("rho_chain_map"):
            if in_c is None:
                in_c = self._in_contr()
            if self.rho_src.compose(self.d_src.compose(in_c)).first_violation():
                return {"reason": "complement is not d-invariant"}
        return None

    def _basis_det(self, bd, contr_rows) -> int:
        """Determinant of [in | complement] at ``bd``, by step 3 of the proof
        in ``_check_decomposition``: the sign of the row order (retained
        rows, then ``contr_rows``, the complement's) times the determinant
        of in's block on the retained rows."""
        skip = set(contr_rows)
        retained_rows = [r for r in range(self.src_cx.dim(bd)) if r not in skip]
        block_row = {r: k for k, r in enumerate(retained_rows)}
        entries = [(block_row[r], c, v)
                   for (r, c), v in self.in_src.block(bd).items()
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
        rank, det = _bareiss(dense)
        return sign * det if rank == n else 0

    def report(self, patch=None) -> dict:
        checks = self.checks()
        return {
            "move": self.kind,
            "patch": list(patch) if patch is not None else None,
            "convention": self.conv.name,
            "checks": checks,
            "pass": all(c["pass"] for c in checks),
        }


def default_candidates() -> list[SignConvention]:
    """The searched convention space: every global sign and family-selection
    toggle, both ordering rules, both saddle tables."""
    fields = ("order_rule", "partner_mid", "active_mid", "partner_sign",
              "rho_b_sign", "h_w_sign", "h_b_sign", "h_x_mod", "pq_rule")
    values = product(("before", "after"), *[(1, -1)] * 6, (True, False),
                     ("standard", "negated"))
    return [SignConvention(name=f"cand-{k}", **dict(zip(fields, v)))
            for k, v in enumerate(values)]


def convention_search(patch: _Patch, candidates=None) -> list[SignConvention]:
    """Conventions under which every identity holds on ``patch``.

    Each candidate gets its own ``MoveEquivalence`` on the patch, whose
    identities are checked in report order up to the first that fails;
    what the candidates build, they share through the patch.  An empty
    result is a finding (reported by the caller), not an error.
    """
    if candidates is None:
        candidates = default_candidates()
    passing = []
    for conv in candidates:
        try:
            eq = MoveEquivalence(patch, conv)
            holds = all(violation is None for _, violation in
                        eq._violations(include_decomposition=False))
        except AssertionError:
            continue
        if holds:
            passing.append(conv)
    return passing
