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

A retained summand is two things: its index {(markers, tau): (bidegree,
first row)}, which places each run of leading states g and, for R3, of
c-negative states, in generator order per bidegree, and the inclusion
``in``, whose column at each of those rows is r(g) (or the state itself).
The index depends on the runs' families alone; rho and the isomorphism
read it, and the decomposition certificate reads the same classification
of the runs.  The R2 target's summand is its whole complex: its index is
the complex's own placement of its runs and its in_D and rho_D are
identities.

Sign and labelling conventions are collected in ``SignConvention``; the
frozen default is certified empirically by ``convention_search``, which
reruns the identities over a finite candidate space.  Everything the candidates
build lives in one ``_Patch`` per patch: the geometry, which no sign field
changes, and one ``_Side`` per diagram of the move, with its one built complex
(with the circles of every marker state, ``KhovanovComplex.circles``) and its
"after" twin, its sign transports (``transports.Transports``) and its
retained index.  A map is built by a ``_Side`` method that takes the sign
values it reads as its arguments, and the side memoizes it under that call, so
each map is built once per distinct value of what it reads (``_READS``).  A
check's verdict is memoized in the patch under the check's name and the values
of the fields its maps read (``_Patch.verdict_fields``), which stand for the
maps, since every map lives as long as the patch.  Each candidate is still its
own ``MoveEquivalence``, which builds a map only when a check reads it.  The
search walks the checks in report order over the candidates still alive and
evaluates each check once per distinct value of what its maps read, so a
candidate leaves at its first failing identity; a ``verify-move`` report builds
every map and lists every check.

A generator is an enhanced state (markers, signs), and nothing here lists
one.  Each map is (patch map) tensored with the identity: the patch
decides which circle is inserted, dropped or re-signed, and every other
circle's sign is carried along, so the carrying depends on the marker
state alone.  ``transports.py`` resolves each transport and the patch
saddle once per marker state into sign positions, and each map is written
a run of generators (one marker state, one tau) at a time from the cube's
rank tables (``KhovanovComplex``), with runs visited in generator order;
the per-generator builders are the test oracle in tests/helpers.py.

in, rho, h and the isomorphism are ``GradedMap``s, the type of the
complexes' differentials, and the checks compose them with ``cx.diffs``
itself; every check is an exact integer matrix identity, reported by
``GradedMap.first_difference`` at its first violating entry.  rho in = id
and ``isom_invertible`` compare their products with ``GradedMap.identity``
on the product's source; ``isom_invertible`` always composes both of its
products, which are signed permutations when it holds.  A product
that several checks read (d.in, d_R = rho.d.in, d'.in_D,
d_R' = rho_D.d'.in_D, in.rho) is composed once per distinct value of the
fields its factors read, and kept in the patch like a verdict.  The homotopy
identity d h + h d = id - in rho, the premise from which the chain-map checks
are read off, is summed block by block with in.rho and the identity's diagonal
(``MoveEquivalence._check_homotopy_identity``): no product of d and h, and no
sum or difference, is formed as a map.

Four checks are read off the identities that imply them, by the same
chain-map algebra as the Gaussian-elimination lemma (Bar-Natan, arXiv
math/0606318, Lemma 4.2), and form their whole-cube products only when a
premise fails; those products alone name the first violation, so every
report is the one the products would give.  Write d, d' for the
differentials of the diagrams before and after the move.  d d = 0 is a
property of every complex ``build_complex`` makes and of its "after" twin,
not a check of the move (the tests hold both to
``complexes.verify_d_squared``).

- ``in_chain_map`` and ``rho_chain_map`` hold when ``rho_in_identity``
  and ``homotopy_identity`` do, with d d = 0 (each check's docstring).
- ``composite_chain_map``, for F = in_D isom rho, holds when rho and isom
  are chain maps and d' in_D = in_D d_R':
  d' F = in_D d_R' isom rho = in_D isom d_R rho = in_D isom rho d = F d.
- ``composite_chain_map_back``, for B = in isom_inv rho_D, holds when in
  and isom are chain maps, isom_inv is isom's inverse on both sides
  (``isom_invertible``) and rho_D d' = d_R' rho_D:
  then isom_inv d_R' = d_R isom_inv, and
  d B = in d_R isom_inv rho_D = in isom_inv d_R' rho_D = B d'.
- ``decomposition``: C = im(in) + ker(rho) with ker(rho) contractible is
  not recomputed densely.  The homotopy identity d h + h d = id - in rho
  already contracts ker(rho), so ``MoveEquivalence._check_decomposition``
  only certifies, sparsely, that the complement, the image of id - in rho
  on the runs the index does not name, is a Z-basis of ker(rho); its
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
from operator import attrgetter

from .complexes import GradedMap, KhovanovComplex, after_twin, build_complex
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
from .transports import Transports, carried, pq_sign

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

# The sign fields that the maps in, rho and h read, in the order their
# builders take them (``_Side.inclusion``, ``retraction`` and
# ``homotopy``).  d reads the ordering rule alone (``_Side.complex``), and
# the isomorphism and the R2 target's in_D and rho_D read none
# (``_Patch.isom``, ``_Whole``).
_READS = {
    "in": ("partner_mid", "partner_sign", "pq_rule"),
    "rho": ("active_mid", "rho_b_sign", "pq_rule"),
    "h": ("partner_mid", "active_mid", "h_w_sign", "h_b_sign", "h_x_mod"),
}
# Each map's fields as a getter of their values from a convention.
_ARGS = {m: attrgetter(*fields) for m, fields in _READS.items()}


def _ordering_rule(rule) -> str:
    if rule not in ("before", "after"):
        raise ValueError(f"unknown ordering rule {rule!r}")
    return rule


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


class _Side:
    """One diagram of the move with its patch slots, its one complex
    ``cube`` and its sign transports ``tables``.  Its retained summand is
    ``index()``, which places its runs, and the ``inclusion`` built on it;
    ``retraction`` and the isomorphism read it.  Each builder takes the
    sign values it reads and is memoized in ``memo`` (``_memoized``); the
    index reads none.  No builder reads the ordering rule: both rules place
    the same generators in the same order on the same circles, and only the
    checks read d (``complex``).  ``suffix`` marks the target's maps (in_D,
    rho_D); ``cross`` is the target side and the arc correspondence, for
    the source, whose transports carry signs across the move; ``store`` is
    the patch's edge-table store, which both sides' builds share
    (``build_complex``).

    A builder walks ``classes`` in generator order, so it fails where a
    build generator by generator would, and writes each run's columns by
    rank arithmetic: (m, s) is at row base[m][tau] + rank[s] of the cube,
    and at its run's first retained row plus rank[s] of the summand.  A
    saddle's targets are the cube's ``edge_tables``.  No generator is
    listed: a run stands for its generators everywhere."""

    def __init__(self, diagram, slots, max_crossings, suffix="", cross=None,
                 store=None):
        self.diagram, self.max_crossings = diagram, max_crossings
        self.suffix, self.cross, self.store = suffix, cross, store
        self.a, self.b, self.c, self.patch_arcs, self.x_range = slots
        self.memo = {}

    @cached_property
    def cube(self) -> KhovanovComplex:
        """The complex under the "before" rule, built on first use under
        the crossing guard ``max_crossings``."""
        return build_complex(self.diagram, self.max_crossings, self.store)

    @cached_property
    def _after(self) -> KhovanovComplex:
        return after_twin(self.cube)

    def complex(self, order_rule) -> KhovanovComplex:
        """The complex under ``order_rule``: ``cube``, or its "after" twin
        (``complexes.after_twin``), made on first use."""
        return (self.cube if _ordering_rule(order_rule) == "before"
                else self._after)

    @cached_property
    def tables(self) -> Transports:
        """The sign transports out of this side."""
        target = None
        if self.cross is not None:
            side, corr = self.cross
            target = (side.cube.circles, corr)
        return Transports(self.cube, self.patch_arcs, target)

    def family(self, markers):
        """Patch-marker pattern of a marker state: 'x', 'xa', 'xb', 'xab'
        with a trailing 'c' when the marker at c is negative (R3 only)."""
        tag = ""
        if markers[self.a] < 0:
            tag += "a"
        if markers[self.b] < 0:
            tag += "b"
        name = "x" + tag
        if self.c is not None and markers[self.c] < 0:
            name += "c"
        return name

    @cached_property
    def classes(self) -> list:
        """(family, bidegree, markers, tau, sign run, first row, first
        retained row or None) of each run of the cube, in generator order
        (``KhovanovComplex.cells``).  The retained runs are the 'xa' ones
        and, for R3, those negative at c; a retained run's keys follow the
        retained runs before it at its bidegree, in rank order."""
        out, rows, families = [], {}, {}
        for bd, markers, tau, run, row0 in self.cube.cells():
            if markers not in families:
                families[markers] = self.family(markers)
            fam, ret0 = families[markers], None
            if fam == "xa" or fam.endswith("c"):
                ret0 = rows.get(bd, 0)
                rows[bd] = ret0 + len(run)
            out.append((fam, bd, markers, tau, run, row0, ret0))
        return out

    def dims(self) -> dict:
        """Dimension per bidegree of the retained summand."""
        dims = {}
        for _, bd, _, _, run, _, ret0 in self.classes:
            if ret0 is not None:
                dims[bd] = dims.get(bd, 0) + len(run)
        return dims

    def _identity(self, swap) -> dict:
        """Blocks of 1 at (row, retained row) of each retained key, or at
        (retained row, row) under ``swap``: in's and rho's on them."""
        out = {}
        for _, bd, _, _, run, row0, ret0 in self.classes:
            if ret0 is not None:
                span = range(row0, row0 + len(run)), range(ret0, ret0 + len(run))
                out.setdefault(bd, {}).update(dict.fromkeys(
                    zip(*span[::-1] if swap else span), 1))
        return out

    def _active(self, markers, run, active_mid) -> list:
        """Positions in ``run`` of the sign tuples whose patch circle
        carries ``active_mid``."""
        mid = self.tables.mid(markers)
        return [k for k, signs in enumerate(run) if signs[mid] == active_mid]

    @_memoized
    def index(self) -> dict:
        """{(markers, tau): (bidegree, first retained row)} of each run of
        the retained summand: the 'xa' runs, whose keys each lead their
        combination r(g), and for R3 the runs whose marker at c is
        negative, in generator order per bidegree.  The two families are
        disjoint, so a run's markers and tau name its entry."""
        return {(markers, tau): (bd, ret0)
                for _, bd, markers, tau, _, _, ret0 in self.classes
                if ret0 is not None}

    def _term_base(self, bd, markers, tau) -> int:
        """First row of the run (markers, tau) of the terms of a retained
        combination at ``bd``."""
        tbd, row0 = self.cube.entry(markers, tau)
        if tbd != bd:
            raise AssertionError("retained combination mixes bidegrees")
        return row0

    @_memoized
    def inclusion(self, partner_mid, partner_sign, pq_rule) -> GradedMap:
        """in: the column of a leading 'xa' key g is the combination
        r(g) = g + attach(S_b(g)), that of a c-negative key the key itself.
        S_b takes the run (m, tau) to the run (m', tau - 1), and attach that
        to the run (m'', tau - 1 + partner_mid)."""
        cx, tables = self.cube, self.tables
        blocks = self._identity(False)
        for fam, bd, markers, tau, run, _, col0 in self.classes:
            if fam != "xa":
                continue
            mid, edge = tables.saddle(markers, self.b)
            terms = cx.edge_tables[edge][tau]
            coeff = partner_sign * pq_sign(edge, pq_rule)
            if not any(terms):
                continue
            new, positions = tables.attach(mid, self.a)
            partners = carried(cx.rank, cx.runs[len(cx.circles[mid])][tau - 1],
                                positions, (partner_mid,))
            term0 = self._term_base(bd, new, tau - 1 + partner_mid)
            block = blocks[bd]
            for k, targets in enumerate(terms):
                for t in targets:
                    block[(term0 + partners[t], col0 + k)] = coeff
        return GradedMap("in" + self.suffix, self.dims(), cx.dims,
                         blocks=blocks)

    @_memoized
    def retraction(self, active_mid, rho_b_sign, pq_rule) -> GradedMap:
        """rho: a retained key goes to its own row; an 'xb' key whose patch
        circle carries ``active_mid`` to rho_b_sign times the saddles at a
        (and for R3 at c) of the key with that circle dropped; for R3 an
        'xab' key to the key of its markers with a positive and c negative;
        every other key to zero."""
        cx, tables, index = self.cube, self.tables, self.index()
        saddles = (self.a,) if self.c is None else (self.a, self.c)
        blocks = self._identity(True)
        for fam, bd, markers, tau, run, row0, _ in self.classes:
            if fam == "xab" and self.c is not None:
                new = list(markers)
                new[self.a], new[self.c] = 1, -1
                positions = tables.bijective(markers, new)
                ret0 = index[(tuple(new), tau)][1]
                blocks.setdefault(bd, {}).update(
                    ((ret0 + t, row0 + k), 1) for k, t in
                    enumerate(carried(cx.rank, run, positions)))
            active = self._active(markers, run, active_mid) \
                if fam == "xb" else ()
            if not active:
                continue
            base, positions = tables.drop(markers, self.b)
            dropped, tau = carried(cx.rank, run, positions), tau - active_mid
            for at in saddles:
                new, edge = tables.saddle(base, at)
                terms = cx.edge_tables[edge][tau]
                coeff = rho_b_sign * pq_sign(edge, pq_rule)
                if not any(terms[dropped[k]] for k in active):
                    continue
                ret0 = index[(new, tau - 1)][1]
                block = blocks.setdefault(bd, {})
                for k in active:
                    for t in terms[dropped[k]]:
                        block[(ret0 + t, row0 + k)] = coeff
        return GradedMap("rho" + self.suffix, cx.dims, self.dims(),
                         blocks=dict(sorted(blocks.items())))

    @_memoized
    def homotopy(self, partner_mid, active_mid, h_w_sign, h_b_sign,
                 h_x_mod) -> GradedMap:
        """h: an 'xab' key goes to h_w_sign s_x times the key with the patch
        circle attached at a, carrying ``partner_mid``; an 'xb' key whose
        patch circle carries ``active_mid`` to h_b_sign s_x times the key
        with it dropped at b; every other key to zero.  s_x is
        (-1)^(negative markers outside the patch) under ``h_x_mod``, else
        1."""
        cx, tables, blocks = self.cube, self.tables, {}
        for fam, bd, markers, tau, run, row0, _ in self.classes:
            if fam == "xab":
                new, positions = tables.attach(markers, self.a)
                ks, value, tail = range(len(run)), h_w_sign, (partner_mid,)
                base0 = cx.base[new][tau + partner_mid]
            elif fam == "xb":
                ks = self._active(markers, run, active_mid)
                if not ks:
                    continue
                new, positions = tables.drop(markers, self.b)
                value, tail, base0 = h_b_sign, (), cx.base[new][tau - active_mid]
            else:
                continue
            if h_x_mod and markers[:len(self.x_range)].count(-1) % 2:
                value = -value
            targets = carried(cx.rank, run, positions, tail)
            blocks.setdefault(bd, {}).update(dict.fromkeys(
                [(base0 + targets[k], row0 + k) for k in ks], value))
        return GradedMap("h", cx.dims, cx.dims, (-1, 0), blocks=blocks)


class _Whole(_Side):
    """The R2 target, which has no patch left: its retained summand is its
    whole complex, so its index is the complex's own placement of its runs
    and in_D and rho_D are identities.  Neither identity reads a sign
    field, so each is built once and ignores the arguments of the source's
    in and rho."""

    def __init__(self, diagram, max_crossings, store=None):
        super().__init__(diagram, (None,) * 5, max_crossings, "_D",
                         store=store)

    def index(self) -> dict:
        """{(markers, tau): (bidegree, first row)} of every run of the
        cube, in generator order (``KhovanovComplex.cells``)."""
        return {(markers, tau): (bd, row0)
                for bd, markers, tau, _, row0 in self.cube.cells()}

    def dims(self) -> dict:
        return self.cube.dims

    def inclusion(self, *_) -> GradedMap:
        return _cached(self.memo, ("inclusion",), lambda: GradedMap.identity(
            self.cube.dims, "in_D"))

    def retraction(self, *_) -> GradedMap:
        return _cached(self.memo, ("retraction",), lambda: GradedMap.identity(
            self.cube.dims, "rho_D"))


def _invert_signed_permutation(f: GradedMap) -> GradedMap:
    """The inverse of the signed permutation ``f``: each block transposed."""
    blocks = {}
    for bd, blk in f.items():
        if (len({r for r, _ in blk}) != len(blk)
                or len({c for _, c in blk}) != len(blk)
                or any(v not in (1, -1) for v in blk.values())):
            raise AssertionError("isom is not a signed permutation")
        if blk:
            blocks[bd] = {(c, r): v for (r, c), v in blk.items()}
    return GradedMap("isom_inv", f.tgt, f.src, blocks=blocks)


# The maps each check reads, by their ``MoveEquivalence`` attributes, in
# report order; a check's verdict is memoized under its name and the
# values of the sign fields these maps read (``_verdict_fields``).
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
# Products that several checks read, by the maps they are composed of;
# each is kept in the patch's memo like a verdict
# (``MoveEquivalence._product``).
_PRODUCTS = {
    "_d_in": ("d_src", "in_src"),
    "_d_r": ("d_src", "in_src", "rho_src"),
    "_d_in_tgt": ("d_tgt", "in_tgt"),
    "_d_r_tgt": ("d_tgt", "in_tgt", "rho_tgt"),
    "_in_rho": ("in_src", "rho_src"),
}
# The premises of the two chain-map checks, which ``checks()`` evaluates
# before the rest (``MoveEquivalence._chain_maps_follow``).
_CHAIN_MAP_PREMISES = ("rho_in_identity", "homotopy_identity")

# Both complexes and every map, in the order a report builds them
# (``MoveEquivalence.build``).
_BUILD_ORDER = ("src_cx", "tgt_cx", "in_src", "rho_src", "h", "in_tgt",
                "rho_tgt", "isom", "isom_inv")


def _no_fields(conv) -> tuple:
    return ()


def _verdict_fields(whole_target) -> dict:
    """{check, premise or product: the function that takes a convention to
    the values of the sign fields that its maps read}, the R2 target's in_D
    and rho_D reading none when ``whole_target``."""
    reads = {"d_src": ("order_rule",), "d_tgt": ("order_rule",),
             "in_src": _READS["in"], "rho_src": _READS["rho"],
             "h": _READS["h"], "isom": (), "isom_inv": (),
             "in_tgt": () if whole_target else _READS["in"],
             "rho_tgt": () if whole_target else _READS["rho"]}
    out = {}
    for name, maps in {**_CHECKS, **_PREMISES, **_PRODUCTS}.items():
        fields = sorted({f for m in maps for f in reads[m]})
        out[name] = attrgetter(*fields) if fields else _no_fields
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
    ``_Whole``.  The two builds share one edge-table store, which lives as
    long as the patch (``build_complex``).  And ``memo``: the isomorphism
    and its inverse, which read no sign field, and every check's verdict,
    under the check's name and the values of the fields its maps read
    (``MoveEquivalence._shared_check``), which ``verdict_fields`` gives; on
    an R2 patch the target's maps read none.  Each entry is made on first
    use and only read afterwards; a build that raised ``AssertionError`` is
    kept as its message and raised again (``_cached``).
    """

    verdict_fields = _verdict_fields(whole_target=False)

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
        self.kind, self.memo, store = kind, {}, {}
        if kind == "R2":
            self.verdict_fields = _verdict_fields(whole_target=True)
        self.tgt = (_Side(target, _slots(target, kind), max_crossings, "_D",
                          store=store)
                    if kind == "R3" else _Whole(target, max_crossings, store))
        self.src = _Side(source, source_slots, max_crossings,
                         cross=(self.tgt, self.corr), store=store)

    def isom(self) -> GradedMap:
        """The isomorphism from the source's retained summand to the
        target's: it reads the two indexes and the source's ``cross``
        transport, and no sign field."""
        return _cached(self.memo, ("isom",), self._build_isom)

    def isom_inv(self) -> GradedMap:
        return _cached(self.memo, ("isom_inv",),
                       lambda: _invert_signed_permutation(self.isom()))

    def _target_markers(self, markers):
        """Markers in the target, and coefficient, of the leading keys of
        the source's marker state ``markers``.

        R2 drops the bigon's two markers.  For R3, combinations (marker at c
        positive) keep their slot markers; c-negative states swap the
        markers at the slots of a and b (the isotopy of the c-smoothed
        diagrams exchanges which crossing plays which role).  The swap
        conjugates the ordering signs, which costs -1 exactly on states with
        negative markers at both a and b.
        """
        if self.kind == "R2":
            return markers[:-2], 1
        if markers[self.src.c] > 0:
            return markers, 1
        a, b = self.src.a, self.src.b
        tgt_markers = list(markers)
        tgt_markers[a], tgt_markers[b] = markers[b], markers[a]
        return tuple(tgt_markers), -1 if markers[a] < 0 and markers[b] < 0 \
            else 1

    def _build_isom(self) -> GradedMap:
        """A retained run of the source goes to the retained run of the
        same tau of its target markers, its signs carried across the move
        (``cross``), and must keep its bidegree."""
        cx, tcx, index = self.src.cube, self.tgt.cube, self.tgt.index()
        blocks = {}
        for _, bd, markers, tau, run, _, col0 in self.src.classes:
            if col0 is None:
                continue
            tgt_markers, eps = self._target_markers(markers)
            positions = self.src.tables.cross(markers, tgt_markers)
            tbd, row0 = index[(tgt_markers, tau)]
            if tbd != bd:
                raise AssertionError(
                    f"isom does not preserve bidegree: {bd} -> {tbd}"
                )
            blocks.setdefault(bd, {}).update(
                ((row0 + t, col0 + k), eps) for k, t in
                enumerate(carried(tcx.rank, run, positions)))
        return GradedMap("isom", self.src.dims(), self.tgt.dims(),
                         blocks=blocks)


# ---------------------------------------------------------------------------
# the move equivalence
# ---------------------------------------------------------------------------

def _chain_gap(f: GradedMap, d_src, d_tgt):
    """First entry where d_tgt . f and f . d_src differ, or None."""
    return d_tgt.compose(f).first_difference(f.compose(d_src))


def _identity_gap(f: GradedMap):
    """First entry where f and the identity on f.src differ, or None."""
    return f.first_difference(GradedMap.identity(f.src))


class MoveEquivalence:
    """Everything the verification suite needs for one R2 or R3 patch under
    one sign convention.

    The maps are the patch's (``_Patch``), and each is resolved on first
    use, so constructing an equivalence builds nothing; ``build`` resolves
    them all in a fixed order, and a report calls it first.  Each builder
    is called with the convention's values of what it reads, so a
    candidate that agrees with an earlier one on them reads the same map,
    and a check whose maps read the same values reads the same verdict,
    kept under those values (``_verdict_key``); so is each product that
    several checks read (``_PRODUCTS``).  Each side's retained summand is
    its index (``_Side.index``) and its inclusion ``in_src``/``in_tgt``;
    ``src_cx`` and ``tgt_cx`` are the two complexes under the convention's
    ordering rule, and only the checks read their d.  No map reads the
    rule, so the candidates of both rules share every map, and a check
    that reads no d one verdict.

    ``in_chain_map``, ``rho_chain_map`` and both composite checks pass
    without forming their products when the identities that imply them
    hold (each check's docstring has its proof), and the decomposition
    check skips its steps 1 and 4 when their premises are memoized as
    passing.  Each verdict is the one the whole-cube products would give,
    so it is shared under the check's own maps, whichever way it was
    reached.
    """

    def __init__(self, patch: _Patch, convention=DEFAULT_CONVENTION):
        _ordering_rule(convention.order_rule)
        self.conv = convention
        self.patch, self.kind = patch, patch.kind
        self.src, self.tgt = patch.src, patch.tgt

    # The complexes, their d (which only the checks read) and the maps,
    # each resolved from the patch on first use.
    src_cx = cached_property(lambda eq: eq.src.complex(eq.conv.order_rule))
    tgt_cx = cached_property(lambda eq: eq.tgt.complex(eq.conv.order_rule))
    d_src = cached_property(lambda eq: eq.src_cx.diffs)
    d_tgt = cached_property(lambda eq: eq.tgt_cx.diffs)
    in_src = cached_property(
        lambda eq: eq.src.inclusion(*_ARGS["in"](eq.conv)))
    rho_src = cached_property(
        lambda eq: eq.src.retraction(*_ARGS["rho"](eq.conv)))
    h = cached_property(lambda eq: eq.src.homotopy(*_ARGS["h"](eq.conv)))
    in_tgt = cached_property(
        lambda eq: eq.tgt.inclusion(*_ARGS["in"](eq.conv)))
    rho_tgt = cached_property(
        lambda eq: eq.tgt.retraction(*_ARGS["rho"](eq.conv)))
    isom = cached_property(lambda eq: eq.patch.isom())
    isom_inv = cached_property(lambda eq: eq.patch.isom_inv())

    def build(self) -> None:
        """Resolve both complexes and every map, in the order of
        ``_BUILD_ORDER``, so that a build that fails raises the first
        failure in that order, whichever map a check reads first."""
        for name in _BUILD_ORDER:
            getattr(self, name)

    # -- verification ---------------------------------------------------------

    def composite_forward(self) -> GradedMap:
        """in_D . isom . rho : C(D) -> C(D')."""
        return self.in_tgt.compose(self.isom.compose(self.rho_src), "forward")

    def composite_backward(self) -> GradedMap:
        """in . isom_inv . rho_D : C(D') -> C(D)."""
        return self.in_src.compose(self.isom_inv.compose(self.rho_tgt), "backward")

    # Products that more than one check reads (``_PRODUCTS``), each
    # composed once per distinct value of the fields its factors read and
    # kept in the patch's memo, like the verdicts.

    def _product(self, name, build) -> GradedMap:
        return _cached(self.patch.memo, self._verdict_key(name), build)

    @cached_property
    def _d_in(self) -> GradedMap:
        return self._product("_d_in", lambda: self.d_src.compose(self.in_src))

    @cached_property
    def _d_r(self) -> GradedMap:
        """d_R = rho . d . in, the retained summand's differential."""
        return self._product("_d_r", lambda: self.rho_src.compose(self._d_in))

    @cached_property
    def _d_in_tgt(self) -> GradedMap:
        return self._product("_d_in_tgt",
                             lambda: self.d_tgt.compose(self.in_tgt))

    @cached_property
    def _d_r_tgt(self) -> GradedMap:
        """d_R' = rho_D . d' . in_D, the target's retained differential."""
        return self._product("_d_r_tgt",
                             lambda: self.rho_tgt.compose(self._d_in_tgt))

    @cached_property
    def _in_rho(self) -> GradedMap:
        """in . rho, the projection onto the retained summand."""
        return self._product("_in_rho",
                             lambda: self.in_src.compose(self.rho_src))

    def _verdict_key(self, name) -> tuple:
        """The memo key of the verdict of check or premise ``name``, or of
        product ``name``: the name and the values of the sign fields that
        the maps it reads take (``_CHECKS``, ``_PREMISES``, ``_PRODUCTS``,
        ``_Patch.verdict_fields``).  The patch builds each map once per
        value of the fields its builder takes and holds it as long as the
        verdicts, so the values stand for the maps; no map is built
        here."""
        return name, self.patch.verdict_fields[name](self.conv)

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
        that fails, in report order.  The complexes and maps are built
        first, in ``build``'s order, so a failed build raises the first
        failure in that order.  The premises of the chain-map checks are
        evaluated next, so that their verdicts are stored when those checks
        read them."""
        self.build()
        for name in _CHAIN_MAP_PREMISES:
            self._shared_check(name)
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
        return _identity_gap(self.rho_src.compose(self.in_src))

    def _check_rho_in_identity_target(self):
        return _identity_gap(self.rho_tgt.compose(self.in_tgt))

    def _chain_maps_follow(self) -> bool:
        """Whether the patch's memo holds passing verdicts for both
        premises of the chain-map checks; nothing is computed.  The lazy
        walk of ``convention_search`` reaches the chain-map checks before
        ``homotopy_identity``, so there they form their products unless an
        earlier report stored it."""
        return all(map(self._stored_pass, _CHAIN_MAP_PREMISES))

    def _check_in_chain_map(self):
        """d . in = in . d_R.

        Holds when rho . in = id (``rho_in_identity``) and
        d h + h d = id - in . rho (``homotopy_identity``).  Write
        pi = id - in . rho.  Since d d = 0 (the module docstring),

            d pi = d (d h + h d) = d h d = (d h + h d) d = pi d,

        so d in rho = d (id - pi) = (id - pi) d = in rho d, and

            d in = d in (rho in) = (in rho d) in = in (rho d in) = in d_R.

        Only when a premise fails, or has no stored verdict, are both sides
        composed; they alone name the first violation."""
        if self._chain_maps_follow():
            return None
        return self._d_in.first_difference(self.in_src.compose(self._d_r))

    def _check_rho_chain_map(self):
        """rho . d = d_R . rho.

        Holds when ``rho_in_identity`` and ``homotopy_identity`` do: as in
        ``_check_in_chain_map``, d d = 0 and d h + h d = id - in rho give
        d in rho = in rho d, and with rho in = id

            rho d = (rho in) rho d = rho (in rho d) = rho (d in rho)
                  = (rho d in) rho = d_R rho.

        Only when a premise fails, or has no stored verdict, are both sides
        composed."""
        if self._chain_maps_follow():
            return None
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
        left product first.  Both products are signed permutations of the
        retained summand when the check holds, so each costs O(dim)."""
        return (_identity_gap(self.isom_inv.compose(self.isom))
                or _identity_gap(self.isom.compose(self.isom_inv)))

    def _check_homotopy_identity(self):
        """d h + h d = id - in . rho.

        One pass per bidegree: d h, h d and in . rho (``_in_rho``, which the
        decomposition check shares) are summed into one block, and the
        diagonal of the identity is subtracted, so no product of d and h,
        sum, identity or difference is formed as a map.  A block left
        nonzero is a violation; its least nonzero entry, in (bidegree, row,
        col) order, is the first entry where the two sides differ, with
        lhs = that entry + delta - in . rho there and rhs = delta - in . rho
        there."""
        d, h, in_rho = self.d_src, self.h, self._in_rho
        dims = h.src
        for bd in sorted(dims.keys() | in_rho.keys() | h.keys()):
            i, j = bd
            acc = dict(in_rho.get(bd, ()))
            for f, g in ((d.get((i - 1, j)), h.get(bd)),
                         (h.get((i + 1, j)), d.get(bd))):
                if not f or not g:
                    continue
                by_col = {}
                for (r, m), w in f.items():
                    by_col.setdefault(m, []).append((r, w))
                for (m, c), v in g.items():
                    for r, w in by_col.get(m, ()):
                        acc[(r, c)] = acc.get((r, c), 0) + w * v
            for k in range(dims.get(bd, 0)):
                acc[(k, k)] = acc.get((k, k), 0) - 1
            nonzero = [rc for rc, v in acc.items() if v]
            if nonzero:
                r, c = rc = min(nonzero)
                rhs = (r == c) - in_rho.get(bd, {}).get(rc, 0)
                return {"i": i, "j": j, "row": r, "col": c,
                        "lhs": acc[rc] + rhs, "rhs": rhs}
        return None

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
        """rho has columns only at retained keys, at 'xb' keys whose patch
        circle carries the active sign and, for R3, at 'xab' keys; h only
        at 'xab' keys and those 'xb' keys.  The first column in generator
        order that breaks this, rho's before h's; a run whose family allows
        every column, or that neither map reaches, is passed whole."""
        cols = {}
        for fam, bd, markers, tau, run, row0, ret0 in self.src.classes:
            if bd not in cols:
                cols[bd] = [{c for (_, c) in m.block(bd)}
                            for m in (self.rho_src, self.h)]
            (rho_cols, h_cols), span = cols[bd], range(row0, row0 + len(run))
            rho_ok = ret0 is not None or (fam == "xab" and self.kind == "R3")
            active = set(self.src._active(markers, run, self.conv.active_mid)
                         ) if fam == "xb" else ()
            if (rho_ok or rho_cols.isdisjoint(span)) and (
                    fam == "xab" or h_cols.isdisjoint(span)):
                continue
            for k, col in enumerate(span):
                for name, ok, taken in (("rho", rho_ok, rho_cols),
                                        ("h", fam == "xab", h_cols)):
                    if col in taken and not ok and k not in active:
                        return {"map": name, "family": fam, "i": bd[0],
                                "j": bd[1]}
        return None

    @cached_property
    def _runs(self) -> dict:
        """{bidegree: [(first row, length, named)]} of the source cube's
        runs in row order, ``named`` whether the index names the run
        (``_Side.classes``): it names a run whole, or none of it."""
        runs = {}
        for _, bd, _, _, run, row0, ret0 in self.src.classes:
            runs.setdefault(bd, []).append((row0, len(run), ret0 is not None))
        return runs

    def _in_contr(self) -> GradedMap:
        """The complement as a map: at each bidegree, column k is
        e - in rho e for the k-th row e of the runs that the index does not
        name, read off the blocks of ``_in_rho``.  Only here are those runs
        expanded into rows."""
        blocks, dims = {}, {}
        for bd, runs in self._runs.items():
            contr = [r for row0, n, named in runs if not named
                     for r in range(row0, row0 + n)]
            if not contr:
                continue
            dims[bd] = len(contr)
            by_col = {}
            for (r, c), v in self._in_rho.block(bd).items():
                by_col.setdefault(c, []).append((r, v))
            block = blocks[bd] = {}
            for k, row in enumerate(contr):
                column = {row: 1}
                for r, v in by_col.get(row, ()):
                    column[r] = column.get(r, 0) - v
                block.update(((r, k), v) for r, v in column.items() if v)
        return GradedMap("in_contr", dims, self.src_cx.dims, blocks=blocks)

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

        What is left is that the complement, pi(e_k) for every generator k
        of the runs that the index does not name, is a Z-basis of ker(rho):

        1. rho kills every complement vector.  This follows from
           ``rho_in_identity``: rho(e - in rho e) = rho e - (rho in) rho e
           = 0;
        2. per bidegree, #retained + #complement = dim;
        3. pi(e_k) + in(rho e_k) = e_k, so column operations by im(in) turn
           the basis [in | pi(e_k)] into [in | e_k], whose determinant is,
           up to the sign of a row permutation, that of the square block of
           in on the rows of the retained keys.  That block is read off a
           run at a time as the identity (as it is on every patch seen so
           far), and only otherwise goes through ``homology._bareiss``
           (``_basis_det``).  The reported ``det`` is that of the whole
           basis, sign included;
        4. rho.d kills every complement vector, so the complement spans a
           subcomplex.  This follows from ``rho_chain_map`` and step 1:
           rho d c = d_R rho c = 0.

        Steps 2 and 3 read the runs the index does not name, and no vector:
        step 2 counts their rows.  Steps 1 and 4 are skipped when the patch's
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
            have = self.in_src.src.get(bd, 0) + sum(
                n for _, n, named in self._runs.get(bd, ()) if not named)
            if have != dim:
                return {"reason": "dimension mismatch", "i": bd[0], "j": bd[1],
                        "have": have, "want": dim}
            det = self._basis_det(bd)
            if det not in (1, -1):
                return {"reason": "basis not unimodular", "i": bd[0],
                        "j": bd[1], "det": det}
        if not self._stored_pass("rho_chain_map"):
            if in_c is None:
                in_c = self._in_contr()
            if self.rho_src.compose(self.d_src.compose(in_c)).first_violation():
                return {"reason": "complement is not d-invariant"}
        return None

    def _basis_det(self, bd) -> int:
        """Determinant of [in | complement] at ``bd``, by step 3 of the proof
        in ``_check_decomposition``: the sign of the row order (retained
        rows, then the complement's) times the determinant of in's block on
        the retained rows.

        Both are read a run at a time (``_runs``).  The sign is that of the
        pairs of a retained row below a complement row, so each retained
        run adds its length times the complement rows above it.  in's block
        on the retained rows is the identity when its entries there are a 1
        at each retained row's own place among them and nothing else; any
        other block goes through ``homology._bareiss``."""
        place = [None] * self.src_cx.dim(bd)  # a retained row's place
        n = above = pairs = 0
        for row0, length, named in self._runs.get(bd, ()):
            if named:
                place[row0:row0 + length] = range(n, n + length)
                n += length
                pairs += above * length
            else:
                above += length
        sign = -1 if pairs % 2 else 1
        entries = [(place[r], c, v) for (r, c), v in
                   self.in_src.block(bd).items() if place[r] is not None]
        if len(entries) == n and all(
                r == c and v == 1 for r, c, v in entries):
            return sign
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
    toggle, both ordering rules, both saddle tables.  The product's factors
    are in the order of ``SignConvention``'s fields after ``name``."""
    values = product(("before", "after"), *[(1, -1)] * 6, (True, False),
                     ("standard", "negated"))
    return [SignConvention(f"cand-{k}", *v) for k, v in enumerate(values)]


# The checks a search walks, in report order: the decomposition check is
# left to the reports.
_SEARCHED = tuple(name for name in _CHECKS if name != "decomposition")


def convention_search(patch: _Patch, candidates=None) -> list[SignConvention]:
    """Conventions under which every identity holds on ``patch``, in
    candidate order.

    Each candidate gets its own ``MoveEquivalence`` on the patch, which
    builds no map until a check reads it.  The checks are walked in report
    order over the candidates still alive (``_survivors``): each check
    builds its maps and is evaluated once per distinct value of the sign
    fields those maps read, and a candidate leaves at the first check whose
    maps it cannot build or that fails.  Every map is some check's, so a
    candidate passes exactly when all its builds succeed and every check
    holds, as when each candidate walked its own checks.  What the
    candidates build, they share through the patch.  An empty result is a
    finding (reported by the caller), not an error.
    """
    if candidates is None:
        candidates = default_candidates()
    alive = [MoveEquivalence(patch, conv) for conv in candidates]
    for name in _SEARCHED:
        alive = _survivors(name, alive)
    return [eq.conv for eq in alive]


def _survivors(name, equivalences) -> list:
    """The equivalences, in order, that can build the maps check ``name``
    reads (``_CHECKS``) and for which it holds.  Both are read once per
    distinct value of the fields those maps read
    (``_Patch.verdict_fields``), from the first equivalence with that
    value; a build that raises ``AssertionError`` fails the check."""
    holds, out, maps = {}, [], _CHECKS[name]
    for eq in equivalences:
        key = eq._verdict_key(name)
        ok = holds.get(key)
        if ok is None:
            try:
                for m in maps:
                    getattr(eq, m)
                ok = eq._shared_check(name) is None
            except AssertionError:
                ok = False
            holds[key] = ok
        if ok:
            out.append(eq)
    return out
