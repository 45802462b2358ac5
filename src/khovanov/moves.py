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

Sign and labelling conventions are collected in ``SignConvention``; the
frozen default is certified empirically by ``convention_search``, which
reruns the identities over a finite candidate space.  Everything a
candidate builds is shared through one dict, each entry made on first use
and only read afterwards: each complex, built once per ordering rule with
the circles of every marker state (``KhovanovComplex.circles``); the patch
geometry (``_Patch``: reordering, slot validation, the move and its arc
correspondence), which no sign field changes; and each map, built once per
distinct value of the ``SignConvention`` fields it reads (``_READS``):

    retained basis and in:  order_rule, partner_mid, partner_sign, pq_rule
    rho:                    order_rule, active_mid, rho_b_sign, pq_rule
    h:                      order_rule, partner_mid, active_mid, h_w_sign,
                            h_b_sign, h_x_mod
    isom and its inverse:   order_rule

with the R3 target's in_D and rho_D reading the fields of in and rho.
Each candidate is still its own ``MoveEquivalence`` and stops at its first
failing identity; a ``verify-move`` report lists every check.

A generator is its state key (markers, signs): the saddles and transports
map keys to keys and read circles from their complex's ``circles``.

in, rho, h and the isomorphism are ``GradedMap``s, the type of the
complexes' differentials, and the checks compose them with ``cx.diffs``
itself; every check is an exact integer matrix identity, reported by
``GradedMap.first_difference`` at its first violating entry.

The decomposition C = im(in) + ker(rho) with ker(rho) contractible is not
recomputed densely: the homotopy identity d h + h d = id - in rho already
contracts ker(rho) (the Gaussian-elimination lemma of Bar-Natan, arXiv
math/0606318), so ``MoveEquivalence._check_decomposition`` only certifies,
sparsely, that the named complement is a Z-basis of ker(rho); its docstring
gives the proof.  The dense recomputation is a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .complexes import (
    ChainElement,
    GradedMap,
    KhovanovComplex,
    build_complex,
    saddle,
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
    retraction and homotopy act on.  The remaining fields are global signs
    on the individual formulas, the differential ordering rule, whether the
    homotopy carries (-1)^(negative markers outside the patch), and the
    saddle coefficient table (``negated`` deliberately breaks merges and is
    kept for demonstrating that the search rejects wrong tables).
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

    @property
    def id(self) -> str:
        return self.name


DEFAULT_CONVENTION = SignConvention()


# ---------------------------------------------------------------------------
# exact linear algebra helpers (small dense blocks)
# ---------------------------------------------------------------------------

def _det_bareiss(m) -> int:
    m = [list(r) for r in m]
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
# returns a key; it reads the circles of both resolutions from the
# ``circles`` table of their side's complex, which ``build_complex`` filled
# while enumerating the generators: no circle is traced twice.

def _attach(cx, key, flip_at, patch_arcs, value):
    """Insert the patch-local circle with ``value``; other circles keep their
    signs through containment (new circle inside old)."""
    markers, signs = key
    old = cx.circles[markers]
    markers = markers[:flip_at] + (-markers[flip_at],) + markers[flip_at + 1:]
    new_signs = []
    for nc in cx.circles[markers]:
        if nc <= patch_arcs:
            new_signs.append(value)
            continue
        owners = [sign for oc, sign in zip(old, signs) if nc <= oc]
        if len(owners) != 1:
            raise AssertionError("attach: circle containment not one-to-one")
        new_signs.append(owners[0])
    return markers, tuple(new_signs)


def _drop(cx, key, flip_at, patch_arcs):
    """Remove the patch-local circle; other circles keep their signs (old
    circle inside new)."""
    markers, signs = key
    old = [(oc, sign) for oc, sign in zip(cx.circles[markers], signs)
           if not (oc <= patch_arcs)]
    markers = markers[:flip_at] + (-markers[flip_at],) + markers[flip_at + 1:]
    new_signs = []
    for nc in cx.circles[markers]:
        owners = [sign for oc, sign in old if oc <= nc]
        if len(owners) != 1:
            raise AssertionError("drop: circle containment not one-to-one")
        new_signs.append(owners[0])
    return markers, tuple(new_signs)


def _carry_signs(owners_of, signs, new_circles, error):
    """Signs of ``new_circles``, each from the one unused old circle that
    ``owners_of`` names for it (indices into ``signs``); one new circle left
    without an owner takes the one old circle left over."""
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


def _transport_bijective(cx, key, new_markers, patch_arcs):
    """Move signs to the resolution ``new_markers`` whose circles match the
    key's circle for circle away from the patch."""
    ext = [oc - patch_arcs for oc in cx.circles[key[0]]]
    new_markers = tuple(new_markers)
    return new_markers, _carry_signs(
        lambda nc: [k for k, e in enumerate(ext) if e and e == nc - patch_arcs],
        key[1], cx.circles[new_markers],
        "bijective transport: external arcs do not match")


def _transport_cross(src_cx, key, tgt_cx, tgt_markers, corr):
    """Carry circle signs from a generator of ``src_cx`` to the resolution
    ``tgt_markers`` of the other diagram, that of ``tgt_cx``, through the
    arc correspondence of the move.

    Image arc sets (which may include loop sentinels) are matched by
    containment, so arcs private to either patch need no special casing.
    """
    images = [frozenset(corr[x] for x in oc if x in corr)
              for oc in src_cx.circles[key[0]]]
    tgt_markers = tuple(tgt_markers)
    return tgt_markers, _carry_signs(
        lambda tc: [k for k, img in enumerate(images) if img and img <= tc],
        key[1], tgt_cx.circles[tgt_markers],
        "cross-diagram transport: circles do not match")


def _saddle_terms(cx, key, crossing, conv: SignConvention):
    """Frobenius saddle at a patch crossing, honouring the convention's
    coefficient table."""
    terms = saddle(cx, key, crossing)
    if conv.pq_rule == "negated":
        # a merge leaves one term, with one circle (so one sign) fewer
        merged = len(terms) == 1 and len(terms[0][0][1]) < len(key[1])
        if merged:
            terms = [(t, -k) for t, k in terms]
    elif conv.pq_rule != "standard":
        raise ValueError(f"unknown pq rule {conv.pq_rule!r}")
    return terms


# ---------------------------------------------------------------------------
# retained bases
# ---------------------------------------------------------------------------

class RetainedBasis:
    """Basis of the retained summand, as chain elements of the ambient complex.

    Entries are ("combo", key) for two-term combinations indexed by their
    leading state and, for R3, ("state", key) for states whose marker at the
    crossing c is negative.
    """

    def __init__(self, cx: KhovanovComplex):
        self.cx = cx
        self.entries: dict = {}      # bd -> list of entry ids
        self.elements: dict = {}     # entry id -> ChainElement
        self.position: dict = {}     # entry id -> (bd, row)

    def add(self, entry_id, element: ChainElement):
        bd = self.cx.position(next(iter(element)))[0]
        for key in element:
            if self.cx.position(key)[0] != bd:
                raise AssertionError("retained combination mixes bidegrees")
        row = len(self.entries.setdefault(bd, []))
        self.entries[bd].append(entry_id)
        self.elements[entry_id] = element
        self.position[entry_id] = (bd, row)

    def space(self) -> dict:
        """Dimension of the summand per bidegree."""
        return {bd: len(v) for bd, v in self.entries.items()}

    def inclusion(self, name="in") -> GradedMap:
        out = GradedMap(name, self.space(), self.cx.census())
        for bd, ids in self.entries.items():
            for col, entry_id in enumerate(ids):
                for key, coeff in self.elements[entry_id].items():
                    _, row = self.cx.position(key)
                    out.add(bd, row, col, coeff)
        return out


class _Trivial:
    """Degenerate 'retained summand = everything' used on the R2 target side."""

    def __init__(self, cx):
        self.cx = cx

    def space(self):
        return self.cx.census()

    def inclusion(self, name="in"):
        return GradedMap.identity(self.space(), name)

    def retraction(self, name="rho"):
        return GradedMap.identity(self.space(), name)


# ---------------------------------------------------------------------------
# the move equivalence
# ---------------------------------------------------------------------------

def _complex_of(complexes: dict, diagram, sign_rule,
                max_crossings) -> KhovanovComplex:
    """The complex of ``diagram`` under ``sign_rule`` from ``complexes``
    (keyed by serialized diagram and sign rule), built on first use under
    the crossing guard ``max_crossings``."""
    key = (diagram.serialize(), sign_rule)
    cx = complexes.get(key)
    if cx is None:
        cx = complexes[key] = build_complex(diagram, sign_rule=sign_rule,
                                            max_crossings=max_crossings)
    return cx


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


class _Patch:
    """The geometry of one R2 or R3 patch, which no sign convention changes:
    the source diagram reordered so that the patch crossings come last, the
    diagram after the move with its arc correspondence ``corr``, and the
    slots of the patch on each side (the R2 target has none)."""

    def __init__(self, diagram, crossings, kind):
        if kind not in _MATCH:
            raise PatchMismatchError(
                f"no homotopy machinery for kind {kind!r}")
        match, direction = _MATCH[kind]
        match(diagram, *crossings)  # validate before reordering
        n = diagram.n
        outside = [i for i in range(n) if i not in crossings]
        self.source_diagram = _reorder(diagram, outside + list(crossings[::-1]))
        self.source = _slots(self.source_diagram, kind)
        last = tuple(range(n - 1, n - 1 - len(crossings), -1))  # a, b (, c)
        self.target_diagram, self.corr = apply_move(
            self.source_diagram, MovePatch(kind, direction, crossings=last))
        self.target = (_slots(self.target_diagram, kind) if kind == "R3"
                       else None)


def _patch_of(shared: dict, diagram, crossings, kind) -> _Patch:
    """The ``_Patch`` of (diagram, crossings, kind) from ``shared`` (keyed by
    serialized diagram, crossing tuple and kind), made on first use."""
    key = (diagram.serialize(), tuple(crossings), kind)
    patch = shared.get(key)
    if patch is None:
        patch = shared[key] = _Patch(diagram, tuple(crossings), kind)
    return patch


_RETAINED_READS = ("order_rule", "partner_mid", "partner_sign", "pq_rule")
_RHO_READS = ("order_rule", "active_mid", "rho_b_sign", "pq_rule")

# The SignConvention fields each shared map reads; ``order_rule`` selects
# the complex.  rho and the isomorphism also read a retained basis, but
# only its index (which entry sits at which row), and that depends on the
# generators' families alone, not on the partner fields.
_READS = {
    "retained": _RETAINED_READS,
    "in": _RETAINED_READS,
    "rho": _RHO_READS,
    "h": ("order_rule", "partner_mid", "active_mid", "h_w_sign", "h_b_sign",
          "h_x_mod"),
    "retained_D": _RETAINED_READS,
    "in_D": _RETAINED_READS,
    "rho_D": _RHO_READS,
    "isom": ("order_rule",),
    "isom_inv": ("order_rule",),
}


class _BuildFailed(str):
    """The message of a shared build that raised ``AssertionError``.  Only
    the text is kept: the exception's traceback would pin the frames of the
    equivalence whose build failed."""


def _shared_map(shared: dict, patch: _Patch, name, conv, build):
    """Map ``name`` of ``patch`` under ``conv`` from ``shared``, keyed by the
    patch, the name and the values of the fields the map reads (``_READS``);
    ``build()`` makes it on first use.  A build that fails is stored as its
    message, and every later use raises an ``AssertionError`` with that
    text, as a fresh build would."""
    key = (patch, name, tuple(getattr(conv, f) for f in _READS[name]))
    value = shared.get(key)
    if value is None:
        try:
            value = build()
        except AssertionError as exc:
            shared[key] = _BuildFailed(exc)
            raise
        shared[key] = value
    elif isinstance(value, _BuildFailed):
        raise AssertionError(str(value))
    return value


class _Side:
    """One diagram of the move with its complex and patch structure."""

    def __init__(self, slots: tuple, conv, cx):
        self.a, self.b, self.c, self.patch_arcs, self.x_range = slots
        self.conv = conv
        self.cx = cx

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
        for circle, sign in zip(self.cx.circles[key[0]], key[1]):
            if circle <= self.patch_arcs:
                return sign
        raise AssertionError("xb-family state has no patch-local circle")

    def s_x(self, key) -> int:
        markers = key[0]
        neg = sum(1 for k in self.x_range if markers[k] < 0)
        return -1 if neg % 2 else 1

    def combo(self, key) -> ChainElement:
        """Retained combination r(g) for an 'xa'-family generator."""
        conv = self.conv
        el = ChainElement({key: 1})
        for t, coeff in _saddle_terms(self.cx, key, self.b, conv):
            partner = _attach(
                self.cx, t, self.a, self.patch_arcs, conv.partner_mid
            )
            el.add(partner, conv.partner_sign * coeff)
        return el

    def build_retained(self) -> RetainedBasis:
        basis = RetainedBasis(self.cx)
        for bd in self.cx.bidegrees():
            for key in self.cx.gens[bd]:
                fam = self.family(key)
                if fam == "xa":
                    basis.add(("combo", key), self.combo(key))
                elif fam.endswith("c"):
                    basis.add(("state", key), ChainElement({key: 1}))
        return basis

    def retraction(self, basis: RetainedBasis, name="rho") -> GradedMap:
        conv = self.conv
        out = GradedMap(name, self.cx.census(), basis.space())
        for bd in self.cx.bidegrees():
            for col, key in enumerate(self.cx.gens[bd]):
                fam = self.family(key)
                if fam == "xa":
                    _, row = basis.position[("combo", key)]
                    out.add(bd, row, col, 1)
                elif fam.endswith("c"):
                    _, row = basis.position[("state", key)]
                    out.add(bd, row, col, 1)
                elif fam == "xb" and self.mid_sign(key) == conv.active_mid:
                    base = _drop(self.cx, key, self.b, self.patch_arcs)
                    for t, coeff in _saddle_terms(self.cx, base, self.a, conv):
                        _, row = basis.position[("combo", t)]
                        out.add(bd, row, col, conv.rho_b_sign * coeff)
                    if self.c is not None:
                        for t, coeff in _saddle_terms(
                            self.cx, base, self.c, conv
                        ):
                            _, row = basis.position[("state", t)]
                            out.add(bd, row, col, conv.rho_b_sign * coeff)
                elif fam == "xab" and self.c is not None:
                    markers = list(key[0])
                    markers[self.a] = 1
                    markers[self.c] = -1
                    t = _transport_bijective(
                        self.cx, key, markers, self.patch_arcs
                    )
                    _, row = basis.position[("state", t)]
                    out.add(bd, row, col, 1)
        return out

    def homotopy(self, name="h") -> GradedMap:
        conv = self.conv
        dims = self.cx.census()
        out = GradedMap(name, dims, dims, (-1, 0))
        for bd in self.cx.bidegrees():
            for col, key in enumerate(self.cx.gens[bd]):
                fam = self.family(key)
                sx = self.s_x(key) if conv.h_x_mod else 1
                if fam == "xab":
                    t = _attach(
                        self.cx, key, self.a, self.patch_arcs,
                        conv.partner_mid,
                    )
                    tbd, row = self.cx.position(t)
                    out.add(bd, row, col, conv.h_w_sign * sx)
                elif fam == "xb" and self.mid_sign(key) == conv.active_mid:
                    t = _drop(self.cx, key, self.b, self.patch_arcs)
                    tbd, row = self.cx.position(t)
                    out.add(bd, row, col, conv.h_b_sign * sx)
        return out


class MoveEquivalence:
    """Everything the verification suite needs for one R2 or R3 patch.

    The source diagram is reordered so the patch crossings come last, in the
    order (c,) b, a required by the sign analysis; the simplified / rewired
    diagram inherits the slot order through apply_move.

    ``complexes`` is a dict shared by callers that construct several
    equivalences on one patch (``convention_search`` and ``verify-move``).
    It maps (serialized diagram, sign rule) to a built complex, and
    (serialized diagram, crossings, kind) to the patch geometry: the
    reordered source, the validated slots, the diagram after the move and
    the arc correspondence, none of which any sign field changes.  It also
    maps (patch, map name, values of the fields the map reads) to each map:
    the retained basis and in read order_rule, partner_mid, partner_sign
    and pq_rule; rho order_rule, active_mid, rho_b_sign and pq_rule; h
    order_rule, partner_mid, active_mid, h_w_sign, h_b_sign and h_x_mod;
    the isomorphism and its inverse order_rule (``_READS``; the R3
    target's in_D and rho_D read what in and rho read).  Each entry is made
    on first use, complexes under the guard ``max_crossings``, and only
    read afterwards; a failed build is kept as its message and raised again.
    """

    def __init__(self, diagram, crossings, kind, convention=DEFAULT_CONVENTION,
                 complexes=None, max_crossings=DEFAULT_MAX_CROSSINGS):
        self.kind = kind
        self.conv = convention
        if complexes is None:
            complexes = {}
        patch = _patch_of(complexes, diagram, crossings, kind)
        self.source_diagram = patch.source_diagram
        self.target_diagram = patch.target_diagram
        self.corr = patch.corr
        src_cx = _complex_of(complexes, self.source_diagram,
                             convention.order_rule, max_crossings)
        tgt_cx = _complex_of(complexes, self.target_diagram,
                             convention.order_rule, max_crossings)
        self.src = _Side(patch.source, convention, src_cx)
        if kind == "R2":
            self.tgt = _Trivial(tgt_cx)
        else:
            self.tgt = _Side(patch.target, convention, tgt_cx)

        def shared(name, build):
            return _shared_map(complexes, patch, name, convention, build)

        self.retained_src = shared("retained", self.src.build_retained)
        self.in_src = shared("in", lambda: self.retained_src.inclusion("in"))
        self.rho_src = shared(
            "rho", lambda: self.src.retraction(self.retained_src, "rho"))
        self.h = shared("h", self.src.homotopy)
        # the complexes' own d, shared through ``complexes``: checks only read
        self.d_src = src_cx.diffs
        self.d_tgt = tgt_cx.diffs
        if kind == "R2":
            self.retained_tgt = self.tgt
            self.in_tgt = self.tgt.inclusion("in_D")
            self.rho_tgt = self.tgt.retraction("rho_D")
        else:
            self.retained_tgt = shared("retained_D", self.tgt.build_retained)
            self.in_tgt = shared(
                "in_D", lambda: self.retained_tgt.inclusion("in_D"))
            self.rho_tgt = shared(
                "rho_D",
                lambda: self.tgt.retraction(self.retained_tgt, "rho_D"))
        self.isom = shared("isom", self._build_isom)
        self.isom_inv = shared(
            "isom_inv", lambda: self._invert_signed_permutation(self.isom))

    # -- isomorphism ---------------------------------------------------------

    def _target_key_for(self, entry_id):
        """Image basis entry and coefficient of one retained generator.

        Combinations keep their slot markers; c-negative states swap the
        markers at the slots of a and b (the isotopy of the c-smoothed
        diagrams exchanges which crossing plays which role).  The swap
        conjugates the ordering signs, which costs -1 exactly on states with
        negative markers at both a and b.
        """
        kind, key = entry_id
        markers = key[0]
        eps = 1
        if self.kind == "R2":
            kind, tgt_markers = "trivial", markers[:-2]
        elif kind == "combo":
            tgt_markers = markers
        else:
            a, b = self.src.a, self.src.b
            tgt_markers = list(markers)
            tgt_markers[a], tgt_markers[b] = markers[b], markers[a]
            if markers[a] < 0 and markers[b] < 0:
                eps = -1
        t = _transport_cross(self.src.cx, key, self.tgt.cx, tgt_markers,
                             self.corr)
        return (kind, t, eps)

    def _build_isom(self) -> GradedMap:
        out = GradedMap("isom", self.retained_src.space(),
                       self.retained_tgt.space() if self.kind == "R3"
                       else self.tgt.space())
        for bd, ids in self.retained_src.entries.items():
            for col, entry_id in enumerate(ids):
                kind, tgt_key, eps = self._target_key_for(entry_id)
                if self.kind == "R2":
                    tbd, row = self.tgt.cx.position(tgt_key)
                else:
                    tbd, row = self.retained_tgt.position[(kind, tgt_key)]
                if tbd != bd:
                    raise AssertionError(
                        f"isom does not preserve bidegree: {bd} -> {tbd}"
                    )
                out.add(bd, row, col, eps)
        return out

    @staticmethod
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

    # -- verification ---------------------------------------------------------

    def composite_forward(self) -> GradedMap:
        """in_D . isom . rho : C(D') -> C(D)."""
        return self.in_tgt.compose(self.isom.compose(self.rho_src), "forward")

    def composite_backward(self) -> GradedMap:
        return self.in_src.compose(self.isom_inv.compose(self.rho_tgt), "backward")

    def _violations(self, include_decomposition=True):
        """(name, first violation or None) for each check, in report order.
        Lazy, so that a caller can stop at the first failing identity."""
        # rho . in = id on both retained summands
        ri = self.rho_src.compose(self.in_src)
        yield ("rho_in_identity",
               ri.first_difference(GradedMap.identity(ri.src)))
        ri_t = self.rho_tgt.compose(self.in_tgt)
        yield ("rho_in_identity_target",
               ri_t.first_difference(GradedMap.identity(ri_t.src)))

        # in and rho are chain maps for d_R = rho d in
        d_r = self.rho_src.compose(self.d_src.compose(self.in_src))
        yield ("in_chain_map",
               self.d_src.compose(self.in_src)
               .first_difference(self.in_src.compose(d_r)))
        yield ("rho_chain_map",
               self.rho_src.compose(self.d_src)
               .first_difference(d_r.compose(self.rho_src)))

        # the move composites commute with the differentials
        fwd = self.composite_forward()
        yield ("composite_chain_map",
               self.d_tgt.compose(fwd)
               .first_difference(fwd.compose(self.d_src)))
        bwd = self.composite_backward()
        yield ("composite_chain_map_back",
               self.d_src.compose(bwd)
               .first_difference(bwd.compose(self.d_tgt)))

        # isom intertwines the retained differentials and is invertible
        d_r_tgt = self.rho_tgt.compose(self.d_tgt.compose(self.in_tgt))
        yield ("isom_chain_map",
               self.isom.compose(d_r)
               .first_difference(d_r_tgt.compose(self.isom)))
        iso_check = self.isom_inv.compose(self.isom)
        yield ("isom_invertible",
               iso_check.first_difference(GradedMap.identity(iso_check.src)))

        # homotopy identity d h + h d = id - in rho
        lhs = self.d_src.compose(self.h).plus(self.h.compose(self.d_src))
        rhs = GradedMap.identity(lhs.src).minus(
            self.in_src.compose(self.rho_src), name="id-in.rho")
        yield "homotopy_identity", lhs.first_difference(rhs)

        # grading discipline and support discipline
        yield "bidegrees", self._check_shifts()
        yield "support_discipline", self._check_support()

        if include_decomposition:
            yield "decomposition", self._check_decomposition()

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

    def _check_shifts(self):
        for m, want in ((self.in_src, (0, 0)), (self.rho_src, (0, 0)),
                        (self.isom, (0, 0)), (self.h, (-1, 0))):
            if m.shift != want:
                return {"map": m.name, "shift": m.shift}
        return None

    def _check_support(self):
        for bd in self.src.cx.bidegrees():
            keys = self.src.cx.gens[bd]
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

    def contractible_basis(self) -> RetainedBasis:
        """Complement basis: non-retained families corrected into ker(rho)."""
        basis = RetainedBasis(self.src.cx)
        p = self.in_src.compose(self.rho_src)  # projection onto the retained part
        for bd in self.src.cx.bidegrees():
            keys = self.src.cx.gens[bd]
            blk = p.block(bd)
            by_col = {}
            for (r, c), v in blk.items():
                by_col.setdefault(c, []).append((r, v))
            for col, key in enumerate(keys):
                fam = self.src.family(key)
                retained = fam == "xa" or fam.endswith("c")
                if retained:
                    continue
                el = ChainElement({key: 1})
                for r, v in by_col.get(col, ()):
                    el.add(keys[r], -v)
                basis.add(("contr", key), el)
        return basis

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

        What is left is that the named complement (``contractible_basis``:
        pi(e_k) for every non-retained key k) is a Z-basis of ker(rho):

        1. rho kills every complement vector;
        2. per bidegree, #retained + #complement = dim;
        3. pi(e_k) + in(rho e_k) = e_k, so column operations by im(in) turn
           the basis [in | pi(e_k)] into [in | e_k], whose determinant is,
           up to the sign of a row permutation, that of the square block of
           in on the rows of the retained keys.  That block is read off as a
           signed permutation (the identity on every patch seen so far), and
           only otherwise goes through ``_det_bareiss``.  The reported
           ``det`` is that of the whole basis, sign included;
        4. rho.d kills every complement vector, so the complement spans a
           subcomplex (implied by ``rho_chain_map``; kept as the witness the
           report names when that check fails).

        The dense recomputation -- a determinant over each whole bidegree,
        rational coordinates of d on the complement and the homology of the
        complement -- is the test oracle ``dense_decomposition`` in
        tests/helpers.py.
        """
        contr = self.contractible_basis()
        in_c = contr.inclusion("in_contr")
        rv = self.rho_src.compose(in_c).first_violation()
        if rv is not None:
            return {"reason": "complement not in ker(rho)", **rv}
        for bd in self.src.cx.bidegrees():
            dim = self.src.cx.dim(bd)
            have = self.in_src.src.get(bd, 0) + in_c.src.get(bd, 0)
            if have != dim:
                return {"reason": "dimension mismatch", "i": bd[0], "j": bd[1],
                        "have": have, "want": dim}
            det = self._basis_det(bd, contr)
            if det not in (1, -1):
                return {"reason": "basis not unimodular", "i": bd[0],
                        "j": bd[1], "det": det}
        if self.rho_src.compose(self.d_src.compose(in_c)).first_violation():
            return {"reason": "complement is not d-invariant"}
        return None

    def _basis_det(self, bd, contr: RetainedBasis) -> int:
        """Determinant of [in | complement] at ``bd``, by step 3 of the proof
        in ``_check_decomposition``: the sign of the row order (retained
        rows, then the complement's keys) times the determinant of in's
        block on the retained rows."""
        contr_rows = [self.src.cx.position(key)[1]
                      for _, key in contr.entries.get(bd, ())]
        skip = set(contr_rows)
        retained_rows = [r for r in range(self.src.cx.dim(bd)) if r not in skip]
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
        return sign * _det_bareiss(dense)

    def report(self, patch=None) -> dict:
        checks = self.checks()
        return {
            "move": self.kind,
            "patch": list(patch) if patch is not None else None,
            "convention": self.conv.id,
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


def convention_search(diagram, patch: MovePatch, kind, candidates=None,
                      complexes=None,
                      max_crossings=DEFAULT_MAX_CROSSINGS
                      ) -> list[SignConvention]:
    """Conventions under which every identity holds on this patch.

    ``complexes`` is shared with the candidates as in ``MoveEquivalence``:
    the patch geometry is resolved once; only the ordering rule changes the
    complexes, so each is built once per rule, and not at all when the
    caller's dict already holds it; and each map is built once per distinct
    value of the fields it reads, as listed in ``MoveEquivalence`` (in and
    rho: 16 values, h: 64, the isomorphism: 2).  Each candidate still gets
    its own equivalence, whose identities are checked in report order up to
    the first that fails.  An empty result is a finding (reported by the
    caller), not an error.
    """
    if candidates is None:
        candidates = default_candidates()
    if complexes is None:
        complexes = {}
    passing = []
    for conv in candidates:
        try:
            eq = MoveEquivalence(diagram, patch.crossings, kind, conv,
                                 complexes, max_crossings)
            holds = all(violation is None for _, violation in
                        eq._violations(include_decomposition=False))
        except AssertionError:
            continue
        if holds:
            passing.append(conv)
    return passing
