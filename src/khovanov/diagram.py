"""Link diagrams from planar diagram (PD) codes, and Reidemeister rewriting.

PD grammar: whitespace-separated ``X[i,j,k,l]`` terms with 1-based arc
labels in the KnotAtlas convention (first entry is the incoming under-strand
arc, then counterclockwise), plus ``O`` terms for crossingless loop
components.  The order of ``X`` terms is the crossing order, which downstream
modules use as the differential sign convention.

Orientations are recovered from the PD by role propagation: the under-strand
enters at position 0 and leaves at position 2, which forces head/tail roles
arc by arc.  Components that never pass under anything get a deterministic
orientation (lowest arc label flows out of its first listed end).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "PDSyntaxError",
    "DiagramError",
    "PatchMismatchError",
    "Crossing",
    "LinkDiagram",
    "MovePatch",
    "parse_pd",
    "apply_move",
    "mirror",
    "match_r2",
    "match_r3",
    "diagram_from_tuples",
    "from_braid",
]


class PDSyntaxError(ValueError):
    """Malformed PD text; carries 1-based line/column of the offending token."""

    def __init__(self, message, line=1, col=1):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class DiagramError(ValueError):
    """Structurally invalid diagram (dangling arc-end, orientation conflict...)."""


class PatchMismatchError(ValueError):
    """A MovePatch does not match the template for its move kind."""


@dataclass(frozen=True)
class Crossing:
    """One crossing: four arc labels counterclockwise from the under-in end.

    ``ends[0]`` and ``ends[2]`` are the under-strand (in, out); ``ends[1]``
    and ``ends[3]`` the over-strand.  ``over_in`` is 1 or 3, the position at
    which the over-strand enters.  ``sign`` is +1 iff ``over_in == 3``.
    """

    ends: tuple[int, int, int, int]
    over_in: int

    @property
    def sign(self) -> int:
        return 1 if self.over_in == 3 else -1

    def positive_pairs(self):
        """Arc-end pairings selected by the positive marker (A-smoothing)."""
        e = self.ends
        return ((e[0], e[1]), (e[2], e[3]))

    def negative_pairs(self):
        e = self.ends
        return ((e[1], e[2]), (e[3], e[0]))

    def pairs(self, marker: int):
        return self.positive_pairs() if marker > 0 else self.negative_pairs()

    def is_over(self, arc) -> bool:
        """Whether ``arc`` is an end of the over-strand."""
        return arc in (self.ends[1], self.ends[3])

    def marker_joining(self, u, v):
        """The marker whose smoothing joins the ends ``u`` and ``v``, or
        None."""
        for m in (1, -1):
            if any({s, t} == {u, v} for s, t in self.pairs(m)):
                return m
        return None


def _root(parent, x):
    """Root of ``x`` in the union-find forest ``parent``, halving paths."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class LinkDiagram:
    """An oriented link diagram.  Immutable after construction.

    Crossings are totally ordered by list position; ``loops`` counts
    crossingless unknot components (the 0-crossing unknot is
    ``LinkDiagram([], loops=1)``).
    """

    def __init__(self, crossings: list[Crossing], loops: int = 0):
        if not crossings and loops == 0:
            raise DiagramError("empty diagram rejected")
        self.crossings = tuple(crossings)
        self.loops = loops
        self._validate()
        self._orient_components()

    # -- construction helpers ------------------------------------------------

    def _validate(self):
        seen: dict[int, int] = {}
        for c in self.crossings:
            for a in c.ends:
                seen[a] = seen.get(a, 0) + 1
        for a, n in sorted(seen.items()):
            if n != 2:
                raise DiagramError(
                    f"arc {a} has {n} end(s); every arc must appear exactly twice"
                )
        self.arcs = tuple(sorted(seen))
        self._check_planar()

    def _check_planar(self):
        """The projection, a 4-valent graph with n vertices and 2n edges, is
        drawn in the plane exactly when it has F = n + 2k faces (Euler), k
        its connected parts.  A face is an orbit of the ends 4c + p
        (crossing c, position p) under "the other end of the arc at end
        p + 1 mod 4"."""
        other, first, part = [0] * (4 * self.n), {}, list(range(self.n))
        for e, a in enumerate(a for c in self.crossings for a in c.ends):
            f = first.setdefault(a, e)  # the arc's other end, once seen
            other[e], other[f] = f, e
            part[_root(part, e >> 2)] = _root(part, f >> 2)
        faces, seen = 0, [False] * len(other)
        for e in range(len(other)):
            faces += not seen[e]
            while not seen[e]:
                seen[e] = True
                e = other[e & ~3 | (e + 1) & 3]
        planar = self.n + 2 * len({_root(part, c) for c in range(self.n)})
        if faces != planar:
            raise DiagramError(f"PD code is not planar: its projection has "
                               f"{faces} face(s), a planar one n + 2 * "
                               f"(connected parts) = {planar}")

    def _orient_components(self):
        # Union arcs along strands (under: 0~2, over: 1~3) to find components.
        parent = {a: a for a in self.arcs}
        for c in self.crossings:
            parent[_root(parent, c.ends[0])] = _root(parent, c.ends[2])
            parent[_root(parent, c.ends[1])] = _root(parent, c.ends[3])
        comps: dict[int, list[int]] = {}
        for a in self.arcs:
            comps.setdefault(_root(parent, a), []).append(a)
        self.strand_components = tuple(tuple(sorted(v)) for v in sorted(comps.values()))
        self.components = len(self.strand_components) + self.loops

    @property
    def n(self) -> int:
        return len(self.crossings)

    def writhe(self) -> int:
        """Sum of crossing signs (w(D) of the oriented diagram)."""
        return sum(c.sign for c in self.crossings)

    def arc_occurrences(self) -> dict[int, list[tuple[int, int]]]:
        """arc -> [(crossing index, end position), ...] in crossing order."""
        occ: dict[int, list[tuple[int, int]]] = {}
        for ci, c in enumerate(self.crossings):
            for p, a in enumerate(c.ends):
                occ.setdefault(a, []).append((ci, p))
        return occ

    def pd_tuples(self):
        return [c.ends for c in self.crossings]

    def serialize(self) -> str:
        """PD text; crossings in id order, one ``O`` per crossingless loop."""
        terms = ["X[%d,%d,%d,%d]" % c.ends for c in self.crossings]
        terms.extend(["O"] * self.loops)
        return " ".join(terms)

    def __eq__(self, other):
        return (
            isinstance(other, LinkDiagram)
            and self.crossings == other.crossings
            and self.loops == other.loops
        )

    def __hash__(self):
        return hash((self.crossings, self.loops))

    def __repr__(self):
        return f"LinkDiagram({self.serialize()!r})"


def _resolve_over_directions(tuples: list[tuple[int, int, int, int]]):
    """Assign over-in positions so every arc has exactly one head and one tail.

    Under roles are fixed by PD convention; over roles propagate from them.
    Returns a list of over_in positions (1 or 3), one per crossing.
    Raises DiagramError on conflicts.
    """
    # role[arc occurrence] in {"head", "tail"}: head = arc flows into the end.
    occ: dict[int, list[tuple[int, int]]] = {}
    for ci, ends in enumerate(tuples):
        for p, a in enumerate(ends):
            occ.setdefault(a, []).append((ci, p))
    role: dict[tuple[int, int], str] = {}

    def set_role(ci, p, r):
        if (ci, p) in role:
            if role[(ci, p)] != r:
                raise DiagramError(
                    f"orientation conflict at crossing {ci}, arc {tuples[ci][p]}"
                )
            return False
        role[(ci, p)] = r
        return True

    pending = []
    for ci, ends in enumerate(tuples):
        set_role(ci, 0, "head")
        set_role(ci, 2, "tail")
        pending.append((ci, 0))
        pending.append((ci, 2))

    over_in: dict[int, int] = {}

    def decide(ci, pos_in):
        if ci in over_in:
            if over_in[ci] != pos_in:
                raise DiagramError(f"orientation conflict at crossing {ci}")
            return
        over_in[ci] = pos_in
        pos_out = 4 - pos_in  # 1 <-> 3
        if set_role(ci, pos_in, "head"):
            pending.append((ci, pos_in))
        if set_role(ci, pos_out, "tail"):
            pending.append((ci, pos_out))

    def propagate():
        while pending:
            ci, p = pending.pop()
            arc = tuples[ci][p]
            for cj, q in occ[arc]:
                if (cj, q) == (ci, p) or (cj, q) in role:
                    continue
                # The other occurrence takes the opposite role.
                r = "tail" if role[(ci, p)] == "head" else "head"
                if q in (0, 2):
                    want = "head" if q == 0 else "tail"
                    if r != want:
                        raise DiagramError(f"arc {arc} has two {role[(ci, p)]}s")
                    continue
                decide(cj, q if r == "head" else 4 - q)

    propagate()
    # Components passing over everything are unconstrained: orient the lowest
    # undetermined arc out of its first listed end, then propagate.
    while len(over_in) < len(tuples):
        free = [
            (tuples[ci][p], ci, p)
            for ci in range(len(tuples))
            if ci not in over_in
            for p in (1, 3)
        ]
        arc, ci, p = min(free)
        decide(ci, 4 - p)  # arc leaves the crossing at its first free end
        propagate()
    return [over_in[ci] for ci in range(len(tuples))]


def diagram_from_tuples(
    tuples: Iterable[tuple[int, int, int, int]], loops: int = 0
) -> LinkDiagram:
    """Build a diagram from raw PD 4-tuples, resolving orientations."""
    tuples = [tuple(t) for t in tuples]
    if not tuples:
        return LinkDiagram([], loops=loops)
    seen: dict[int, int] = {}
    for t in tuples:
        for a in t:
            seen[a] = seen.get(a, 0) + 1
    bad = [a for a, k in seen.items() if k != 2]
    if bad:
        raise DiagramError(
            f"arc {min(bad)} has {seen[min(bad)]} end(s); "
            "every arc must appear exactly twice"
        )
    over = _resolve_over_directions(tuples)
    return LinkDiagram(
        [Crossing(t, o) for t, o in zip(tuples, over)], loops=loops
    )


def parse_pd(text: str) -> LinkDiagram:
    """Parse PD text into a validated LinkDiagram.

    Raises PDSyntaxError for grammar problems (with line/column) and
    DiagramError for connectivity problems.
    """
    tuples = []
    loops = 0
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        tok_line, tok_col = line, col
        if ch == "O":
            loops += 1
            i += 1
            col += 1
            continue
        if ch != "X":
            raise PDSyntaxError(f"unexpected character {ch!r}", tok_line, tok_col)
        j = i + 1
        if j >= n or text[j] != "[":
            raise PDSyntaxError("expected '[' after 'X'", tok_line, tok_col + 1)
        k = text.find("]", j)
        if k < 0:
            raise PDSyntaxError("unterminated 'X[' term", tok_line, tok_col)
        body = text[j + 1 : k]
        parts = body.split(",")
        if len(parts) != 4:
            raise PDSyntaxError(
                f"crossing needs 4 arc labels, got {len(parts)}", tok_line, tok_col
            )
        try:
            ends = tuple(int(p.strip()) for p in parts)
        except ValueError:
            raise PDSyntaxError(f"non-integer arc label in {body!r}", tok_line, tok_col)
        if any(a < 1 for a in ends):
            raise PDSyntaxError("arc labels are 1-based positive", tok_line, tok_col)
        tuples.append(ends)
        col += k - i + 1
        i = k + 1
    if not tuples and loops == 0:
        raise PDSyntaxError("empty diagram rejected", line, col)
    return diagram_from_tuples(tuples, loops=loops)


# ---------------------------------------------------------------------------
# Reidemeister moves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MovePatch:
    """A located Reidemeister move.

    ``crossings`` follow the local-picture naming: R1 ``(a,)``, R2 ``(a, b)``
    with ``a`` the merge-side crossing (positive marker in the bigon-circle
    state), R3 ``(a, b, c)`` with ``b`` on both distinguished strands and the
    triangle-circle state having markers ``(+,-,+)`` at ``(a, b, c)``.
    ``arcs`` locates a complication (the arc to kink or fold).  ``variant``
    selects the R1 kink: a leading ``-`` makes the new crossing negative,
    a trailing ``over`` puts the loop on top of the strand.
    """

    kind: str  # "R1" | "R2" | "R3"
    direction: str  # "simplify" | "complicate"
    crossings: tuple[int, ...] = ()
    arcs: tuple[int, ...] = ()
    variant: str = ""


class ArcCorrespondence(dict):
    """Bijection from arcs of D outside the patch to arcs of D'."""


def _relabel_canonical(tuples):
    """Renumber arcs 1..2n consecutively along each oriented component.

    Components are traversed starting from their lowest old label, components
    ordered by that label.  Returns (new tuples, old->new map).
    """
    if not tuples:
        return [], {}
    over = _resolve_over_directions(tuples)
    occ: dict[int, list[tuple[int, int]]] = {}
    for ci, ends in enumerate(tuples):
        for p, a in enumerate(ends):
            occ.setdefault(a, []).append((ci, p))
    # head of arc = end where it flows in
    head: dict[int, tuple[int, int]] = {}
    for ci, ends in enumerate(tuples):
        head[ends[0]] = (ci, 0)
        head[ends[over[ci]]] = (ci, over[ci])

    def next_arc(a):
        ci, p = head[a]
        out = 2 if p == 0 else 4 - p
        return tuples[ci][out]

    mapping: dict[int, int] = {}
    nxt = 1
    for start in sorted(occ):
        if start in mapping:
            continue
        a = start
        while a not in mapping:
            mapping[a] = nxt
            nxt += 1
            a = next_arc(a)
    new_tuples = [tuple(mapping[a] for a in ends) for ends in tuples]
    return new_tuples, mapping


def _splice(tuples, loops, drop_crossings, merge_pairs):
    """Remove crossings and unify arc labels.

    Returns (new tuples, new loop count, representative map old->new label).
    A merge class with no remaining ends closed up into a crossingless loop.
    """
    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        return _root(parent, x)

    for x, y in merge_pairs:
        parent.setdefault(x, x)
        parent.setdefault(y, y)
        parent[find(x)] = find(y)
    kept = [t for i, t in enumerate(tuples) if i not in drop_crossings]
    new_tuples = [tuple(find(a) for a in ends) for ends in kept]
    used = {a for t in new_tuples for a in t}
    classes = {find(x) for x, _ in merge_pairs} | {find(y) for _, y in merge_pairs}
    vanished = sorted(cl for cl in classes if cl not in used)
    rep = {}
    for a in parent:
        cl = find(a)
        if cl in vanished:
            # the strand closed into a crossingless loop; point the old arcs
            # at its sentinel label (see states.trace_circles)
            rep[a] = -(loops + vanished.index(cl) + 1)
        else:
            rep[a] = cl
    return new_tuples, loops + len(vanished), rep


def _build_result(tuples, loops, old_arc_names):
    """Canonicalize labels and package the result + arc correspondence.

    Negative interim names are loop sentinels and pass through unchanged.
    """
    new_tuples, mapping = _relabel_canonical(tuples)
    diag = diagram_from_tuples(new_tuples, loops=loops)
    corr = ArcCorrespondence()
    for old, interim in old_arc_names.items():
        if interim in mapping:
            corr[old] = mapping[interim]
        elif interim < 0:
            corr[old] = interim
    return diag, corr


def _fresh_labels(diagram, count):
    base = max(diagram.arcs) if diagram.arcs else 0
    return [base + i + 1 for i in range(count)]


def _arc_head(diagram: LinkDiagram, arc: int):
    occ = diagram.arc_occurrences()[arc]
    for ci, p in occ:
        c = diagram.crossings[ci]
        if p == 0 or p == c.over_in:
            return ci, p
    raise DiagramError(f"arc {arc} has no head")


# -- R1 ---------------------------------------------------------------------

_R1_TEMPLATES = {
    # (sign, loop_passes_over) -> tuple pattern in pieces (w1 in, w2 loop, w3 out)
    (1, False): lambda w1, w2, w3: (w1, w3, w2, w2),
    (1, True): lambda w1, w2, w3: (w2, w2, w3, w1),
    (-1, False): lambda w1, w2, w3: (w1, w2, w2, w3),
    (-1, True): lambda w1, w2, w3: (w2, w1, w3, w2),
}


def _r1_complicate(diagram, arc, sign, loop_over):
    tuples = list(diagram.pd_tuples())
    old_names = {a: a for a in diagram.arcs}
    if not diagram.crossings:
        # kink on a crossingless loop
        w1 = w3 = 1
        w2 = 2
        new = [_R1_TEMPLATES[(sign, loop_over)](w1, w2, w3)]
        return _build_result(new, diagram.loops - 1, {})
    w2, w3 = _fresh_labels(diagram, 2)
    w1 = arc
    # the head of `arc` now belongs to piece w3
    hc, hp = _arc_head(diagram, arc)
    t = list(tuples[hc])
    t[hp] = w3
    tuples[hc] = tuple(t)
    tuples.append(_R1_TEMPLATES[(sign, loop_over)](w1, w2, w3))
    return _build_result(tuples, diagram.loops, old_names)


def _match_r1(diagram, ci):
    """The kink's loop arc occupies two cyclically adjacent ends of crossing ci."""
    if not 0 <= ci < diagram.n:
        raise PatchMismatchError(f"bad crossing id {ci}")
    c = diagram.crossings[ci]
    for p in range(4):
        if c.ends[p] == c.ends[(p + 1) % 4]:
            loop = c.ends[p]
            ext = [c.ends[(p + 2) % 4], c.ends[(p + 3) % 4]]
            return loop, ext
    raise PatchMismatchError(
        f"crossing {ci} is not a kink: no arc occupies adjacent ends"
    )


def _r1_simplify(diagram, ci):
    loop, ext = _match_r1(diagram, ci)
    tuples, loops, rep = _splice(
        diagram.pd_tuples(), diagram.loops, {ci}, [(ext[0], ext[1])]
    )
    old_names = {a: rep.get(a, a) for a in diagram.arcs if a != loop}
    return _build_result(tuples, loops, old_names)


# -- R2 ---------------------------------------------------------------------

def match_r2(diagram: LinkDiagram, a: int, b: int):
    """Validate an R2 bigon at crossings (a, b); return its local structure.

    The bigon sides are a ``mid`` arc (on the strand passing over at both
    crossings) and a ``turn`` arc (under at both); the sides are joined into
    a circle by the marker pattern (+,-) at (a, b).  Raises
    PatchMismatchError with the failed condition.
    """
    if a == b or not (0 <= a < diagram.n and 0 <= b < diagram.n):
        raise PatchMismatchError(f"bad crossing pair ({a}, {b})")
    ca, cb = diagram.crossings[a], diagram.crossings[b]
    shared = sorted(set(ca.ends) & set(cb.ends))
    mids = [x for x in shared if ca.is_over(x) and cb.is_over(x)]
    turns = [x for x in shared if not ca.is_over(x) and not cb.is_over(x)]
    for mid in mids:
        for turn in turns:
            if mid == turn:
                continue
            ma = ca.marker_joining(mid, turn)
            mb = cb.marker_joining(mid, turn)
            if ma is None or mb is None or ma == mb:
                continue
            if ma < 0:
                raise PatchMismatchError(
                    f"crossings ({a}, {b}) match R2 with roles swapped: "
                    f"use ({b}, {a})"
                )
            def ext(c, over):
                slots = (1, 3) if over else (0, 2)
                away = mid if over else turn
                s0, s1 = c.ends[slots[0]], c.ends[slots[1]]
                return s1 if s0 == away else s0
            return {
                "mid": mid,
                "turn": turn,
                "stat_ext": (ext(ca, True), ext(cb, True)),
                "poke_ext": (ext(ca, False), ext(cb, False)),
            }
    raise PatchMismatchError(
        f"crossings ({a}, {b}) do not bound an R2 bigon of the drawn pattern "
        f"(shared arcs {shared})"
    )


def _r2_simplify(diagram, a, b):
    info = match_r2(diagram, a, b)
    sa, sb = info["stat_ext"]
    pa, pb = info["poke_ext"]
    drop = (info["mid"], info["turn"])
    tuples, loops, rep = _splice(
        diagram.pd_tuples(), diagram.loops, {a, b}, [(sa, sb), (pa, pb)]
    )
    old_names = {x: rep.get(x, x) for x in diagram.arcs if x not in drop}
    return _build_result(tuples, loops, old_names)


def _r2_fold(diagram, arc):
    """Poke an arc over an adjacent piece of itself (finger move).

    Produces the drawn R2 pattern with the returning piece passing over; the
    two new crossings are appended in the order (b, a) of the local naming.
    """
    if not diagram.crossings:
        # fold of the crossingless unknot: the standard 2-crossing unknot
        return _build_result([(2, 3, 3, 4), (1, 1, 2, 4)], diagram.loops - 1, {})
    tuples = list(diagram.pd_tuples())
    old_names = {x: x for x in diagram.arcs}
    p2, p3, p4, p5 = _fresh_labels(diagram, 4)
    p1 = arc
    hc, hp = _arc_head(diagram, arc)
    t = list(tuples[hc])
    t[hp] = p5
    tuples[hc] = tuple(t)
    # crossing b then a, matching the verified unknot-fold wiring
    tuples.append((p2, p3, p3, p4))
    tuples.append((p1, p5, p2, p4))
    return _build_result(tuples, diagram.loops, old_names)


# -- R3 ---------------------------------------------------------------------

def match_r3(diagram: LinkDiagram, a: int, b: int, c: int):
    """Validate an R3 triangle at (a, b, c) per the drawn template.

    The triangle sides are arcs m1 (under at a and b), m2 (over at b and c)
    and m3 (over at a, under at c), joined into a circle by the marker
    pattern (+,-,+) at (a, b, c).  Returns the sides, the six external arcs
    and strand entry flags.  Raises PatchMismatchError otherwise.
    """
    ids = (a, b, c)
    if len(set(ids)) != 3 or not all(0 <= x < diagram.n for x in ids):
        raise PatchMismatchError(f"bad crossing triple {ids}")
    cr = {x: diagram.crossings[x] for x in ids}
    m1s = [x for x in set(cr[a].ends) & set(cr[b].ends)
           if not cr[a].is_over(x) and not cr[b].is_over(x)]
    m2s = [x for x in set(cr[b].ends) & set(cr[c].ends)
           if cr[b].is_over(x) and cr[c].is_over(x)]
    m3s = [x for x in set(cr[a].ends) & set(cr[c].ends)
           if cr[a].is_over(x) and not cr[c].is_over(x)]
    for m1 in sorted(m1s):
        for m2 in sorted(m2s):
            for m3 in sorted(m3s):
                if len({m1, m2, m3}) != 3:
                    continue
                pat = (
                    cr[a].marker_joining(m1, m3),
                    cr[b].marker_joining(m1, m2),
                    cr[c].marker_joining(m2, m3),
                )
                if pat != (1, -1, 1):
                    continue

                def ext_under(x, mid):
                    c_ = cr[x]
                    return c_.ends[2] if c_.ends[0] == mid else c_.ends[0]

                def ext_over(x, mid):
                    c_ = cr[x]
                    oi = c_.over_in
                    return c_.ends[4 - oi] if c_.ends[oi] == mid else c_.ends[oi]

                return {
                    "mids": (m1, m2, m3),
                    "ext": {
                        "e1": ext_under(a, m1),
                        "e3b": ext_over(a, m3),
                        "e1n": ext_under(b, m1),
                        "e2b": ext_over(b, m2),
                        "e3t": ext_under(c, m3),
                        "e2t": ext_over(c, m2),
                    },
                    # entry flags: does the named strand flow into the patch here?
                    "s1_in_at_a": cr[a].ends[0] != m1,
                    "s3_in_at_c": cr[c].ends[0] != m3,
                }
    raise PatchMismatchError(
        f"crossings {ids} do not bound an R3 triangle of the drawn pattern "
        f"(side candidates m1={sorted(m1s)}, m2={sorted(m2s)}, m3={sorted(m3s)})"
    )


def _r3_apply(diagram, a, b, c):
    """Rewire a matched R3 triangle; crossings keep their slots and strands.

    The crossing between the all-under and mixed strands moves from below the
    all-over strand to above it (and conversely); slot-wise, old ``a`` holds
    the new template's ``b`` role and old ``b`` the new ``a`` role.
    """
    info = match_r3(diagram, a, b, c)
    ext = info["ext"]
    n1, n2, n3 = _fresh_labels(diagram, 3)
    s1_fwd = info["s1_in_at_a"]      # s1 flows e1 -> e1n
    s3_in_at_e3t = info["s3_in_at_c"]

    # ccw end orders of the rewired crossings, under-strand at slots 0 and 2:
    ccw_new_a = (ext["e1"], n2, n1, ext["e2t"])       # in old b's slot
    ccw_new_b = (n1, n3, ext["e1n"], ext["e3t"])      # in old a's slot
    ccw_new_c = (ext["e3b"], ext["e2b"], n3, n2)      # in old c's slot

    def rot(ccw, under_in_first):
        return ccw if under_in_first else (ccw[2], ccw[3], ccw[0], ccw[1])

    tuples = list(diagram.pd_tuples())
    tuples[b] = rot(ccw_new_a, s1_fwd)
    tuples[a] = rot(ccw_new_b, s1_fwd)
    tuples[c] = rot(ccw_new_c, not s3_in_at_e3t)
    old_names = {x: x for x in diagram.arcs if x not in info["mids"]}
    return _build_result(tuples, diagram.loops, old_names)


def apply_move(diagram: LinkDiagram, patch: MovePatch):
    """Apply a Reidemeister move; returns (new diagram, ArcCorrespondence).

    R3 has no direction: it repositions the patch crossings in place
    (the move is an involution on matching triangles).
    """
    kind, direction = patch.kind.upper(), patch.direction
    if kind == "R1":
        if direction == "simplify":
            return _r1_simplify(diagram, patch.crossings[0])
        sign = -1 if patch.variant.startswith("-") else 1
        loop_over = patch.variant.endswith("over")
        return _r1_complicate(diagram, patch.arcs[0], sign, loop_over)
    if kind == "R2":
        if direction == "simplify":
            return _r2_simplify(diagram, *patch.crossings[:2])
        return _r2_fold(diagram, patch.arcs[0] if patch.arcs else 0)
    if kind == "R3":
        return _r3_apply(diagram, *patch.crossings[:3])
    raise PatchMismatchError(f"unknown move kind {patch.kind!r}")


def mirror(diagram: LinkDiagram) -> LinkDiagram:
    """Mirror image: every crossing switched."""
    tuples = []
    for c in diagram.crossings:
        e, r = c.ends, c.over_in
        tuples.append((e[r], e[(r + 1) % 4], e[(r + 2) % 4], e[(r + 3) % 4]))
    return diagram_from_tuples(tuples, loops=diagram.loops)


def from_braid(word, strands: int) -> LinkDiagram:
    """The closure of a braid on ``strands`` strands.  ``word`` lists the
    generators: i > 0 is sigma_i, the strand at position i (counted from 1)
    crossing over to position i + 1 as a positive crossing, and -i its
    inverse, a negative one.  The strands run down the braid and close up
    on the right; a position that no crossing touches closes to a loop.
    T(p, q) is ``from_braid(list(range(1, p)) * q, p)``."""
    top, raw = list(range(strands)), []
    for g in word:
        i = abs(g) - 1
        if not 0 <= i < strands - 1:
            raise DiagramError(f"generator {g} needs strands {abs(g)} and "
                               f"{abs(g) + 1} of {strands}")
        # a, b come in at positions i, i + 1; new arcs c, d leave them, and
        # the strand from a goes on as d
        a, b, c = top[i], top[i + 1], strands + 2 * len(raw)
        d = c + 1
        raw.append(((a, c, d, b), 3) if g > 0 else ((b, a, c, d), 1))
        top[i], top[i + 1] = c, d
    close = {x: p for p, x in enumerate(top)}  # an arc leaving the bottom
    label: dict[int, int] = {}
    crossings = [Crossing(tuple(label.setdefault(close.get(x, x),
                                                 len(label) + 1)
                                for x in ends), over_in)
                 for ends, over_in in raw]
    loops = sum(x == p for p, x in enumerate(top))
    return LinkDiagram(crossings, loops=loops)
