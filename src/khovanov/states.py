"""Kauffman states and the two Jones state sums.

A marker assignment smooths every crossing (positive marker joins ends
(0,1) and (2,3) of the PD tuple, negative joins (1,2) and (3,0)); the
resulting Jordan circles are connected components of arcs under those
joins.  Enhanced states add a sign on every circle.  Gradings, for a
diagram of writhe w:

    sigma = #positive - #negative markers
    tau   = #plus - #minus circles
    i = (w - sigma) / 2,   j = (3w - sigma) / 2 + tau

The unreduced Jones polynomial is computed two independent ways: the
Kauffman sum over marker states with the (q + 1/q)^r factor, and the
refined sum of (-1)^i q^j over enhanced states.  They agree coefficient
for coefficient; the test suite asserts this on every diagram it sees.
The Kauffman sum is not evaluated state by state: it factors crossing by
crossing (Kauffman, *State models and the Jones polynomial*, Topology 26,
1987), so its cost follows the number of ways the arcs on the frontier
between processed and unprocessed crossings can be joined, not 2^n.  The
refined sum visits every one of the 2^n marker states depth first, carrying
each prefix's open-end pairing and closed circles, and sums each state's
2^r enhanced states in closed form; the state-by-state sum over all
enhanced states is a test oracle.  ``tangles.py`` categorifies the frontier
sum: its tangle complexes have the frontier layers as Euler characteristics.
"""

from __future__ import annotations

from math import comb

from .diagram import LinkDiagram

__all__ = [
    "LaurentPoly",
    "trace_circles",
    "jones_kauffman",
    "jones_refined",
    "check_guard",
    "TooManyCrossingsError",
]

DEFAULT_MAX_CROSSINGS = 16


class TooManyCrossingsError(ValueError):
    """State enumeration would exceed the crossing guard."""


class LaurentPoly:
    """Integer Laurent polynomial in q; no zero coefficients stored."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for e, c in dict(coeffs).items():
                if c:
                    self.coeffs[int(e)] = int(c)

    @classmethod
    def term(cls, coeff: int, exp: int) -> "LaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def circle_factor(cls) -> "LaurentPoly":
        """q + q^-1, the value of one unknotted circle."""
        return cls({1: 1, -1: 1})

    def add_term(self, coeff: int, exp: int) -> None:
        c = self.coeffs.get(exp, 0) + coeff
        if c:
            self.coeffs[exp] = c
        else:
            self.coeffs.pop(exp, None)

    def __add__(self, other):
        out = LaurentPoly(self.coeffs)
        for e, c in other.coeffs.items():
            out.add_term(c, e)
        return out

    def __sub__(self, other):
        out = LaurentPoly(self.coeffs)
        for e, c in other.coeffs.items():
            out.add_term(-c, e)
        return out

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self.coeffs.items()})
        out = LaurentPoly()
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out.add_term(c1 * c2, e1 + e2)
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = LaurentPoly({0: 1})
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    __repr__ = __str__

    def to_json(self) -> dict:
        return {str(e): self.coeffs[e] for e in sorted(self.coeffs, reverse=True)}

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPoly":
        """Inverse of ``to_json``: a key that ``to_json`` cannot write
        ("01", "+1", "1_0") raises ``ValueError``."""
        for e, c in data.items():
            if type(c) is not int:
                raise TypeError(f"coefficient {c!r} is not an integer")
            if str(int(e)) != e:
                raise ValueError(f"exponent {e!r} is not a canonical integer")
        return cls({int(e): c for e, c in data.items()})


def _loop_sentinels(diagram: LinkDiagram):
    # crossingless components enter circles as negative pseudo-arc labels
    return [-(i + 1) for i in range(diagram.loops)]


def trace_circles(diagram: LinkDiagram, markers) -> tuple[frozenset, ...]:
    """Circles of the smoothing selected by ``markers`` (one per crossing).

    Each circle is the frozenset of arc labels on it; crossingless loop
    components appear as singleton circles with negative sentinel labels.
    Returned sorted by minimal label, which is the canonical circle order.
    """
    markers = tuple(markers)
    if len(markers) != diagram.n:
        raise ValueError(f"need {diagram.n} markers, got {len(markers)}")
    parent = {a: a for a in diagram.arcs}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c, m in zip(diagram.crossings, markers):
        for x, y in c.pairs(m):
            parent[find(x)] = find(y)
    groups: dict[int, set] = {}
    for a in diagram.arcs:
        groups.setdefault(find(a), set()).add(a)
    circles = [frozenset(g) for g in groups.values()]
    circles.extend(frozenset([s]) for s in _loop_sentinels(diagram))
    return tuple(sorted(circles, key=min))


def check_guard(diagram, max_crossings):
    """Raise ``TooManyCrossingsError`` when the diagram has more crossings
    than ``max_crossings``."""
    if diagram.n > max_crossings:
        raise TooManyCrossingsError(
            f"{diagram.n} crossings exceeds the guard of {max_crossings}; "
            "raise max_crossings explicitly to proceed"
        )


def _join(partner: dict, x: int, y: int) -> int:
    """Join arcs ``x`` and ``y`` at one smoothing pair.

    ``partner`` maps every open arc (one end joined so far) to the open arc
    at the other end of its path; it is updated in place.  An arc not in
    ``partner`` has no end joined yet.  Returns 1 if the join closes a
    circle, else 0.
    """
    if x == y:
        # both ends of one arc in one pair: a kink's small circle
        return 1
    px = partner.pop(x, None)
    py = partner.pop(y, None)
    if px == y:
        # the two ends of one path meet
        return 1
    if px is None:
        px = x
    if py is None:
        py = y
    partner[px] = py
    partner[py] = px
    return 0


def _greedy_order(diagram: LinkDiagram) -> list[int]:
    """Crossing order for the frontier sum, narrowest frontier next: the
    key is (ends on open arcs + own arcs, own arcs), ties to the lowest
    index.  An open arc has one end at a taken crossing, an own arc both
    ends at this one (a kink's loop).  A pick widens the frontier by
    4 - 2 key[0], so a kink on it keeps the width and closes its circle,
    which the tangle engine cancels in that step (R1 done locally).  Braid
    closures have no own arcs.  Counts start at the own arcs, and a pick
    adds one to the count of the crossing at the other end of each of its
    four arcs."""
    crossings = diagram.crossings
    at: dict[int, list[int]] = {}
    for k, c in enumerate(crossings):
        for a in c.ends:
            at.setdefault(a, []).append(k)
    own = [4 - len(set(c.ends)) for c in crossings]
    count = own[:]
    left = list(range(len(crossings)))
    order = []
    while left:
        # max keeps the first of equal keys, and left is ascending
        best = max(left, key=lambda k: (count[k], own[k]))
        left.remove(best)
        order.append(best)
        for a in crossings[best].ends:
            for k in at[a]:
                count[k] += 1
    return order


def _frontier_sum(diagram: LinkDiagram, order) -> LaurentPoly:
    """The Kauffman sum with the crossings taken in ``order``; the frontier
    may empty mid-run (split diagrams), and it is empty at the end."""
    return _frontier_layer(diagram, order)[()]


# (-q)^s (q + 1/q)^r as (exponent, coefficient) terms, for s negative
# markers and r circles closed at one crossing (r <= 2)
_FACTORS = {(s, r): tuple((s + r - 2 * i, (-1) ** s * comb(r, i))
                          for i in range(r + 1))
            for s in (0, 1) for r in (0, 1, 2)}


def _frontier_layer(diagram: LinkDiagram, order) -> dict:
    """The frontier after the crossings in ``order``: every smoothing of
    them is summarised by the matching it induces on the open arcs (a sorted
    tuple of pairs), and smoothings with the same matching are summed: each
    negative marker weighs -q and each circle closed so far q + 1/q.
    Weights are plain {exponent: coefficient} dicts while the layers are
    built: each smoothing of a crossing adds its matching's weight times
    (-q)^s (q + 1/q)^r, a few shifted terms, straight into the weight of
    the matching it lands on.  Only the returned layer is ``LaurentPoly``.
    """
    layer = {(): {0: 1}}
    for k in order:
        c = diagram.crossings[k]
        smoothings = ((0, c.positive_pairs()), (1, c.negative_pairs()))
        nxt: dict[tuple, dict] = {}
        for matching, weight in layer.items():
            for s, pairs in smoothings:
                partner = {}
                for a, b in matching:
                    partner[a] = b
                    partner[b] = a
                r = 0
                for x, y in pairs:
                    r += _join(partner, x, y)
                key = tuple(sorted((a, b) for a, b in partner.items() if a < b))
                acc = nxt.get(key)
                if acc is None:
                    acc = nxt[key] = {}
                for shift, mult in _FACTORS[s, r]:
                    for e, v in weight.items():
                        e += shift
                        acc[e] = acc.get(e, 0) + mult * v
        layer = nxt
    return {m: LaurentPoly(w) for m, w in layer.items()}


def jones_kauffman(
    diagram: LinkDiagram, max_crossings: int = DEFAULT_MAX_CROSSINGS
) -> LaurentPoly:
    """Jones polynomial as the Kauffman-style sum over marker states.

    The state term (-1)^((w-sigma)/2) q^((3w-sigma)/2) (q+1/q)^r, with
    sigma = n - 2 #negative markers, is the prefactor
    (-1)^((w-n)/2) q^((3w-n)/2) times (-q) per negative marker times
    (q+1/q) per circle.  The sum over marker states is taken crossing by
    crossing (``_frontier_sum``), narrowest frontier first (``_greedy_order``);
    the crossingless loops contribute (q+1/q)^loops at the end.
    """
    check_guard(diagram, max_crossings)
    w = diagram.writhe()
    n = diagram.n
    prefactor = LaurentPoly({(3 * w - n) // 2: -1 if ((w - n) // 2) % 2 else 1})
    return (prefactor * _frontier_sum(diagram, _greedy_order(diagram))
            * LaurentPoly.circle_factor() ** diagram.loops)


def jones_refined(
    diagram: LinkDiagram, max_crossings: int = DEFAULT_MAX_CROSSINGS
) -> LaurentPoly:
    """Jones polynomial as the refined sum of (-1)^i q^j over enhanced states.

    The enhanced states of one marker state share i and j - tau, and their
    tau runs over the terms of (q+1/q)^r, so each marker state contributes
    (-1)^i q^((3w-sigma)/2) (q+1/q)^r at once; the sum counts the marker
    states per (sigma, r) first.  The marker states are visited depth first
    over the crossings in their listed order: each prefix carries the
    pairing of its open arc ends and the number of circles it has closed,
    and every one of the 2^n leaves is counted on its own, so no two states
    are merged by their pairing.  Independent of jones_kauffman's code path;
    the two must agree exactly.
    """
    check_guard(diagram, max_crossings)
    w = diagram.writhe()
    counts: dict[tuple, int] = {}
    crossings = diagram.crossings

    def visit(k, ends, sigma, r):
        if k == len(crossings):
            counts[sigma, r] = counts.get((sigma, r), 0) + 1
            return
        c = crossings[k]
        for marker, pairs in ((1, c.positive_pairs()),
                              (-1, c.negative_pairs())):
            after, closed = dict(ends), r
            for x, y in pairs:
                # x and y are path ends; a path whose two ends meet closes
                px, py = after.pop(x, x), after.pop(y, y)
                if px == y:
                    closed += 1
                else:
                    after[px], after[py] = py, px
            visit(k + 1, after, sigma + marker, closed)

    try:
        visit(0, {}, 0, diagram.loops)
    finally:
        # visit refers to itself through its closure: drop it, so that the
        # diagram's crossings it holds go now, with no cyclic collection
        del visit
    circle = LaurentPoly.circle_factor()
    total = LaurentPoly()
    for (sigma, r), count in counts.items():
        sign = -1 if ((w - sigma) // 2) % 2 else 1
        total = total + LaurentPoly({(3 * w - sigma) // 2: sign * count}) \
            * circle ** r
    return total

