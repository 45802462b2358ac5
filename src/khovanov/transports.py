"""Sign transports between the resolutions of an R2/R3 patch, a marker
state at a time, and the rank arithmetic that applies them to a run of
generators at a time.

A generator of ``complexes.KhovanovComplex`` is an enhanced state
(markers, signs), the signs in the canonical order of the circles of its
marker state; the complex lists none, and places each a run at a time.
Which circle a transport of ``moves.py`` inserts, drops or re-signs, and
which old circle each other circle's sign comes from, depends on the
marker state alone (the patch map tensored with the identity), so
``Transports`` resolves each transport once per marker state, from the
``circles`` and ``edges`` that ``build_complex`` keeps, into sign
positions.  ``carried`` takes a whole run of sign tuples (one marker state,
one tau) through them and reads each result's rank, so a map's run of
columns is written by rank arithmetic: (m, s) is at row ``base[m][tau] +
rank[s]``, and the run's bidegree and first row are
``KhovanovComplex.entry``.
"""

from __future__ import annotations

from operator import itemgetter

from .complexes import _cube_edge

__all__ = ["Transports", "carried", "pq_sign"]


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


def carried(rank, run, positions, tail=()) -> list:
    """The rank of each sign tuple of ``run``, with ``tail`` appended,
    carried by ``positions``: ranks depend on the tuple alone, so ``rank``
    may be another complex's."""
    get = itemgetter(*positions)
    if tail:
        run = [signs + tail for signs in run]
    if len(positions) == 1:
        return [rank[(get(signs),)] for signs in run]
    return [rank[get(signs)] for signs in run]


def pq_sign(edge, pq_rule) -> int:
    """The saddle's coefficient on the merge/split pattern ``edge`` under
    the coefficient table ``pq_rule``: ``negated`` negates merges."""
    if pq_rule not in ("standard", "negated"):
        raise ValueError(f"unknown pq rule {pq_rule!r}")
    return -1 if pq_rule == "negated" and len(edge[1]) == 2 else 1


class Transports:
    """The sign transports out of one complex of a patch, each resolved
    once per marker state (with the flip or target markers).

    ``attach`` and ``drop`` give the new markers and, for each new circle,
    the position of the old sign it carries, ``len(signs)`` standing for
    the inserted circle's value; ``bijective`` and ``cross`` the positions
    alone; ``saddle`` the new markers and the merge/split pattern
    (``complexes._cube_edge``, the cube's own for a flip of d), and
    ``mid`` the position of the patch circle.  A resolution that fails
    raises its ``AssertionError`` at the first marker state that asks for
    it, and is resolved (and raises) again at the next.  ``target`` is the
    circles of the diagram after the move and the arc correspondence, for
    ``cross``.
    """

    def __init__(self, cube, patch_arcs, target=None):
        self.circles, self.edges = cube.circles, cube.edges
        self.patch_arcs, self.target = patch_arcs, target
        self.resolved = {}  # (transport, markers, flip or target) -> resolution

    def _resolution(self, kind, markers, arg):
        key = (kind, markers, arg)
        found = self.resolved.get(key)
        if found is None:
            found = self.resolved[key] = getattr(self, "_resolve_" + kind)(
                markers, arg)
        return found

    def attach(self, markers, flip_at):
        return self._resolution("attach", markers, flip_at)

    def drop(self, markers, flip_at):
        return self._resolution("drop", markers, flip_at)

    def bijective(self, markers, new_markers):
        return self._resolution("bijective", markers, tuple(new_markers))

    def cross(self, markers, tgt_markers):
        return self._resolution("cross", markers, tuple(tgt_markers))

    def saddle(self, markers, c):
        return self._resolution("saddle", markers, c)

    def mid(self, markers) -> int:
        return self._resolution("mid", markers, None)

    # -- resolutions, one per marker state -----------------------------------

    def _resolve_attach(self, markers, flip_at):
        """Other circles keep their signs through containment (new circle
        inside old)."""
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
        """Other circles keep their signs (old circle inside new)."""
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
        edge = self.edges[markers][c] if markers in self.edges else None
        return new, edge or _cube_edge(self.circles[markers],
                                       self.circles[new])

    def _resolve_mid(self, markers, _):
        for k, circle in enumerate(self.circles[markers]):
            if circle <= self.patch_arcs:
                return k
        raise AssertionError("xb-family state has no patch-local circle")
