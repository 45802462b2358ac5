"""Census of circle counts over all 2^n marker states.

The Jones polynomial no longer needs it (``states.jones_kauffman`` sums
crossing by crossing); it remains as the circle-count table behind the
test oracle ``tests/helpers.py::jones_census``.
"""

from __future__ import annotations


def census_circle_counts(diagram) -> list[int]:
    """counts[mask] = number of circles when the crossings in ``mask`` take
    the negative marker (bit k set = negative marker at crossing k).

    Positive smoothing joins PD ends (0,1) and (2,3), negative (1,2) and
    (3,0); crossingless loops add one circle each.
    """
    arc_index = {a: i for i, a in enumerate(diagram.arcs)}
    ends = [arc_index[a] for c in diagram.crossings for a in c.ends]
    n_arcs = len(diagram.arcs)
    n = diagram.n
    parent = list(range(n_arcs))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    counts = []
    for mask in range(1 << n):
        for i in range(n_arcs):
            parent[i] = i
        for c in range(n):
            b = 4 * c
            if (mask >> c) & 1:
                pairs = ((ends[b + 1], ends[b + 2]), (ends[b + 3], ends[b]))
            else:
                pairs = ((ends[b], ends[b + 1]), (ends[b + 2], ends[b + 3]))
            for x, y in pairs:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[rx] = ry
        roots = 0
        for i in range(n_arcs):
            if find(i) == i:
                roots += 1
        counts.append(roots + diagram.loops)
    return counts
