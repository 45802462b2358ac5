"""Integral homology of bigraded complexes.

``homology_groups`` first cancels unit entries of the differential across
the whole complex, then runs Smith normal form on what is left.  The
cancellation lemma (Gaussian elimination, Bar-Natan, arXiv math/0606318):
if d has an entry d(x -> y) = e with e = +-1, the complex is chain-homotopy
equivalent over Z to the one with x and y removed and every other entry
replaced by

    d'(u -> v) = d(u -> v) - d(u -> y) * e^-1 * d(x -> v),

for u of x's degree and v of y's degree (entries into x and out of y are
dropped).  The equivalence needs e to be invertible over Z, so only +-1
pivots are cancelled; every other entry, however large, is carried exactly
into the residue, and the residue's homology, torsion included, equals the
original's.  The differential preserves j, so each j is reduced on its own,
in one scan of its generators in numbering order (degree, then row): a
column x with a +-1 entry is cancelled against the unit whose row y has the
fewest entries, ties to the lowest y.  A unit that a cancellation creates in
a column already scanned is left to SNF.  ``tangles.py`` applies the same
lemma to the cobordisms of its tangle complexes and hands its residue to
this module's cancellation and SNF.

Smith normal form is exact (Python integers).  Pivoting picks the nonzero
entry of least absolute value (ties: lowest row, then column) to limit
coefficient growth.  The test suite cross-checks free ranks and torsion
against its own rank oracles over the rationals and over GF(p).
"""

from __future__ import annotations

from dataclasses import dataclass

from .states import LaurentPoly

__all__ = [
    "SmithDecomposition",
    "HomologyTable",
    "smith_normal_form",
    "homology_groups",
    "compare_tables",
]


@dataclass(frozen=True)
class SmithDecomposition:
    """Invariant factors d_1 | d_2 | ... | d_k (positive) and the rank k."""

    factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.factors)


def _triplets_to_dense(entries: dict, rows: int, cols: int):
    m = [[0] * cols for _ in range(rows)]
    for (r, c), v in entries.items():
        m[r][c] = v
    return m


def smith_normal_form(matrix, rows=None, cols=None) -> SmithDecomposition:
    """Invariant factors of an integer matrix.

    Accepts a dense list of rows, or a sparse {(row, col): value} dict with
    explicit ``rows``/``cols``.
    """
    if isinstance(matrix, dict):
        m = _triplets_to_dense(matrix, rows, cols)
    else:
        m = [list(r) for r in matrix]
    nr = len(m)
    nc = len(m[0]) if m else 0
    factors = []
    top = 0
    while True:
        pivot = None
        best = None
        for r in range(top, nr):
            row = m[r]
            for c in range(top, nc):
                v = row[c]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (r, c)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        r0, c0 = pivot
        m[top], m[r0] = m[r0], m[top]
        for row in m:
            row[top], row[c0] = row[c0], row[top]
        while True:
            p = m[top][top]
            dirty = False
            for r in range(top + 1, nr):
                v = m[r][top]
                if v:
                    q = v // p
                    if q:
                        for c in range(top, nc):
                            m[r][c] -= q * m[top][c]
                    if m[r][top]:
                        m[top], m[r] = m[r], m[top]
                        dirty = True
                        break
            if dirty:
                continue
            for c in range(top + 1, nc):
                v = m[top][c]
                if v:
                    q = v // p
                    if q:
                        for r in range(top, nr):
                            m[r][c] -= q * m[r][top]
                    if m[top][c]:
                        for row in m:
                            row[top], row[c] = row[c], row[top]
                        dirty = True
                        break
            if dirty:
                continue
            # pivot must divide the rest of the block, else absorb a witness row
            p = m[top][top]
            witness = None
            for r in range(top + 1, nr):
                for c in range(top + 1, nc):
                    if m[r][c] % p:
                        witness = r
                        break
                if witness is not None:
                    break
            if witness is None:
                break
            for c in range(top, nc):
                m[top][c] += m[witness][c]
        factors.append(abs(m[top][top]))
        top += 1
        if top >= nr or top >= nc:
            break
    return SmithDecomposition(tuple(factors))


class HomologyTable(dict):
    """(i, j) -> (free rank, torsion invariant factors); trivial entries absent."""

    def to_json(self) -> list:
        return [
            {"i": i, "j": j, "rank": rk, "torsion": list(tor)}
            for (i, j), (rk, tor) in sorted(self.items())
        ]

    @classmethod
    def from_json(cls, data) -> "HomologyTable":
        """Rows {"i", "j", "rank", optional "torsion": [orders]}; a value
        that is not a JSON integer (a float or a bool) raises
        ``TypeError``."""
        t = cls()
        for row in data:
            rank, i, j = row["rank"], row["i"], row["j"]
            torsion = row.get("torsion", [])
            if not isinstance(torsion, list):
                raise TypeError(f"torsion {torsion!r} is not an array")
            for value in (i, j, rank, *torsion):
                if type(value) is not int:
                    raise TypeError(f"{value!r} is not an integer")
            t[(i, j)] = (rank, tuple(torsion))
        return t

    def euler(self) -> LaurentPoly:
        out = LaurentPoly()
        for (i, j), (rk, _) in self.items():
            out.add_term(-rk if i % 2 else rk, j)
        return out


def homology_groups(cx) -> HomologyTable:
    """H^{i,j} = ker d_{i,j} / im d_{i-1,j} as free rank plus torsion.

    Takes any object with ``bidegrees()``, ``dim(bd)`` and ``matrix(bd)``
    (d: C^{i,j} -> C^{i+1,j} as {(row, col): value}): a ``KhovanovComplex``,
    whose ``matrix(bd)`` is a block of its ``GradedMap`` d, or a hand-built
    complex with plain dicts.
    """
    degrees = {}
    for i, j in cx.bidegrees():
        degrees.setdefault(j, []).append(i)
    table = HomologyTable()
    for j in sorted(degrees):
        table.update(_homology_at_j(cx, j, sorted(degrees[j])))
    return table


def _homology_at_j(cx, j: int, degrees) -> dict:
    """Homology of the summand of quantum grading j: unit cancellation,
    then Smith normal form of the residue, degree by degree."""
    # generators are numbered by (i, row); cols[x] and rows[y] hold d(x -> y)
    first = {}
    degree_of = []
    for i in degrees:
        first[i] = len(degree_of)
        degree_of.extend([i] * cx.dim((i, j)))
    cols = [{} for _ in degree_of]
    rows = [{} for _ in degree_of]
    for i in degrees:
        if i + 1 not in first:
            continue
        src, tgt = first[i], first[i + 1]
        for (r, c), v in cx.matrix((i, j)).items():
            if v:
                cols[src + c][tgt + r] = v
                rows[tgt + r][src + c] = v
    alive = [True] * len(degree_of)
    for x in range(len(degree_of)):
        units = [y for y, v in cols[x].items() if v == 1 or v == -1]
        if not units:
            continue
        y = min(units, key=lambda y: (len(rows[y]), y))
        e = cols[x][y]
        alive[x] = alive[y] = False
        out_x, in_y = cols[x], rows[y]
        del out_x[y], in_y[x]
        for v in out_x:
            del rows[v][x]
        for u, a in in_y.items():
            col_u = cols[u]
            del col_u[y]
            for v, b in out_x.items():
                new = col_u.get(v, 0) - a * e * b
                if new:
                    col_u[v] = rows[v][u] = new
                else:
                    del col_u[v], rows[v][u]
        for w in rows[x]:
            del cols[w][x]
        for z in cols[y]:
            del rows[z][y]
        cols[x] = rows[x] = cols[y] = rows[y] = {}
    # Smith normal form of the residue, degree by degree
    residue = {i: [x for x in range(first[i], first[i] + cx.dim((i, j)))
                   if alive[x]] for i in degrees}
    snf = {}
    for i in degrees:
        targets = residue.get(i + 1, ())
        if not residue[i] or not targets:
            continue
        pos = {y: r for r, y in enumerate(targets)}
        block = {
            (pos[y], c): v
            for c, x in enumerate(residue[i])
            for y, v in cols[x].items()
        }
        if block:
            snf[i] = smith_normal_form(block, rows=len(targets),
                                       cols=len(residue[i]))
    out = {}
    none = SmithDecomposition(())
    for i in degrees:
        incoming = snf.get(i - 1, none)
        free = len(residue[i]) - snf.get(i, none).rank - incoming.rank
        torsion = tuple(f for f in incoming.factors if f > 1)
        if free or torsion:
            out[(i, j)] = (free, torsion)
    return out


def compare_tables(a: HomologyTable, b: HomologyTable) -> list:
    """Differences bidegree by bidegree; empty list means identical."""
    diffs = []
    for bd in sorted(set(a) | set(b)):
        va = a.get(bd, (0, ()))
        vb = b.get(bd, (0, ()))
        if va != vb:
            diffs.append({"i": bd[0], "j": bd[1], "left": va, "right": vb})
    return diffs
