"""Integral homology of bigraded complexes, by Smith normal form.

``homology_groups`` runs Smith normal form on every block of the
differential, whole.  The complexes the CLI hands it are the residues of
``tangles.py``, where Gaussian elimination has already cancelled every unit
entry: no +-1 entry is left for SNF.

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
    """H^{i,j} = ker d_{i,j} / im d_{i-1,j} as free rank plus torsion, from
    the Smith normal form of each block.

    Takes any object with ``bidegrees()``, ``dim(bd)`` and ``matrix(bd)``
    (d: C^{i,j} -> C^{i+1,j} as {(row, col): value}): a ``KhovanovComplex``,
    whose ``matrix(bd)`` is a block of its ``GradedMap`` d, or a hand-built
    complex with plain dicts.
    """
    none = SmithDecomposition(())
    snf = {}
    for bd in cx.bidegrees():
        d = cx.matrix(bd)
        if d:
            snf[bd] = smith_normal_form(d, rows=cx.dim((bd[0] + 1, bd[1])),
                                        cols=cx.dim(bd))
    table = HomologyTable()
    for i, j in cx.bidegrees():
        incoming = snf.get((i - 1, j), none)
        free = cx.dim((i, j)) - snf.get((i, j), none).rank - incoming.rank
        torsion = tuple(f for f in incoming.factors if f > 1)
        if free or torsion:
            table[(i, j)] = (free, torsion)
    return table


def compare_tables(a: HomologyTable, b: HomologyTable) -> list:
    """Differences bidegree by bidegree; empty list means identical."""
    diffs = []
    for bd in sorted(set(a) | set(b)):
        va = a.get(bd, (0, ()))
        vb = b.get(bd, (0, ()))
        if va != vb:
            diffs.append({"i": bd[0], "j": bd[1], "left": va, "right": vb})
    return diffs
