"""Integral homology of bigraded complexes, by Smith normal form.

``homology_groups`` runs Smith normal form on every block of a
differential, whole, given as a ``complexes.GradedMap``.  The differentials
the CLI hands it are the residues of ``tangles.py``, where Gaussian
elimination has already cancelled every unit entry: no +-1 entry is left
for SNF.

Smith normal form is exact (Python integers) and works modulo D, the |det|
of a nonsingular r x r minor of the block (r its rank), which every
invariant factor divides: no entry ever exceeds D.  Pivoting on the entry
of least absolute value does not bound the entries: on a 28 x 26 residue
block of T(7,8) with 65-bit entries they grew until the reduction did not
finish in 60 s, where working mod D takes milliseconds.  That pivoting is
kept as the tests' oracle for small matrices, and the test suite
cross-checks free ranks and torsion against its own rank oracles over the
rationals and over GF(p).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

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


def _bareiss(m) -> tuple[int, int]:
    """(rank r, the signed determinant of a nonsingular r x r minor) of the
    dense matrix ``m``, which is overwritten, by fraction-free elimination
    (Bareiss; Cohen, *A Course in Computational Algebraic Number Theory*,
    section 2.2):
    after k pivots every entry left is a (k+1) x (k+1) minor, so the
    divisions are exact and the last pivot is the minor of the pivot rows
    and columns, in their order after the row swaps; each swap negates it
    back.  For a nonsingular square matrix that is its determinant.  A
    column with no pivot left is skipped."""
    nr = len(m)
    nc = len(m[0]) if m else 0
    rank, prev, sign = 0, 1, 1
    for c in range(nc):
        p = next((r for r in range(rank, nr) if m[r][c]), None)
        if p is None:
            continue
        if p != rank:
            m[rank], m[p] = m[p], m[rank]
            sign = -sign
        top = m[rank]
        a = top[c]
        for r in range(rank + 1, nr):
            row = m[r]
            b = row[c]
            for k in range(c + 1, nc):
                row[k] = (row[k] * a - b * top[k]) // prev
            row[c] = 0
        prev, rank = a, rank + 1
        if rank == nr:
            break
    return rank, sign * prev


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s a + t b = g = gcd(a, b), for a > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1, t0, t1 = s1, s0 - q * s1, t1, t0 - q * t1
    return a, s0, t0


def _diagonal_mod(m, D: int) -> list[int]:
    """Diagonalise ``m`` over Z/D by unimodular row and column operations,
    every entry kept in [0, D), and return the diagonal.  The pivot is the
    least entry; a row or column entry it does not divide is combined with
    it by an extended gcd, which replaces the pivot by a proper divisor, so
    the pivot at least halves each time its row or column is refilled."""
    nr, nc = len(m), len(m[0])
    m = [[v % D for v in row] for row in m]
    diagonal = []
    for top in range(min(nr, nc)):
        best = None
        for r in range(top, nr):
            for c in range(top, nc):
                v = m[r][c]
                if v and (best is None or v < best[0]):
                    best = (v, r, c)
        if best is None:
            break
        _, r0, c0 = best
        m[top], m[r0] = m[r0], m[top]
        for row in m:
            row[top], row[c0] = row[c0], row[top]
        clean = False
        while not clean:
            clean = True
            for r in range(top + 1, nr):
                b = m[r][top]
                if not b:
                    continue
                rt, rr = m[top], m[r]
                a = rt[top]
                if b % a == 0:
                    q = b // a
                    for c in range(top, nc):
                        rr[c] = (rr[c] - q * rt[c]) % D
                    continue
                g, s, t = _ext_gcd(a, b)
                u, w = a // g, b // g
                for c in range(top, nc):
                    x, y = rt[c], rr[c]
                    rt[c], rr[c] = (s * x + t * y) % D, (u * y - w * x) % D
            for c in range(top + 1, nc):
                b = m[top][c]
                if not b:
                    continue
                a = m[top][top]
                if b % a == 0:
                    q = b // a
                    for row in m[top:]:
                        row[c] = (row[c] - q * row[top]) % D
                    continue
                g, s, t = _ext_gcd(a, b)
                u, w = a // g, b // g
                for row in m[top:]:
                    x, y = row[top], row[c]
                    row[top], row[c] = (s * x + t * y) % D, (u * y - w * x) % D
                clean = False
        diagonal.append(m[top][top])
    return diagonal


def smith_normal_form(matrix, rows=None, cols=None) -> SmithDecomposition:
    """Invariant factors of an integer matrix.

    Accepts a dense list of rows, or a sparse {(row, col): value} dict with
    explicit ``rows``/``cols``.

    The invariant factors d_1 | ... | d_r of a matrix of rank r multiply to
    the gcd of its r x r minors, so each divides D, the |det| of any
    nonsingular r x r minor, which ``_bareiss`` finds.  Reduced mod D, an
    n-row matrix has cokernel Z/d_1 + ... + Z/d_r + (Z/D)^(n-r) over Z/D,
    and that module is read off any diagonal form of it mod D (Cohen,
    *A Course in Computational Algebraic Number Theory*, section 2.4,
    works mod D likewise): each diagonal entry g gives Z/gcd(g, D), each row
    past the diagonal Z/D.  ``_invariant_factors`` merges those orders
    into the divisibility chain, whose top n - r factors are the D's.  No
    entry ever exceeds D, whatever the pivots do.
    """
    if isinstance(matrix, dict):
        m = _triplets_to_dense(matrix, rows, cols)
    else:
        m = [list(r) for r in matrix]
    rank, det = _bareiss([list(r) for r in m])
    D = abs(det)
    if D == 1:
        return SmithDecomposition((1,) * rank)
    diagonal = _diagonal_mod(m, D)
    orders = [gcd(g, D) for g in diagonal] + [D] * (len(m) - len(diagonal))
    chain = _invariant_factors(orders)
    torsion = chain[:len(chain) - (len(m) - rank)]
    return SmithDecomposition((1,) * (rank - len(torsion)) + torsion)


def _invariant_factors(orders) -> tuple:
    """The invariant factors, ascending, of the sum of Z/a over ``orders``.
    Each order joins the chain from its largest factor down: it leaves the
    lcm of itself and the factor in place and carries their gcd on, so the
    chain keeps dividing upward; runs of equal factors are held as
    [factor, count], and the carry passes a run after its first member."""
    runs = []
    for a in orders:
        out = []
        for d, count in runs:
            if a > 1:
                g = gcd(d, a)
                out.append([d // g * a, 1])
                count, a = count - 1, g
            if count:
                out.append([d, count])
        if a > 1:
            out.append([a, 1])
        runs = []
        for d, count in out:
            if runs and runs[-1][0] == d:
                runs[-1][1] += count
            else:
                runs.append([d, count])
    return tuple(d for d, count in reversed(runs) for _ in range(count))


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


def homology_groups(d) -> HomologyTable:
    """H^{i,j} = ker d_{i,j} / im d_{i-1,j} as free rank plus torsion, from
    the Smith normal form of each block.

    ``d`` is the differential as a ``complexes.GradedMap`` of shift (1, 0),
    with the dimensions of the complex in ``d.src``: ``d[(i, j)]`` is
    d: C^{i,j} -> C^{i+1,j} as {(row, col): value}.  A ``KhovanovComplex``
    passes its ``diffs``; ``tangles.tangle_homology`` passes its residue.
    """
    none = SmithDecomposition(())
    snf = {}
    for bd in d.bidegrees():
        block = d.get(bd)
        if block:
            snf[bd] = smith_normal_form(block, rows=d.dim((bd[0] + 1, bd[1])),
                                        cols=d.dim(bd))
    table = HomologyTable()
    for i, j in d.bidegrees():
        incoming = snf.get((i - 1, j), none)
        free = d.dim((i, j)) - snf.get((i, j), none).rank - incoming.rank
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
