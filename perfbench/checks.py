"""Checkers for one operation's output.

Each returns ``None`` when the output is right and a one-line reason when
it is wrong.  Expected values come from the shipped corpus (standard
published tables and Jones polynomials) and from properties the method must
have; nothing is compared with saved output of an earlier run.
"""

from __future__ import annotations

# Checks the R2/R3 identity suite must report, each passing.
CORE_MOVE_CHECKS = (
    "rho_in_identity",
    "in_chain_map",
    "rho_chain_map",
    "homotopy_identity",
    "decomposition",
    "homology_invariance",
)


def _table(rows) -> dict:
    """Homology rows as {(i, j): (rank, torsion)} without trivial entries."""
    out = {}
    for row in rows:
        rank, torsion = row["rank"], tuple(row.get("torsion", ()))
        if rank or torsion:
            out[(row["i"], row["j"])] = (rank, torsion)
    return out


def _poly(coeffs) -> dict:
    return {int(e): int(c) for e, c in coeffs.items() if int(c)}


def check_homology(rc: int, payload: dict, expected_rows) -> str | None:
    """``homology --check-euler`` output against the base entry's table."""
    if rc != 0:
        return f"exit code {rc}, want 0"
    if payload.get("euler_matches_jones") is not True:
        return "euler_matches_jones is not true"
    if payload.get("d_squared_zero") is not True:
        return "d_squared_zero is not true"
    got, want = _table(payload["homology"]), _table(expected_rows)
    if got != want:
        bad = min(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return f"table differs from the corpus at (i, j) = {bad}"
    return None


def check_jones(poly_json: dict, expected: dict) -> str | None:
    """A Jones polynomial (exponent -> coefficient) against the corpus."""
    got, want = _poly(poly_json), _poly(expected)
    if got != want:
        e = min(e for e in set(got) | set(want) if got.get(e) != want.get(e))
        return f"coefficient of q^{e} is {got.get(e, 0)}, want {want.get(e, 0)}"
    return None


def check_move(kind: str, rc: int, payload: dict) -> str | None:
    """A ``verify-move`` report: ``verify`` and ``search`` must pass every
    check; ``reject`` (the wrong-pq saddle table) must fail with a first
    violation and exit code 1."""
    checks = payload.get("checks") or []
    if kind == "reject":
        if rc != 1:
            return f"wrong-pq run exit code {rc}, want 1"
        if payload.get("pass") is not False:
            return "wrong-pq run passed"
        if not any(not c["pass"] and "first_violation" in c for c in checks):
            return "wrong-pq run reports no first_violation"
        return None
    if rc != 0:
        return f"exit code {rc}, want 0"
    if payload.get("pass") is not True:
        return "report does not pass"
    failing = [c["name"] for c in checks if c.get("pass") is not True]
    if failing:
        return f"check {failing[0]} fails"
    missing = set(CORE_MOVE_CHECKS) - {c["name"] for c in checks}
    if missing:
        return f"report lacks check {sorted(missing)[0]}"
    if kind == "search":
        search = payload.get("convention_search") or {}
        if search.get("default_passes") is not True:
            return "default convention does not pass the search"
        if not search.get("candidates_passing", 0) >= 1:
            return "no candidate convention passes"
    return None
