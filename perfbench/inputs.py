"""Seeded workload inputs: one round of operations per workload.

Every diagram is grown from a corpus entry by random Reidemeister
complications chosen by ``random.Random(f"{workload}:{seed}")``, so the same
seed always gives the same PD texts.  Only R1 and R2 moves are used to grow
a diagram, and both leave Khovanov homology and the Jones polynomial
unchanged, so each grown diagram must reproduce its base entry's published
invariants.  Generator counts depend only on the base and the crossing
number (each added crossing triples them), so seeds vary the shape of the
complexes, not their size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from khovanov import MovePatch, apply_move, parse_pd
from khovanov.diagram import match_r3

WORKLOADS = ("homology", "jones", "moves")

# Knots and a link, with and without Z/2 torsion in their tables.
BASES = ("trefoil", "trefoil_left", "figure_eight", "hopf_pos")
KINKS = ("+", "-", "+over", "-over")

# Crossing numbers per base in one round.  The trefoils' 7-crossing ops are
# the middle of the round's op times, so the median op is one of them.
HOMOLOGY_SIZES = {"trefoil": (7, 7, 7), "trefoil_left": (7, 7, 7),
                  "figure_eight": (7, 6), "hopf_pos": (7, 6)}
JONES_SIZES = (14, 15, 16)      # per base, per round
JONES_MAX_CROSSINGS = 16


@dataclass(frozen=True)
class Op:
    """One timed operation.

    ``kind`` selects the checker: ``homology`` and ``jones`` compare with the
    corpus entry ``base``; ``verify`` expects every check to pass, ``search``
    additionally a passing convention search, ``reject`` a failed report
    under the deliberately wrong saddle table.
    """

    label: str
    kind: str
    pd: str
    base: str = ""
    argv: tuple = ()


def grow(rng: random.Random, diagram, target: int, keep_triangle=False):
    """Complicate ``diagram`` by random R1 kinks and R2 folds up to ``target``
    crossings.  With ``keep_triangle`` no move touches a side of the R3
    triangle at crossings (0, 1, 2)."""
    while diagram.n < target:
        kind = "R2" if target - diagram.n >= 2 and rng.random() < 0.5 else "R1"
        arcs = diagram.arcs
        if keep_triangle:
            sides = set(match_r3(diagram, 0, 1, 2)["mids"])
            arcs = [a for a in arcs if a not in sides]
        variant = rng.choice(KINKS) if kind == "R1" else ""
        diagram, _ = apply_move(
            diagram,
            MovePatch(kind, "complicate", arcs=(rng.choice(arcs),),
                      variant=variant),
        )
    return diagram


def r2_fold(rng: random.Random, diagram):
    """Fold a random arc over itself; the new bigon is patch (n-1, n-2)."""
    folded, _ = apply_move(
        diagram, MovePatch("R2", "complicate", arcs=(rng.choice(diagram.arcs),))
    )
    return folded, (folded.n - 1, folded.n - 2)


def _verify_argv(pd, kind, patch, *extra, convention=None):
    head = ["--format", "json"]
    if convention:
        head += ["--convention", convention]
    return tuple(head + ["verify-move", pd, kind] + [str(c) for c in patch]
                 + list(extra))


def make_round(workload: str, seed: int, corpus: dict) -> list[Op]:
    """The fixed list of operations one round of ``workload`` performs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    base = {name: parse_pd(corpus[name]["pd"]) for name in corpus}
    ops = []
    if workload == "homology":
        for name in BASES:
            for k, n in enumerate(HOMOLOGY_SIZES[name]):
                pd = grow(rng, base[name], n).serialize()
                ops.append(Op(f"{name}/n{n}/{k}", "homology", pd, name,
                              ("--format", "json", "homology", pd,
                               "--check-euler")))
    elif workload == "jones":
        for name in BASES:
            for n in JONES_SIZES:
                pd = grow(rng, base[name], n).serialize()
                ops.append(Op(f"{name}/n{n}", "jones", pd, name))
    else:
        # R2 bigons made by a fold: six 5-crossing patches and one
        # 6-crossing patch; two of the 5-crossing ones rerun with the wrong
        # saddle table.  The four left-trefoil folds are the middle of the
        # round's op times, and their cost hardly depends on the folded arc
        # (that of a trefoil fold does, by up to a third).
        left = [("trefoil_left", 5, False)] * 4
        for k, (name, n, reject) in enumerate(
                [("trefoil", 5, True)] + left
                + [("hopf_pos", 5, True), ("figure_eight", 6, False)]):
            d, patch = r2_fold(rng, grow(rng, base[name], n - 2))
            pd = d.serialize()
            ops.append(Op(f"R2/{name}/n{n}/{k}", "verify", pd,
                          argv=_verify_argv(pd, "R2", patch)))
            if reject:
                ops.append(Op(f"R2/{name}/n{n}/{k}/wrong-pq", "reject", pd,
                              argv=_verify_argv(pd, "R2", patch,
                                                convention="wrong-pq")))
        # R3 triangles grown away from the triangle (r3_five has 5 already)
        for name, n in (("r3_triangle", 5), ("r3_five", 5), ("r3_triangle", 6),
                        ("r3_five", 6)):
            pd = grow(rng, base[name], n, keep_triangle=True).serialize()
            ops.append(Op(f"R3/{name}/n{n}", "verify", pd,
                          argv=_verify_argv(pd, "R3", (0, 1, 2))))
        # the convention search on the corpus's own patches
        for name in ("r2_unknot", "r3_triangle"):
            move = corpus[name]["moves"][0]
            pd = corpus[name]["pd"]
            ops.append(Op(f"search/{name}", "search", pd,
                          argv=_verify_argv(pd, move["kind"], move["patch"],
                                            "--search")))
    return ops
