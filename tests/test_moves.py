import json
import random
from collections import Counter
from dataclasses import asdict, replace

import pytest

from khovanov import MovePatch, apply_move, parse_pd
from khovanov.complexes import GradedMap, after_twin, build_complex
from khovanov.diagram import PatchMismatchError
from khovanov.homology import compare_tables
from khovanov.cli import default_corpus_path
from khovanov.moves import (
    DEFAULT_CONVENTION,
    MoveEquivalence,
    _Patch,
    convention_search,
    default_candidates,
)

from helpers import (
    add,
    convention_search_full,
    convention_search_per_candidate,
    cube_homology,
    expand_keys,
    expanded_index,
    full_violations,
    grow,
    key_index,
    mid_sign_per_generator,
    minus,
    plus,
    unshared,
)

R2_UNKNOT = parse_pd("X[2,3,3,4] X[1,1,2,4]")
R2_PATCH = (1, 0)
TRIANGLE = parse_pd("X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]")
R3_PATCH = (0, 1, 2)
TREFOIL = parse_pd("X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]")


def check_names(eq):
    return {c["name"]: c["pass"] for c in eq.checks()}


def mid_sign(side, key):
    """Sign of the patch-local circle of ``key``, a generator of ``side``,
    read off its circles."""
    return mid_sign_per_generator(side.cube.circles, key, side.patch_arcs)


def decomposition(eq):
    """(retained, complement) sizes of the source complex: the columns of
    in, and the keys that the index, expanded, does not name."""
    index = expanded_index(eq.src)
    return (sum(eq.in_src.src.values()),
            sum(key not in index for key in key_index(eq.src_cx)))


class TestR2:
    def test_r2_unknot_full_suite(self):
        eq = MoveEquivalence(_Patch(R2_UNKNOT, (1, 0), "R2"))
        results = check_names(eq)
        assert all(results.values()), results

    @pytest.mark.parametrize("arc", [1, 2, 3, 4, 5, 6])
    def test_trefoil_complications(self, arc):
        folded, _ = apply_move(
            TREFOIL, MovePatch("R2", "complicate", arcs=(arc,))
        )
        eq = MoveEquivalence(_Patch(folded, (4, 3), "R2"))
        results = check_names(eq)
        assert all(results.values()), results

    def test_trefoil_grown_and_folded_to_eight_crossings(self):
        # the trefoil grown by seeded R1/R2 moves, then folded at (7, 6)
        d = parse_pd("X[14,8,15,7] X[16,14,1,13] X[12,16,13,15] "
                     "X[9,10,10,11] X[8,12,9,11] X[6,1,7,2] X[3,4,4,5] "
                     "X[2,6,3,5]")
        eq = MoveEquivalence(_Patch(d, (7, 6), "R2"))
        assert eq.src_cx.total_dim() == 7290
        results = check_names(eq)
        assert all(results.values()), results

    def test_decomposition_census(self):
        eq = MoveEquivalence(_Patch(R2_UNKNOT, R2_PATCH, "R2"))
        retained, complement = decomposition(eq)
        cx = build_complex(R2_UNKNOT)
        assert retained + complement == cx.total_dim()
        # the retained side matches C(unknot): two generators
        assert retained == len(expanded_index(eq.src)) == 2
        # combinations pair a one-negative-marker state with bigon partners
        assert all(v in (-1, 1) for blk in eq.in_src.values()
                   for v in blk.values())

    def test_retraction_support(self):
        eq = MoveEquivalence(_Patch(R2_UNKNOT, (1, 0), "R2"))
        keys = expand_keys(eq.src_cx)
        for bd in eq.src_cx.bidegrees():
            blk = eq.rho_src.block(bd)
            cols = {c for (_, c) in blk}
            for col in cols:
                key = keys[bd][col]
                fam = eq.src.family(key[0])
                assert fam in ("xa", "xb")
                if fam == "xb":
                    assert mid_sign(eq.src, key) == \
                        DEFAULT_CONVENTION.active_mid

    def test_isom_bijective_and_sign_carrying(self):
        iso = MoveEquivalence(_Patch(R2_UNKNOT, R2_PATCH, "R2")).isom
        for bd, blk in iso.items():
            rows = [r for (r, _) in blk]
            cols = [c for (_, c) in blk]
            assert sorted(rows) == list(range(len(rows)))
            assert sorted(cols) == list(range(len(cols)))
            assert all(v == 1 for v in blk.values())

    def test_verify_helpers(self):
        eq = MoveEquivalence(_Patch(R2_UNKNOT, (1, 0), "R2"))

        def chain_map_violation(f, d_src, d_tgt):
            return d_tgt.compose(f).first_difference(f.compose(d_src))

        ident = GradedMap.identity(eq.d_src.src, "id")
        assert chain_map_violation(ident, eq.d_src, eq.d_src) is None
        fwd = eq.composite_forward()
        assert chain_map_violation(fwd, eq.d_src, eq.d_tgt) is None
        # corrupt one matrix entry: the violation is located next to it
        bd = next(bd for bd, blk in fwd.items() if blk)
        entry = next(iter(fwd[bd]))
        fwd[bd][entry] += 1
        v = chain_map_violation(fwd, eq.d_src, eq.d_tgt)
        assert v is not None
        assert (v["i"], v["j"]) in (bd, (bd[0] - 1, bd[1]))

    def test_zero_homotopy_fails(self):
        eq = MoveEquivalence(_Patch(R2_UNKNOT, (1, 0), "R2"))
        d = eq.d_src
        rhs = minus(GradedMap.identity(d.src),
                    eq.in_src.compose(eq.rho_src))

        def homotopy_violation(h):
            return plus(d.compose(h), h.compose(d)).first_difference(rhs)

        zero_h = GradedMap("h0", eq.h.src, eq.h.tgt, (-1, 0))
        assert homotopy_violation(zero_h) is not None
        assert homotopy_violation(eq.h) is None

    def test_retraction_and_homotopy_exposed(self):
        eq = MoveEquivalence(_Patch(R2_UNKNOT, R2_PATCH, "R2"))
        rho = eq.rho_src
        h = eq.h
        assert rho.shift == (0, 0)
        assert h.shift == (-1, 0)


class TestR3:
    def test_triangle_full_suite(self):
        eq = MoveEquivalence(_Patch(TRIANGLE, (0, 1, 2), "R3"))
        results = check_names(eq)
        assert all(results.values()), results

    # arcs 2, 4, 6 are the triangle sides; complications must stay outside
    @pytest.mark.parametrize("arc", [1, 3, 5])
    def test_five_crossing(self, arc):
        bigger, _ = apply_move(
            TRIANGLE, MovePatch("R2", "complicate", arcs=(arc,))
        )
        eq = MoveEquivalence(_Patch(bigger, (0, 1, 2), "R3"))
        results = check_names(eq)
        assert all(results.values()), results

    def test_kinked_triangle(self):
        kinked, _ = apply_move(
            TRIANGLE, MovePatch("R1", "complicate", arcs=(3,), variant="-over")
        )
        eq = MoveEquivalence(_Patch(kinked, (0, 1, 2), "R3"))
        assert all(check_names(eq).values())

    def test_decomposition_census(self):
        eq = MoveEquivalence(_Patch(TRIANGLE, R3_PATCH, "R3"))
        retained, complement = decomposition(eq)
        cx = build_complex(TRIANGLE)
        assert retained == len(expanded_index(eq.src))
        assert retained + complement == cx.total_dim()

    def test_homology_invariance(self):
        eq = MoveEquivalence(_Patch(TRIANGLE, (0, 1, 2), "R3"))
        assert compare_tables(
            cube_homology(build_complex(TRIANGLE).diffs),
            cube_homology(build_complex(eq.patch.tgt.diagram).diffs),
        ) == []

    def test_wrong_patch_kind(self):
        with pytest.raises(PatchMismatchError):
            _Patch(TRIANGLE, (0, 1), "R2")
        with pytest.raises(PatchMismatchError):
            _Patch(TREFOIL, (0, 1, 2), "R3")


class TestConventionSearch:
    def test_default_singleton(self):
        assert convention_search(
            _Patch(R2_UNKNOT, (1, 0), "R2"), [DEFAULT_CONVENTION]
        ) == [DEFAULT_CONVENTION]

    def test_full_space_nonempty_and_contains_default(self):
        passing = convention_search(_Patch(R2_UNKNOT, (1, 0), "R2"))

        def sig(c):
            d = asdict(c)
            d.pop("name")
            return tuple(sorted(d.items()))

        assert passing
        assert sig(DEFAULT_CONVENTION) in {sig(c) for c in passing}

    def test_wrong_pq_table_empty(self):
        wrong = replace(DEFAULT_CONVENTION, name="wrong-pq", pq_rule="negated")
        assert convention_search(_Patch(R2_UNKNOT, (1, 0), "R2"),
                                 [wrong]) == []

    def test_r3_default_passes(self):
        assert convention_search(
            _Patch(TRIANGLE, (0, 1, 2), "R3"), [DEFAULT_CONVENTION]
        ) == [DEFAULT_CONVENTION]

    def test_opposite_active_family_fails(self):
        # with the merge/split table fixed, putting the retraction and
        # homotopy on the plus-signed circle family never satisfies the
        # identities; the minus-signed family is forced
        opposite = [
            c for c in default_candidates()
            if c.active_mid == 1 and c.pq_rule == "standard"
        ]
        assert convention_search(_Patch(R2_UNKNOT, (1, 0), "R2"),
                                 opposite) == []

    def test_x_modulation_needed_with_outside_crossings(self):
        folded, _ = apply_move(
            TREFOIL, MovePatch("R2", "complicate", arcs=(1,))
        )
        patch = _Patch(folded, (4, 3), "R2")
        no_mod = replace(DEFAULT_CONVENTION, name="no-mod", h_x_mod=False)
        assert convention_search(patch, [no_mod]) == []
        assert convention_search(patch, [DEFAULT_CONVENTION])

    def test_after_ordering_fails_with_outside_crossings(self):
        # 'after'-rule candidates survive on patches with nothing outside
        # them but break once outside crossings carry negative markers:
        # the search keeps them out of the frozen default
        folded, _ = apply_move(
            TREFOIL, MovePatch("R2", "complicate", arcs=(1,))
        )
        patch = _Patch(folded, (4, 3), "R2")
        after = [c for c in default_candidates() if c.order_rule == "after"]
        assert convention_search(patch, after) == []

    def test_unknown_ordering_rule_raises(self):
        conv = replace(DEFAULT_CONVENTION, order_rule="sideways")
        with pytest.raises(ValueError, match="unknown ordering rule"):
            MoveEquivalence(_Patch(R2_UNKNOT, (1, 0), "R2"), conv)


FOLD_BASES = {
    "trefoil": TREFOIL,
    "trefoil_left": parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"),
    "hopf_pos": parse_pd("X[4,1,3,2] X[1,4,2,3]"),
}


def _seeded_fold(seed):
    """A trefoil, left trefoil or Hopf link folded by R2 on a seeded arc,
    with the fold's bigon at (n - 1, n - 2)."""
    rng = random.Random(seed)
    base = FOLD_BASES[rng.choice(sorted(FOLD_BASES))]
    arc = rng.choice(base.arcs)
    folded, _ = apply_move(base, MovePatch("R2", "complicate", arcs=(arc,)))
    return folded, (folded.n - 1, folded.n - 2)


def _seven_fold(n):
    """The trefoil grown by seed 7 to n - 2 crossings and folded by R2 on
    arc 2, with the fold's bigon at (n - 1, n - 2)."""
    folded, _ = apply_move(grow(TREFOIL, n - 2, seed=7),
                           MovePatch("R2", "complicate", arcs=(2,)))
    return folded, (n - 1, n - 2), "R2"


def _search_cases():
    """The six corpus R2/R3 patches and ten seeded folds."""
    with open(default_corpus_path()) as f:
        corpus = json.load(f)
    cases = [pytest.param(parse_pd(e["pd"]), tuple(m["patch"]), m["kind"],
                          id=f"{e['name']}-{k}")
             for e in corpus for k, m in enumerate(e.get("moves", ()))
             if m["kind"] in ("R2", "R3")]
    return cases + [pytest.param(*_seeded_fold(seed), "R2", id=f"fold-{seed}")
                    for seed in range(10)]


class TestSearchShortCircuit:
    """``convention_search`` stops each candidate at its first failing
    identity; the oracle ``convention_search_full`` runs every check.  Both
    must keep the same candidate objects, in the same order."""

    def test_search_cases(self):
        cases = _search_cases()
        assert len(cases) == 16
        assert all(c.values[0].n <= 5 for c in cases)

    @pytest.mark.parametrize("diagram,crossings,kind", _search_cases())
    def test_matches_full_search(self, diagram, crossings, kind):
        candidates = default_candidates()
        patch = _Patch(diagram, crossings, kind)
        fast = convention_search(patch, candidates)
        full = convention_search_full(patch, candidates)
        assert fast and len(fast) == len(full)
        assert all(a is b for a, b in zip(fast, full))

    @pytest.mark.parametrize("diagram,crossings,kind", [
        pytest.param(TRIANGLE, R3_PATCH, "R3", id="r3_triangle"),
        pytest.param(*_seeded_fold(0), "R2", id="fold-0"),
    ])
    def test_stops_at_first_failing_identity(self, monkeypatch, diagram,
                                             crossings, kind):
        # the search walks the checks in report order over the candidates
        # still alive: a candidate whose maps all build meets its report's
        # checks up to its first failing one; one with a failed build meets
        # them up to the first check that reads a map it cannot build
        from khovanov import moves

        met = {}
        original = moves._survivors

        def recording(name, equivalences):
            for eq in equivalences:
                met.setdefault(eq, []).append(name)
            return original(name, equivalences)

        monkeypatch.setattr(moves, "_survivors", recording)
        passing = convention_search(_Patch(diagram, crossings, kind))
        monkeypatch.undo()
        assert len(met) == 512
        stopped_early = failed_builds = 0
        for eq, names in met.items():
            try:
                report = eq.checks(include_decomposition=False)
            except AssertionError:
                failed_builds += 1
                order = [c for c in moves._CHECKS if c != "decomposition"]
                stop = next(k for k, name in enumerate(order)
                            if not _builds(eq, moves._CHECKS[name])
                            or eq._shared_check(name) is not None) + 1
                assert names == order[:stop] and eq.conv not in passing
                continue
            failed = [k for k, c in enumerate(report) if not c["pass"]]
            stop = failed[0] + 1 if failed else len(report)
            assert names == [c["name"] for c in report[:stop]]
            assert (eq.conv in passing) == (not failed)
            stopped_early += stop < len(report)
        assert passing and stopped_early and failed_builds

    def test_bad_patch_raises_before_any_candidate(self, monkeypatch):
        # the patch is matched once, when it is made, so the search never
        # sees a patch that does not match
        from khovanov import moves

        built = []

        class Counting(moves.MoveEquivalence):
            def __init__(self, *args, **kwargs):
                built.append(args[1])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(moves, "MoveEquivalence", Counting)
        with pytest.raises(PatchMismatchError):
            convention_search(_Patch(TRIANGLE, (0, 1), "R2"))
        assert built == []


class TestSearchWalk:
    """``convention_search`` walks the checks in report order over the
    candidates still alive, one verdict per distinct value of the fields a
    check's maps read; the oracle
    ``helpers.convention_search_per_candidate`` walks each candidate's own
    checks, with verdicts keyed by the maps themselves.  On patches of
    their own, both must keep the same candidate objects, in the same
    order."""

    @staticmethod
    def same_search(diagram, crossings, kind, candidates):
        fast = convention_search(_Patch(diagram, crossings, kind),
                                 candidates)
        slow = convention_search_per_candidate(
            _Patch(diagram, crossings, kind), candidates)
        assert len(fast) == len(slow)
        assert all(a is b for a, b in zip(fast, slow))
        return fast

    @pytest.mark.parametrize("diagram,crossings,kind", _search_cases())
    def test_search_cases(self, diagram, crossings, kind):
        assert self.same_search(diagram, crossings, kind,
                                default_candidates())

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_seeded_folds(self, n):
        diagram, crossings, kind = _seven_fold(n)
        assert diagram.n == n
        assert self.same_search(diagram, crossings, kind,
                                default_candidates())

    @pytest.mark.parametrize("diagram,crossings,kind", [
        pytest.param(TRIANGLE, R3_PATCH, "R3", id="r3_triangle"),
        pytest.param(R2_UNKNOT, R2_PATCH, "R2", id="r2_unknot"),
        pytest.param(*_seeded_fold(0), "R2", id="fold-0"),
    ])
    def test_lists_with_failing_builds(self, diagram, crossings, kind):
        # seeded shuffles of candidates whose builds fail, candidates that
        # pass, some of each repeated, and a random sample of the rest;
        # the search keeps the candidate order of its list
        candidates = default_candidates()
        patch = _Patch(diagram, crossings, kind)
        broken = [c for c in candidates
                  if isinstance(_equivalence_or_error(patch, c), str)]
        passing = convention_search(patch, candidates)
        assert len(broken) == 256 and passing
        rng = random.Random(73)
        for _ in range(4):
            mixed = (rng.sample(broken, 24) + passing + passing[:1]
                     + broken[:3] + rng.sample(candidates, 40))
            rng.shuffle(mixed)
            got = self.same_search(diagram, crossings, kind, mixed)
            assert got == [c for c in mixed if c in passing]
        assert self.same_search(diagram, crossings, kind,
                                candidates[::-1]) == passing[::-1]
        assert self.same_search(diagram, crossings, kind, broken) == []


def _builds(eq, maps) -> bool:
    """Whether every one of ``eq``'s attributes ``maps`` builds."""
    try:
        for m in maps:
            getattr(eq, m)
    except AssertionError:
        return False
    return True


def _equivalence_or_error(patch, conv):
    """The equivalence of ``conv`` on ``patch`` with its complexes and maps
    built (``MoveEquivalence.build``), or the message the first failed
    build raised."""
    try:
        eq = MoveEquivalence(patch, conv)
        eq.build()
        return eq
    except AssertionError as exc:
        return str(exc)


def _maps(eq) -> dict:
    """Each map of ``eq`` entry for entry, and its sides' retained
    indexes."""
    out = {m.name: (m.src, m.tgt, m.shift, dict(m))
           for m in (eq.in_src, eq.rho_src, eq.h, eq.in_tgt, eq.rho_tgt,
                     eq.isom, eq.isom_inv)}
    out["index"], out["index_D"] = eq.src.index(), eq.tgt.index()
    return out


class TestSharedMaps:
    """``MoveEquivalence`` reads each map from its patch, which builds it
    once per distinct value of the sign fields its builder takes: for every
    candidate, each map equals the candidate's own fresh build on a copy of
    the patch that shares only the geometry and the complexes
    (``helpers.unshared``) entry for entry, or both builds raise the same
    message; and ``checks()`` leaves the maps as they were built."""

    @pytest.mark.parametrize("diagram,crossings,kind", _search_cases())
    def test_every_candidate_matches_fresh_build(self, diagram, crossings,
                                                 kind):
        patch = _Patch(diagram, crossings, kind)
        failed = 0
        def built():
            return len(patch.src.memo) + len(patch.tgt.memo)

        for conv in default_candidates():
            before = built()
            eq = _equivalence_or_error(patch, conv)
            fresh = _equivalence_or_error(unshared(patch), conv)
            if isinstance(fresh, str):
                assert eq == fresh, conv
                failed += 1
                continue
            if built() > before:
                # the first candidate to read a new map runs the checks on
                # it; the fresh build runs none
                eq.checks()
            assert _maps(eq) == _maps(fresh), conv
        # the 256 candidates with partner_mid = -1, at least, fail
        assert 256 <= failed < 512

    @pytest.mark.parametrize("diagram,crossings,kind", [
        pytest.param(TRIANGLE, R3_PATCH, "R3", id="r3_triangle"),
        pytest.param(*_seeded_fold(0), "R2", id="fold-0"),
    ])
    def test_partner_mid_keys_the_maps_past_the_basis(
            self, monkeypatch, diagram, crossings, kind):
        # partner_mid = -1 always fails at the bidegree check of in's
        # combinations, so the test above never reaches rho, h or the
        # target's maps under it.  With the check lifted (the run of a
        # combination's terms is placed at its own first row, whatever its
        # bidegree), those candidates build every map, and each shared map
        # must still equal its own fresh build.
        from khovanov import moves

        monkeypatch.setattr(moves._Side, "_term_base",
                            lambda side, bd, markers, tau:
                            side.cube.base[markers][tau])
        patch = _Patch(diagram, crossings, kind)
        reached = 0
        for conv in default_candidates():
            eq = _equivalence_or_error(patch, conv)
            fresh = _equivalence_or_error(unshared(patch), conv)
            if isinstance(fresh, str):
                assert eq == fresh, conv
                continue
            assert _maps(eq) == _maps(fresh), conv
            reached += conv.partner_mid == -1
        assert reached == 256

    # The maps each check reads, listed here independently of moves.py, and
    # the builder of each: the fields a map reads are its builder's named
    # parameters on its side (the R2 target's in_D and rho_D name none), and
    # the isomorphism and its inverse read none.
    CHECK_MAPS = {
        "rho_in_identity": ("rho", "in"),
        "rho_in_identity_target": ("rho_D", "in_D"),
        "in_chain_map": ("d", "in", "rho"),
        "rho_chain_map": ("d", "in", "rho"),
        "composite_chain_map": ("d", "d_D", "in_D", "isom", "rho"),
        "composite_chain_map_back": ("d", "d_D", "in", "isom_inv", "rho_D"),
        "isom_chain_map": ("d", "d_D", "in", "in_D", "isom", "rho", "rho_D"),
        "isom_invertible": ("isom", "isom_inv"),
        "homotopy_identity": ("d", "h", "in", "rho"),
        "bidegrees": ("in", "rho", "isom", "h"),
        "support_discipline": ("rho", "h"),
        "decomposition": ("d", "in", "rho"),
    }
    BUILDERS = {"d": "complex", "d_D": "complex", "in": "inclusion",
                "in_D": "inclusion", "rho": "retraction",
                "rho_D": "retraction", "h": "homotopy"}

    @pytest.mark.parametrize("diagram,crossings,kind", [
        pytest.param(TRIANGLE, R3_PATCH, "R3", id="r3_triangle"),
        pytest.param(*_seeded_fold(0), "R2", id="fold-0"),
    ])
    def test_checks_shared_under_the_fields_their_maps_read(
            self, monkeypatch, diagram, crossings, kind):
        # every candidate's report equals that of a fresh equivalence that
        # shares no verdict, and each check runs on the shared patch once
        # per distinct value of the fields its maps read, none dropped and
        # none split
        import inspect

        from khovanov import moves

        patch = _Patch(diagram, crossings, kind)

        def fields(m):
            if m not in self.BUILDERS:
                return ()
            side = patch.tgt if m.endswith("_D") else patch.src
            builder = getattr(type(side), self.BUILDERS[m])
            return [p.name for p in list(
                inspect.signature(builder).parameters.values())[1:]
                if p.kind is not p.VAR_POSITIONAL]

        runs = Counter()
        for name in self.CHECK_MAPS:
            body = getattr(MoveEquivalence, "_check_" + name)

            def counting(eq, body=body, name=name):
                runs[name] += eq.patch is patch
                return body(eq)

            monkeypatch.setattr(MoveEquivalence, "_check_" + name, counting)
        values = {name: set() for name in self.CHECK_MAPS}
        for conv in default_candidates():
            eq = _equivalence_or_error(patch, conv)
            if isinstance(eq, str):
                continue
            report = eq.checks()
            fresh = MoveEquivalence(unshared(patch), conv)
            assert report == fresh.checks(), conv
            assert [c["name"] for c in report] == list(self.CHECK_MAPS)
            for name, maps in self.CHECK_MAPS.items():
                read = sorted({f for m in maps for f in fields(m)})
                values[name].add(tuple(getattr(conv, f) for f in read))
        # only d reads the ordering rule
        assert fields("d") == fields("d_D") == ["order_rule"]
        assert "order_rule" not in fields("h") and len(fields("h")) == 5
        assert len(fields("in_D")) == (0 if kind == "R2" else 3)
        assert runs == {name: len(v) for name, v in values.items()}

    def test_failed_build_keeps_only_its_message(self):
        patch = _Patch(TRIANGLE, R3_PATCH, "R3")
        convs = [c for c in default_candidates() if c.partner_mid == -1]
        messages = {_equivalence_or_error(patch, conv) for conv in convs}
        assert messages == {"retained combination mixes bidegrees"}
        # one failed build of in per value of its other fields, which the
        # two ordering rules share
        stored = [v for memo in (patch.memo, patch.src.memo, patch.tgt.memo)
                  for v in memo.values()]
        assert [v for v in stored if isinstance(v, str)] == \
            ["retained combination mixes bidegrees"] * 4
        assert not any(isinstance(v, BaseException) for v in stored)


class TestSharedEdgeTables:
    @pytest.mark.parametrize("diagram,crossings,kind", [
        pytest.param(TRIANGLE, R3_PATCH, "R3", id="r3_triangle"),
        pytest.param(*_seeded_fold(0), "R2", id="fold-0"),
        pytest.param(*_seven_fold(7), id="seven-fold-7"),
    ])
    def test_cubes_of_a_patch_hold_the_same_tables(self, diagram, crossings,
                                                   kind):
        # the two cubes of a patch share one edge-table store: a pattern
        # both cubes have is one table object, and every table equals the
        # one a build of its own makes
        patch = _Patch(diagram, crossings, kind)
        src, tgt = patch.src.cube.edge_tables, patch.tgt.cube.edge_tables
        both = src.keys() & tgt.keys()
        assert both and all(src[edge] is tgt[edge] for edge in both)
        for side in (patch.src, patch.tgt):
            own = build_complex(side.diagram).edge_tables
            assert side.cube.edge_tables == own


class TestTwoComponentClosures:
    """Closures where the local strands lie on distinct circles exercise the
    merge branch of the retained-combination saddle and, for R3, external
    arcs that coincide (one arc serving two template slots)."""

    def test_unlink_bigon_full_suite(self):
        d = parse_pd("X[3,1,4,2] X[4,1,3,2]")
        assert d.components == 2
        eq = MoveEquivalence(_Patch(d, (0, 1), "R2"))
        assert all(check_names(eq).values())
        assert eq.patch.tgt.diagram.loops == 2

    def test_mirror_bigon_chirality(self):
        # mirroring swaps which strand passes over at both crossings and
        # therefore swaps the template roles; the suite passes either way
        from khovanov.diagram import mirror

        folded, _ = apply_move(TREFOIL, MovePatch("R2", "complicate",
                                                  arcs=(1,)))
        m = mirror(folded)
        eq = MoveEquivalence(_Patch(m, (3, 4), "R2"))
        assert all(check_names(eq).values())

    def test_six_crossing_r3(self):
        t5, _ = apply_move(TRIANGLE, MovePatch("R2", "complicate", arcs=(1,)))
        t6, _ = apply_move(t5, MovePatch("R1", "complicate", arcs=(5,),
                                         variant="-"))
        eq = MoveEquivalence(_Patch(t6, (0, 1, 2), "R3"))
        assert all(check_names(eq).values())

    def test_link_triangle_full_suite(self):
        d = parse_pd("X[1,3,2,4] X[2,3,1,6] X[4,6,5,5]")
        assert d.components == 2
        eq = MoveEquivalence(_Patch(d, (0, 1, 2), "R3"))
        assert all(check_names(eq).values())
        assert compare_tables(
            cube_homology(build_complex(d).diffs),
            cube_homology(build_complex(eq.patch.tgt.diagram).diffs),
        ) == []


class TestFormulaShapes:
    """The maps' images have exactly the support and shape of the defining
    formulas, generator by generator (on the 2-crossing unknot, where the
    families can be checked by hand)."""

    def test_retained_combination_shape(self):
        eq = MoveEquivalence(_Patch(R2_UNKNOT, (1, 0), "R2"))
        gens = expand_keys(eq.src_cx)
        for key, (bd, col) in expanded_index(eq.src).items():
            assert eq.src.family(key[0]) == "xa"
            el = {gens[bd][r]: v for (r, c), v in eq.in_src[bd].items()
                  if c == col}
            assert el[key] == 1
            partners = {k: v for k, v in el.items() if k != key}
            # each partner lies in the bigon-circle family with the circle
            # signed +, coefficient +1
            for pkey, coeff in partners.items():
                assert coeff == 1
                assert eq.src.family(pkey[0]) == "xb"
                assert mid_sign(eq.src, pkey) == 1
            # one split term per partner sign pattern: + splits into two
            assert len(partners) == (2 if all(s == 1 for s in key[1]) else 1)

    def test_homotopy_images(self):
        eq = MoveEquivalence(_Patch(R2_UNKNOT, (1, 0), "R2"))
        cx = eq.src_cx
        keys = expand_keys(cx)
        for bd in cx.bidegrees():
            blk = eq.h.block(bd)
            by_col = {}
            for (r, c), v in blk.items():
                by_col.setdefault(c, []).append((r, v))
            for col, key in enumerate(keys[bd]):
                fam = eq.src.family(key[0])
                img = by_col.get(col, [])
                if fam == "xab":
                    # single bigon-family state with circle signed +, coeff -1
                    assert len(img) == 1
                    row, v = img[0]
                    tkey = keys[(bd[0] - 1, bd[1])][row]
                    assert v == -1
                    assert eq.src.family(tkey[0]) == "xb"
                    assert mid_sign(eq.src, tkey) == 1
                elif fam == "xb" and mid_sign(eq.src, key) == -1:
                    assert len(img) == 1
                    row, v = img[0]
                    tkey = keys[(bd[0] - 1, bd[1])][row]
                    assert v == 1
                    assert eq.src.family(tkey[0]) == "x"
                else:
                    assert img == []

    def test_isom_carries_signs_two_components(self):
        # distinct strand circles: the combination indexed by signs (p, q)
        # maps to the split diagram's state with the same signs
        d = parse_pd("X[3,1,4,2] X[4,1,3,2]")
        eq = MoveEquivalence(_Patch(d, (0, 1), "R2"))
        index = expanded_index(eq.src)
        assert len(index) == 4
        leading = {pos: key for key, pos in index.items()}
        tgt_keys = expand_keys(eq.tgt_cx)
        for bd, blk in eq.isom.items():
            for (row, col), v in blk.items():
                assert v == 1
                src_markers, src_signs = leading[(bd, col)]
                tgt_markers, tgt_signs = tgt_keys[bd][row]
                # transport along the recorded correspondence: circle through
                # arcs {1,2} -> first loop, {3,4} -> second loop
                img = {}
                for circle, sign in zip(eq.src_cx.circles[src_markers],
                                        src_signs):
                    corr = eq.patch.corr
                    sentinels = {corr[a] for a in circle if a in corr}
                    assert len(sentinels) == 1
                    img[frozenset(sentinels)] = sign
                expected = tuple(
                    img[c] for c in eq.tgt_cx.circles[tgt_markers]
                )
                assert tgt_signs == expected


class TestRandomPatches:
    def test_random_fold_suites(self):
        import random as _random

        from helpers import random_diagram

        rng = _random.Random(424)
        checked = 0
        while checked < 8:
            base = random_diagram(rng, max_crossings=3)
            arc = rng.choice(base.arcs) if base.arcs else 0
            folded, _ = apply_move(
                base, MovePatch("R2", "complicate", arcs=(arc,))
            )
            n = folded.n
            eq = MoveEquivalence(_Patch(folded, (n - 1, n - 2), "R2"))
            results = check_names(eq)
            assert all(results.values()), (base.serialize(), arc, results)
            checked += 1


HOPF = parse_pd("X[4,1,3,2] X[1,4,2,3]")
WRONG_PQ = replace(DEFAULT_CONVENTION, name="wrong-pq", pq_rule="negated")


def corpus_patches(corpus):
    return [(parse_pd(e["pd"]), tuple(m["patch"]), m["kind"])
            for e in corpus for m in e.get("moves", ())
            if m["kind"] in ("R2", "R3")]


def fold_patches(seed, count):
    """Seeded R2 folds of the trefoil and the Hopf link (the Hopf link
    sometimes kinked first), at most 5 crossings."""
    import random as _random

    rng = _random.Random(seed)
    out = []
    for _ in range(count):
        base = rng.choice([TREFOIL, HOPF])
        if base.n == 2 and rng.random() < 0.5:
            base, _ = apply_move(base, MovePatch(
                "R1", "complicate", arcs=(rng.choice(base.arcs),),
                variant=rng.choice(["+", "-", "+over", "-over"])))
        folded, _ = apply_move(
            base, MovePatch("R2", "complicate", arcs=(rng.choice(base.arcs),))
        )
        out.append((folded, (folded.n - 1, folded.n - 2), "R2"))
    return out


class TestSparseDecomposition:
    """The sparse certificate of ``_check_decomposition`` against the dense
    recomputation ``dense_decomposition`` in tests/helpers.py."""

    def test_matches_oracle_on_corpus_and_folds(self, corpus):
        from helpers import dense_decomposition

        patches = corpus_patches(corpus) + fold_patches(606, 20)
        assert len(patches) == 26 and max(d.n for d, _, _ in patches) == 5
        verdicts = set()
        for diagram, patch, kind in patches:
            for conv in (DEFAULT_CONVENTION, WRONG_PQ):
                eq = MoveEquivalence(_Patch(diagram, patch, kind), conv)
                got = eq._check_decomposition()
                assert got == dense_decomposition(eq), (
                    diagram.serialize(), conv.name)
                verdicts.add(None if got is None else got["reason"])
        # both conventions' outcomes are exercised, not only passes
        assert None in verdicts and "complement is not d-invariant" in verdicts

    def test_basis_det_matches_dense_determinant(self, corpus):
        # the determinant the certificate reports, sign included, against
        # that of the dense matrix [in | complement] over each bidegree
        from helpers import _det, _dense_columns, complement_vectors

        signs = set()
        for diagram, patch, kind in corpus_patches(corpus) + fold_patches(
                606, 5):
            eq = MoveEquivalence(_Patch(diagram, patch, kind))
            vectors = complement_vectors(eq)
            for bd in eq.src_cx.bidegrees():
                dim = eq.src_cx.dim(bd)
                cols = _dense_columns(eq.in_src, bd, dim,
                                      eq.in_src.src.get(bd, 0))
                cols += vectors.get(bd, [])
                want = _det([list(r) for r in zip(*cols)])
                assert eq._basis_det(bd) == want
                signs.add(want)
        assert signs == {1, -1}

    @pytest.mark.parametrize("diagram,crossings,kind", _search_cases())
    def test_basis_det_matches_per_row_on_every_candidate(
            self, diagram, crossings, kind):
        # the run-wise determinant against the row-wise oracle at every
        # bidegree of every candidate that builds its maps
        from helpers import basis_det_per_row

        patch = _Patch(diagram, crossings, kind)
        compared, signs = 0, set()
        for conv in default_candidates():
            eq = _equivalence_or_error(patch, conv)
            if isinstance(eq, str):
                continue
            compared += 1
            for bd in eq.src_cx.bidegrees():
                want = basis_det_per_row(eq, bd)
                assert eq._basis_det(bd) == want, (conv, bd)
                signs.add(want)
        assert compared == 256 and signs <= {1, -1} and signs

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_basis_det_matches_per_row_on_seeded_folds(self, n):
        from helpers import basis_det_per_row

        patch = _Patch(*_seven_fold(n))
        for conv in (DEFAULT_CONVENTION, WRONG_PQ):
            eq = MoveEquivalence(patch, conv)
            for bd in eq.src_cx.bidegrees():
                assert eq._basis_det(bd) == basis_det_per_row(eq, bd), (
                    conv.name, bd)

    @pytest.mark.parametrize("diagram,crossings,kind", [
        pytest.param(TRIANGLE, R3_PATCH, "R3", id="r3_triangle"),
        pytest.param(*_seeded_fold(0), "R2", id="fold-0"),
    ])
    def test_basis_det_off_the_identity(self, diagram, crossings, kind):
        # in's block on the retained rows made other than the identity, so
        # that the run-wise determinant takes its Bareiss path, at the
        # bidegree with the most retained rows: one diagonal entry negated
        # and two columns swapped each negate the determinant; an entry
        # added above the diagonal leaves it as it was
        from helpers import basis_det_per_row

        shared = _Patch(diagram, crossings, kind)
        dims = MoveEquivalence(shared).in_src.src
        bd = max(dims, key=dims.get)
        assert dims[bd] >= 2
        keys, retained = expand_keys(shared.src.cube)[bd], \
            expanded_index(shared.src)

        def mutated(edit):
            eq = MoveEquivalence(unshared(shared))
            block = eq.in_src[bd]
            diagonal = sorted(rc for rc in block if keys[rc[0]] in retained)
            edit(block, *diagonal[:2])
            return eq

        def negate(block, first, second):
            block[first] = -1

        def swap(block, first, second):
            (r0, c0), (r1, c1) = first, second
            del block[first], block[second]
            block[(r0, c1)] = block[(r1, c0)] = 1

        def above(block, first, second):
            block[(first[0], second[1])] = 5

        plain = MoveEquivalence(unshared(shared))._basis_det(bd)
        assert plain in (1, -1)
        for edit, factor in ((negate, -1), (swap, -1), (above, 1)):
            eq = mutated(edit)
            assert eq._basis_det(bd) == basis_det_per_row(eq, bd) \
                == factor * plain, edit.__name__

    def test_matches_oracle_on_every_candidate(self):
        from helpers import dense_decomposition

        patch = _Patch(R2_UNKNOT, R2_PATCH, "R2")
        constructible = failing = 0
        for conv in default_candidates():
            eq = _equivalence_or_error(patch, conv)
            if isinstance(eq, str):
                continue
            constructible += 1
            want = dense_decomposition(eq)
            assert eq._check_decomposition() == want, conv
            if want is not None:
                failing += 1
                assert eq.report()["pass"] is False, conv
        assert constructible == 256 and 0 < failing < constructible

    @pytest.mark.parametrize("diagram,patch,kind", [
        (R2_UNKNOT, (1, 0), "R2"),
        (apply_move(TREFOIL, MovePatch("R2", "complicate", arcs=(1,)))[0],
         (4, 3), "R2"),
        (TRIANGLE, (0, 1, 2), "R3"),
    ])
    def test_mutations_fail_both(self, diagram, patch, kind):
        # Each mutation is made to the equivalence's own in, which the
        # check and the oracle both read, or to the runs its index names,
        # and then to the oracle's retained keys alike; the oracle derives
        # its complement e_k - in(rho(e_k)) itself.  Every equivalence
        # shares only the complexes, so each builds its own maps.
        from helpers import dense_decomposition

        shared = _Patch(diagram, patch, kind)
        keys = expand_keys(shared.src.cube)
        position = key_index(shared.src.cube)

        def fresh():
            return MoveEquivalence(unshared(shared))

        def verdicts(eq):
            got = eq._check_decomposition()
            assert got == dense_decomposition(eq)
            return got

        # a retained combination's leading coefficient doubled, column by
        # column.  Where rho sends a complement key onto that column, rho.in
        # is no longer the identity on it and step 1 fails first; elsewhere
        # the basis has determinant +-2.  On an R2 bigon rho reaches every
        # combination from a bigon-circle state.
        reasons = set()
        for key, (bd, col) in expanded_index(fresh().src).items():
            eq = fresh()
            eq.in_src[bd][(position[key][1], col)] = 2
            got = verdicts(eq)
            reasons.add(got["reason"])
            if got["reason"] == "basis not unimodular":
                assert got["det"] in (2, -2)
        assert reasons == ({"complement not in ker(rho)"} if kind == "R2"
                           else {"complement not in ker(rho)",
                                 "basis not unimodular"})

        # one complement vector dropped: the index names a run of one key
        # that no column of in stands for
        eq = fresh()
        runs = eq._runs
        bd, at = next((bd, at) for bd in sorted(runs)
                      for at, (_, n, named) in enumerate(runs[bd])
                      if n == 1 and not named)
        row0 = runs[bd][at][0]
        eq._runs = {**runs, bd: runs[bd][:at] + [(row0, 1, True)]
                    + runs[bd][at + 1:]}
        got = eq._check_decomposition()
        retained = set(expanded_index(eq.src)) | {keys[bd][row0]}
        assert got == dense_decomposition(eq, retained)
        assert got["reason"] == "dimension mismatch"
        assert got["have"] == got["want"] - 1

        # one complement vector moved out of ker(rho): the retained column
        # that rho sends a complement key onto gains that key as a term
        eq = fresh()
        retained = expanded_index(eq.src)
        bd, (r, c) = next((bd, rc) for bd in sorted(eq.rho_src)
                          for rc in sorted(eq.rho_src[bd])
                          if keys[bd][rc[1]] not in retained)
        add(eq.in_src, bd, c, r, 1)
        got = verdicts(eq)
        assert got["reason"] == "complement not in ker(rho)"


# Hand-made equivalences in which one premise of a read-off check fails
# alone and the check fails too, so that reading the check off its
# premises without that one would pass it.  Bidegrees (i, 0) for
# i = -1, 0, 1; each space has at most one generator per bidegree, and
# d d = 0 on each.
_P, _Z, _O = (-1, 0), (0, 0), (1, 0)
_ONE = {(0, 0): 1}
_FORWARD = ("rho_chain_map", "isom_chain_map", "in_chain_map_target")
_BACK = ("in_chain_map", "isom_chain_map", "isom_invertible",
         "rho_chain_map_target")
_CHAIN = ("rho_in_identity", "homotopy_identity")
_PREMISES_OF = {"composite_chain_map": _FORWARD,
                "composite_chain_map_back": _BACK,
                "in_chain_map": _CHAIN, "rho_chain_map": _CHAIN}
_NOT_ONTO = (
    {_Z: 1}, {}, None, None, None, {_P: 1, _Z: 1}, {_P: _ONE}, None, None,
    None, {_Z: _ONE}, {_Z: _ONE})
# The chain-map cases' C is x at (0, 0) and y at (1, 0) with d x = y; their
# target is one generator and plays no part.  With h y = x,
# d h + h d = id, so the homotopy identity holds wherever in . rho = 0.
_XY, _X_TO_Y = {_Z: 1, _O: 1}, {_Z: _ONE}
_LONE_TARGET = ({_Z: 1}, {}, None, None, None)
# check, case: (C, d, R, in, rho, C', d', R', in_D, rho_D, isom,
# isom_inv[, h]), with None for an identity, each map as {bidegree: block}
# and h zero when left out.  A case is named after the premise that fails,
# except that ``isom_right_inverse`` is the not-onto isom, which fails only
# the isom . isom_inv = id half of ``isom_invertible``.
_PREMISE_CASES = {
    # in = (r -> x), rho = 0: rho . in = 0 on R, and d in r = y, but
    # in d_R = 0
    ("in_chain_map", "rho_in_identity"): (
        _XY, _X_TO_Y, {_Z: 1}, {_Z: _ONE}, {}, *_LONE_TARGET, None, None,
        {_O: _ONE}),
    # in = 0, rho = (y -> s): rho . in = 0 on R, and rho d x = s, but
    # d_R rho = 0
    ("rho_chain_map", "rho_in_identity"): (
        _XY, _X_TO_Y, {_O: 1}, {}, {_O: _ONE}, *_LONE_TARGET, None, None,
        {_O: _ONE}),
    # in = (r -> x), rho = (x -> r): rho . in = id and d_R = 0, but
    # d in r = y, so no h can contract id - in . rho
    ("in_chain_map", "homotopy_identity"): (
        _XY, _X_TO_Y, {_Z: 1}, {_Z: _ONE}, {_Z: _ONE}, *_LONE_TARGET, None,
        None),
    # in = (s -> y), rho = (y -> s): rho . in = id and d_R = 0, but
    # rho d x = s
    ("rho_chain_map", "homotopy_identity"): (
        _XY, _X_TO_Y, {_O: 1}, {_O: _ONE}, {_O: _ONE}, *_LONE_TARGET, None,
        None),
    ("composite_chain_map", "in_chain_map_target"): (
        {_Z: 1}, {}, None, None, None, {_Z: 1, _O: 1}, {_Z: _ONE}, {_Z: 1},
        {_Z: _ONE}, {_Z: _ONE}, {_Z: _ONE}, {_Z: _ONE}),
    ("composite_chain_map", "rho_chain_map"): (
        {_P: 1, _Z: 1}, {_P: _ONE}, {_Z: 1}, {_Z: _ONE}, {_Z: _ONE},
        {_Z: 1}, {}, None, None, None, {_Z: _ONE}, {_Z: _ONE}),
    ("composite_chain_map", "isom_chain_map"): (
        {_P: 1, _Z: 1}, {_P: _ONE}, None, None, None, {_Z: 1}, {}, None,
        None, None, {_Z: _ONE}, {_Z: _ONE}),
    ("composite_chain_map_back", "in_chain_map"): (
        {_Z: 1, _O: 1}, {_Z: _ONE}, {_Z: 1}, {_Z: _ONE}, {_Z: _ONE},
        {_Z: 1}, {}, None, None, None, {_Z: _ONE}, {_Z: _ONE}),
    ("composite_chain_map_back", "isom_chain_map"): (
        {_P: 1, _Z: 1}, {}, None, None, None, {_P: 1, _Z: 1}, {_P: _ONE},
        None, None, None, {_P: _ONE, _Z: _ONE}, {_P: _ONE, _Z: _ONE}),
    ("composite_chain_map_back", "isom_invertible"): (
        {_Z: 1, _O: 1}, {_Z: _ONE}, None, None, None, {_Z: 1}, {}, None,
        None, None, {_Z: _ONE}, {_Z: _ONE}),
    ("composite_chain_map_back", "isom_right_inverse"): _NOT_ONTO,
    ("composite_chain_map_back", "rho_chain_map_target"): (
        {_Z: 1}, {}, None, None, None, {_P: 1, _Z: 1}, {_P: _ONE}, {_Z: 1},
        {_Z: _ONE}, {_Z: _ONE}, {_Z: _ONE}, {_Z: _ONE}),
}


# Isomorphisms on one bidegree, each as (R, R', isom, isom_inv): the
# products name the violation, except for the last two, a true inverse that
# is no signed permutation and a signed permutation with its transpose,
# whose products pass.
_SWAP = {(0, 1): 1, (1, 0): 1}
_ISOM_CASES = {
    "inverse_negated": ({_Z: 1}, {_Z: 1}, {_Z: _ONE}, {_Z: {(0, 0): -1}}),
    "inverse_not_transposed": ({_Z: 2}, {_Z: 2}, {_Z: _SWAP},
                               {_Z: {(0, 0): 1, (1, 1): 1}}),
    "entry_out_of_range": ({_Z: 1}, {_Z: 1}, {_Z: {(1, 1): 1}},
                           {_Z: {(1, 1): 1}}),
    "not_a_signed_permutation": ({_Z: 2}, {_Z: 2},
                                 {_Z: {(0, 0): 1, (0, 1): 1, (1, 1): 1}},
                                 {_Z: {(0, 0): 1, (0, 1): -1, (1, 1): 1}}),
    "signed_permutation": ({_Z: 2}, {_Z: 2}, {_Z: {(0, 1): -1, (1, 0): 1}},
                           {_Z: {(1, 0): -1, (0, 1): 1}}),
}


def _isom_case(r, r_t, isom, isom_inv) -> tuple:
    """The ``_hand_made`` arguments of an isomorphism case: C = R and
    C' = R' with no differential, in and rho identities."""
    return (r, {}, None, None, None, r_t, {}, None, None, None, isom,
            isom_inv)


def _hand_made(c, d, r, in_, rho, c_t, d_t, r_t, in_t, rho_t, isom,
               isom_inv, h=None) -> MoveEquivalence:
    """An equivalence with the given maps and no diagram behind it; h is
    zero when None."""
    r = c if r is None else r
    r_t = c_t if r_t is None else r_t

    def graded(name, src, tgt, blocks, shift=(0, 0)):
        if blocks is None:
            return GradedMap.identity(src, name)
        return GradedMap(name, src, tgt, shift, blocks)

    eq = object.__new__(MoveEquivalence)
    eq.conv, eq.patch = DEFAULT_CONVENTION, object.__new__(_Patch)
    eq.patch.memo = {}
    eq.d_src = graded("d", c, c, d, (1, 0))
    eq.d_tgt = graded("d", c_t, c_t, d_t, (1, 0))
    eq.in_src, eq.rho_src = graded("in", r, c, in_), graded("rho", c, r, rho)
    eq.in_tgt = graded("in_D", r_t, c_t, in_t)
    eq.rho_tgt = graded("rho_D", c_t, r_t, rho_t)
    eq.isom = graded("isom", r, r_t, isom)
    eq.isom_inv = graded("isom_inv", r_t, r, isom_inv)
    eq.h = GradedMap("h", c, c, (-1, 0), h or {})
    return eq


class TestFullViolations:
    """``checks()`` reads both chain-map checks, both composite checks and
    steps 1 and 4 of the decomposition off the identities that imply them,
    and forms the whole-cube products only when a premise fails.  The
    oracle ``helpers.full_violations`` forms every product.  The two must
    give the same report, check for check and violation dict for violation
    dict.  ``isom_invertible`` always forms its two products; isom reads no
    sign field, and every patch's isom is invertible, so it fails only on
    the hand-made ``_ISOM_CASES`` and the not-onto isom."""

    READ_OFF = ("in_chain_map", "rho_chain_map", "composite_chain_map",
                "composite_chain_map_back", "decomposition")

    @pytest.mark.parametrize("diagram,crossings,kind", _search_cases())
    def test_every_candidate(self, diagram, crossings, kind):
        # the 512 candidates share one patch, as in the search; the 256
        # with partner_mid = -1 fail at in's combinations, before any check
        patch = _Patch(diagram, crossings, kind)
        compared = followed = 0
        failed = Counter()
        for conv in default_candidates():
            eq = _equivalence_or_error(patch, conv)
            if isinstance(eq, str):
                continue
            report = eq.checks()
            assert report == full_violations(eq), conv
            compared += 1
            followed += eq._chain_maps_follow()
            failed.update(c["name"] for c in report if not c["pass"])
        assert compared == 256
        # each read-off check that reads a sign field fails for some
        # candidates, so both paths run; the chain-map checks are read off
        # for the candidates whose premises both pass
        assert all(failed[name] >= 128 for name in self.READ_OFF), failed
        assert 0 < followed < compared and failed["isom_invertible"] == 0

    def test_corpus_patches(self, corpus):
        verdicts = Counter()
        for diagram, patch, kind in corpus_patches(corpus):
            for conv in (DEFAULT_CONVENTION, WRONG_PQ):
                eq = MoveEquivalence(_Patch(diagram, patch, kind), conv)
                report = eq.checks()
                assert report == full_violations(eq), (
                    diagram.serialize(), conv.name)
                verdicts.update((c["name"], c["pass"]) for c in report)
        assert all(verdicts[(name, False)] and verdicts[(name, True)]
                   for name in self.READ_OFF), verdicts

    @pytest.mark.parametrize("check,case", list(_PREMISE_CASES))
    def test_each_premise_is_needed(self, check, case):
        # the premise fails alone, and the check forms its products and
        # reports what they give: a failure
        eq = _hand_made(*_PREMISE_CASES[(check, case)])
        premise = ("isom_invertible" if case == "isom_right_inverse"
                   else case)
        premises = _PREMISES_OF[check]
        assert [p for p in premises if eq._shared_check(p)] == [premise]
        d_in = eq.d_src.compose(eq.in_src)
        d_r = eq.rho_src.compose(d_in)
        if check == "in_chain_map":
            full = d_in.first_difference(eq.in_src.compose(d_r))
        elif check == "rho_chain_map":
            full = eq.rho_src.compose(eq.d_src).first_difference(
                d_r.compose(eq.rho_src))
        else:
            if check == "composite_chain_map":
                f, d_src, d_tgt = eq.composite_forward(), eq.d_src, eq.d_tgt
            else:
                f, d_src, d_tgt = eq.composite_backward(), eq.d_tgt, eq.d_src
            full = d_tgt.compose(f).first_difference(f.compose(d_src))
        assert full is not None
        assert eq._shared_check(check) == full

    @pytest.mark.parametrize("case", list(_ISOM_CASES))
    def test_isom_invertible_reports_its_products(self, monkeypatch, case):
        # the check composes isom_inv . isom (and isom . isom_inv when that
        # passes) and reports what they give against the identity on each
        # product's source
        eq = _hand_made(*_isom_case(*_ISOM_CASES[case]))
        left = eq.isom_inv.compose(eq.isom)
        left = left.first_difference(GradedMap.identity(left.src))
        right = eq.isom.compose(eq.isom_inv)
        want = left or right.first_difference(GradedMap.identity(right.src))
        names = []
        original = GradedMap.compose

        def recording(self, other, name=None):
            out = original(self, other, name)
            names.append(out.name)
            return out

        monkeypatch.setattr(GradedMap, "compose", recording)
        assert eq._shared_check("isom_invertible") == want
        assert names == (["isom_inv.isom"] if left else
                         ["isom_inv.isom", "isom.isom_inv"])
        assert (want is None) == (case in ("not_a_signed_permutation",
                                           "signed_permutation"))

    def test_isom_not_onto_fails_isom_invertible(self):
        # isom_inv . isom = id holds, so a check of that product alone
        # passes; isom . isom_inv misses the target's generator at (-1, 0)
        eq = _hand_made(*_NOT_ONTO)
        left = eq.isom_inv.compose(eq.isom)
        assert left.first_difference(GradedMap.identity(left.src)) is None
        violation = {"i": -1, "j": 0, "row": 0, "col": 0, "lhs": 0, "rhs": 1}
        assert eq._shared_check("isom_invertible") == violation
        assert eq._check_isom_invertible() == violation
        # when both products fail, the left product's violation is reported:
        # isom misses the target's generator at (-1, 0) and sends the
        # source's at (1, 0) nowhere
        eq = _hand_made({_Z: 1, _O: 1}, {_Z: _ONE}, None, None, None,
                        {_P: 1, _Z: 1}, {_P: _ONE}, None, None, None,
                        {_Z: _ONE}, {_Z: _ONE})
        assert eq._check_isom_invertible() == {
            "i": 1, "j": 0, "row": 0, "col": 0, "lhs": 0, "rhs": 1}

    def test_identity_is_taken_on_the_source(self):
        # rho . in is compared with the identity on its source, in's: a
        # rho whose target lists no generator sends the retained
        # generator to zero, and rho_in_identity fails there
        eq = _hand_made({_Z: 1}, {}, None, {_Z: _ONE}, {}, {_Z: 1}, {},
                        None, None, None, None, None)
        eq.rho_src = GradedMap("rho", {_Z: 1}, {})
        assert eq._check_rho_in_identity() == {
            "i": 0, "j": 0, "row": 0, "col": 0, "lhs": 0, "rhs": 1}

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_seeded_folds(self, n):
        diagram, patch, kind = _seven_fold(n)
        assert diagram.n == n
        for conv in (DEFAULT_CONVENTION, WRONG_PQ):
            eq = MoveEquivalence(_Patch(diagram, patch, kind), conv)
            report = eq.checks()
            assert report == full_violations(eq), conv.name
            assert all(c["pass"] for c in report) == (conv is
                                                      DEFAULT_CONVENTION)


def _outcome(transport, *args):
    """The result of ``transport(*args)``, or the text it raised."""
    try:
        return transport(*args)
    except AssertionError as exc:
        return f"raised: {exc}"


def _transport_cases():
    """The six corpus R2/R3 patches, and 6-crossing patches: R2 folds of
    grown diagrams and R3 triangles grown away from their sides."""
    from helpers import grow

    with open(default_corpus_path()) as f:
        cases = corpus_patches(json.load(f))
    for k, base in enumerate((TREFOIL, HOPF)):
        folded, _ = apply_move(grow(base, 4, seed=k), MovePatch(
            "R2", "complicate", arcs=(1,)))
        cases.append((folded, (5, 4), "R2"))
    for k, pd in enumerate(("X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]",
                            "X[1,3,2,4] X[2,3,1,6] X[4,6,5,5]")):
        cases.append((grow(parse_pd(pd), 6, seed=k, keep_triangle=True),
                      (0, 1, 2), "R3"))
    assert [d.n for d, _, _ in cases[6:]] == [6, 6, 6, 6]
    return [pytest.param(*case, id=f"{case[2]}-{case[0].n}-{k}")
            for k, case in enumerate(cases)]


def _carry(positions, signs):
    return tuple(signs[p] for p in positions)


def _attach(tables, key, at, value):
    new, positions = tables.attach(key[0], at)
    return new, _carry(positions, key[1] + (value,))


def _drop(tables, key, at):
    new, positions = tables.drop(key[0], at)
    return new, _carry(positions, key[1])


def _bijective(tables, key, new_markers):
    return tuple(new_markers), _carry(tables.bijective(key[0], new_markers),
                                      key[1])


def _cross(tables, key, tgt_markers):
    return tuple(tgt_markers), _carry(tables.cross(key[0], tgt_markers),
                                      key[1])


def _saddle(tables, key, c):
    from helpers import resign

    new, edge = tables.saddle(key[0], c)
    return [((new, signs), 1) for signs in resign(edge, key[1])]


def _mid_sign(tables, key):
    return key[1][tables.mid(key[0])]


class TestTransportTables:
    """``transports.Transports`` resolves each transport once per marker state, into
    sign positions; applied to every generator, a resolution must give what
    the per-generator transport of tests/helpers.py gives, or raise the
    same text, on both sides of the move and under both ordering rules."""

    @pytest.mark.parametrize("rule", ["before", "after"])
    @pytest.mark.parametrize("diagram,crossings,kind", _transport_cases())
    def test_every_generator_matches_per_generator(self, diagram, crossings,
                                                   kind, rule):
        import helpers
        from helpers import saddle

        eq = MoveEquivalence(_Patch(diagram, crossings, kind),
                             replace(DEFAULT_CONVENTION, order_rule=rule))
        sides = [eq.src] if kind == "R2" else [eq.src, eq.tgt]
        compared = raised = 0
        for side in sides:
            tables, cx, arcs = side.tables, side.complex(rule), side.patch_arcs
            circles = cx.circles
            patch_crossings = [side.a, side.b] + (
                [side.c] if side.c is not None else [])
            for key in (k for keys in expand_keys(cx).values() for k in keys):
                pairs = [
                    (_outcome(_attach, tables, key, side.a, value),
                     _outcome(helpers.attach_per_generator, circles, key,
                              side.a, arcs, value))
                    for value in (1, -1)]
                pairs.append((_outcome(_drop, tables, key, side.b),
                              _outcome(helpers.drop_per_generator, circles,
                                       key, side.b, arcs)))
                pairs.append((_outcome(_mid_sign, tables, key),
                              _outcome(helpers.mid_sign_per_generator,
                                       circles, key, arcs)))
                pairs += [(_outcome(_saddle, tables, key, c),
                           _outcome(saddle, cx, key, c))
                          for c in patch_crossings]
                if side.c is not None:
                    markers = list(key[0])
                    markers[side.a], markers[side.c] = 1, -1
                    pairs.append((
                        _outcome(_bijective, tables, key, markers),
                        _outcome(helpers.bijective_per_generator, circles,
                                 key, markers, arcs)))
                if side is eq.src:
                    markers = key[0]
                    targets = [markers[:-2]] if kind == "R2" else [
                        markers, _swapped(markers, side.a, side.b)]
                    pairs += [(_outcome(_cross, tables, key, t),
                               _outcome(helpers.cross_per_generator, circles,
                                        key, eq.tgt_cx.circles, t,
                                        eq.patch.corr))
                              for t in targets]
                for got, want in pairs:
                    assert got == want, (key, got, want)
                    raised += isinstance(want, str)
                compared += len(pairs)
        # every transport resolved from a table, failures included
        assert compared > raised > 0
        assert sum(len(side.tables.resolved) for side in sides) < compared


def _swapped(markers, a, b):
    markers = list(markers)
    markers[a], markers[b] = markers[b], markers[a]
    return tuple(markers)


def _oracle_cases():
    """The corpus R2/R3 patches, R2 folds of the grown trefoil and Hopf
    link at 5, 6 and 7 crossings, and R3 triangles grown away from their
    sides to 6 and 7 crossings."""
    with open(default_corpus_path()) as f:
        cases = corpus_patches(json.load(f))
    for n in (5, 6, 7):
        for k, base in enumerate((TREFOIL, HOPF)):
            folded, _ = apply_move(grow(base, n - 2, seed=10 * n + k),
                                   MovePatch("R2", "complicate", arcs=(1,)))
            cases.append((folded, (n - 1, n - 2), "R2"))
    for n in (6, 7):
        for k, pd in enumerate(("X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]",
                                "X[1,3,2,4] X[2,3,1,6] X[4,6,5,5]")):
            cases.append((grow(parse_pd(pd), n, seed=n + k,
                               keep_triangle=True), (0, 1, 2), "R3"))
    return [pytest.param(*case, id=f"{case[2]}-{case[0].n}-{k}")
            for k, case in enumerate(cases)]


class TestPerStateBuilders:
    """``_Side`` writes each map a run of generators (one marker state, one
    tau) at a time from the cube's rank tables; the per-generator builders
    of tests/helpers.py (``per_generator_side``, with the isomorphism, its
    inverse, the support check and the complement built key by key) are
    their oracle.  Every map must equal the oracle's entry for entry, the
    index in its order too, and a failed build must raise the oracle's
    message."""

    @pytest.mark.parametrize("diagram,crossings,kind", _search_cases())
    def test_every_candidate_matches_per_generator(self, diagram, crossings,
                                                   kind):
        from helpers import check_per_generator, map_builds, per_generator_side

        patch = _Patch(diagram, crossings, kind)
        sides = (per_generator_side(patch.src), per_generator_side(patch.tgt))
        seen, failed = set(), 0
        for conv in default_candidates():
            want = map_builds(patch, conv, sides)
            assert map_builds(patch, conv) == want, conv
            eq = _equivalence_or_error(patch, conv)
            if isinstance(eq, str):
                # the first failed build, in the order the maps are built
                assert eq == next(v for v in want.values()
                                  if isinstance(v, str))
                failed += 1
                continue
            check_per_generator(eq, seen)
        # the 256 candidates with partner_mid = -1, at least, fail
        assert 256 <= failed < 512

    @pytest.mark.parametrize("diagram,crossings,kind", _oracle_cases())
    def test_corpus_and_folds_match_per_generator(self, diagram, crossings,
                                                  kind):
        from helpers import check_per_generator, map_builds, per_generator_side
        from khovanov.cli import CONVENTIONS

        patch = _Patch(diagram, crossings, kind)
        sides = (per_generator_side(patch.src), per_generator_side(patch.tgt))
        seen = set()
        for conv in (CONVENTIONS["default"], CONVENTIONS["wrong-pq"]):
            want = map_builds(patch, conv, sides)
            assert not any(isinstance(v, str) for v in want.values())
            assert map_builds(patch, conv) == want, conv.name
            check_per_generator(MoveEquivalence(patch, conv), seen)

    @pytest.mark.parametrize("transport,helper", [
        ("attach", "attach_per_generator"),
        ("drop", "drop_per_generator"),
        ("bijective", "bijective_per_generator"),
        ("cross", "cross_per_generator"),
        ("saddle", "saddle"),
        ("mid", "mid_sign_per_generator"),
    ])
    @pytest.mark.parametrize("diagram,crossings,kind", [
        pytest.param(*_oracle_cases()[8].values, id="R2-6"),
        pytest.param(*_oracle_cases()[12].values, id="R3-6"),
        pytest.param(*_oracle_cases()[15].values, id="R3-7"),
    ])
    def test_failed_builds_name_the_first_state_in_generator_order(
            self, monkeypatch, diagram, crossings, kind, transport, helper):
        # every resolution of one transport fails, with a message that
        # names its marker state; the per-generator oracle fails the same
        # way at each generator.  Each build that needs the transport must
        # then fail at the first marker state that generator order (by
        # bidegree, then by markers) reaches, as the oracle does.
        import helpers
        from khovanov import transports
        from helpers import map_builds, per_generator_side

        def fail(markers):
            raise AssertionError(f"{transport} fails at {tuple(markers)}")

        monkeypatch.setattr(transports.Transports, "_resolve_" + transport,
                            lambda tables, markers, arg: fail(markers))
        # each per-generator transport takes the generator's key second
        monkeypatch.setattr(helpers, helper, lambda *args: fail(args[1][0]))
        patch = _Patch(diagram, crossings, kind)
        sides = (per_generator_side(patch.src), per_generator_side(patch.tgt))
        failures = 0
        for conv in (DEFAULT_CONVENTION,
                     replace(DEFAULT_CONVENTION, active_mid=1),
                     replace(DEFAULT_CONVENTION, partner_mid=-1)):
            want = map_builds(patch, conv, sides)
            assert map_builds(patch, conv) == want, conv
            failures += sum(isinstance(v, str) and v.startswith(transport)
                            for v in want.values())
        # only R3's rho carries 'xab' keys across, bijectively
        assert failures if transport != "bijective" or kind == "R3" \
            else not failures


class TestRunPlacement:
    """A complex lists no generator: its runs are its only placement.
    ``cells()`` must cover the rows 0..dim-1 of every bidegree exactly once,
    in order, and ``KhovanovComplex.entry`` must give each run's bidegree
    and first row as ``cells()`` does; and each side's run-keyed retained
    index, expanded key by key, must be the per-generator oracle's index,
    in its order."""

    @staticmethod
    def assert_placed(cx):
        walked, ends = [], {}
        for bd, markers, tau, run, row0 in cx.cells():
            walked.append(bd)
            assert row0 == ends.get(bd, 0), (bd, markers, tau)
            assert run and all(sum(signs) == tau and len(signs) == len(
                cx.circles[markers]) for signs in run)
            ends[bd] = row0 + len(run)
            assert cx.entry(markers, tau) == (bd, row0)
        assert walked == sorted(walked)   # each bidegree's runs together
        assert ends == cx.dims and sorted(ends) == cx.bidegrees()
        assert sum(ends.values()) == cx.total_dim() == len(key_index(cx))

    def test_corpus_and_twins(self, corpus):
        for entry in corpus:
            cx = build_complex(parse_pd(entry["pd"]))
            for placed in (cx, after_twin(cx)):
                self.assert_placed(placed)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_seeded_folds(self, n):
        # both cubes of the patch, under both ordering rules
        patch = _Patch(*_seven_fold(n))
        for side in (patch.src, patch.tgt):
            for rule in ("before", "after"):
                self.assert_placed(side.complex(rule))

    @pytest.mark.parametrize("diagram,crossings,kind", _search_cases() + [
        pytest.param(*_seven_fold(n), id=f"seven-fold-{n}")
        for n in (5, 6, 7, 8)])
    def test_retained_index_expands_to_oracle_keys(self, diagram, crossings,
                                                   kind):
        from helpers import per_generator_side

        patch = _Patch(diagram, crossings, kind)
        for side in (patch.src, patch.tgt):
            want = per_generator_side(side).index()
            assert list(expanded_index(side).items()) == list(want.items())
