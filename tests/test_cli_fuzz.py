"""Fuzzing the CLI's input readers: random PD texts for ``homology
--check-euler``, ``jones`` and ``verify-move``, and random manifest rows for
``corpus``.  Every run must end with one of the documented exit codes (0
pass, 1 verification failure, 2 parse error, 3 patch mismatch) and raise
nothing else."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from khovanov.cli import main  # noqa: E402

EXIT_CODES = (0, 1, 2, 3)

JUNK = st.sampled_from(["O", "X[", "]", ",", "X[1,2]", "X[]", "Y[1,2,3,4]",
                        "X[1,,2,3]", "X[a,b,c,d]", "x", ";", "X[1 2 3 4]"])


def run(argv) -> int:
    """The exit code of one CLI run, an argument error's included; any other
    exception propagates."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            return exc.code


def mostly(good, bad):
    """``good`` three times in four, ``bad`` otherwise."""
    return st.integers(0, 3).flatmap(lambda k: good if k else bad)


@st.composite
def pd_texts(draw):
    """A PD text: up to 6 ``X[...]`` terms, mixed with up to 2 ``O`` loops
    and up to 2 pieces of junk, in any order.  The terms either take 3 to 5
    labels near 1..2n each, or share out each of 1..2n twice, four to a
    term, so that some texts are diagrams."""
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        labels = draw(st.permutations(list(range(1, 2 * n + 1)) * 2))
        terms = [labels[k:k + 4] for k in range(0, 4 * n, 4)]
    else:
        terms = draw(st.lists(st.lists(st.integers(-1, 2 * n + 1),
                                       min_size=3, max_size=5),
                              min_size=n, max_size=n))
    pieces = ["X[" + ",".join(map(str, ends)) + "]" for ends in terms]
    pieces += ["O"] * draw(st.integers(0, 2))
    pieces += draw(st.lists(JUNK | st.text("X[]O,0123456789 ", max_size=6),
                            max_size=2))
    return " ".join(draw(st.permutations(pieces)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pd_texts(), st.sampled_from(["R1", "R2", "R3", "r2"]),
       st.lists(st.integers(-1, 6), min_size=1, max_size=3),
       st.booleans())
def test_pd_readers_end_with_an_exit_code(pd, kind, ids, search):
    assert run(["homology", pd, "--check-euler"]) in EXIT_CODES
    assert run(["--format", "json", "jones", pd]) in EXIT_CODES
    argv = ["verify-move", pd, kind, *map(str, ids)]
    assert run(argv + ["--search"] * search) in EXIT_CODES


JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                        st.floats(allow_nan=False), st.text(max_size=3))

NAMES = st.sampled_from(["a", "b", "c"])
SMALL = st.integers(-3, 3)
# diagrams with an R1 kink, an R2 bigon or an R3 triangle, so that some
# rows' moves match
DIAGRAMS = st.sampled_from(["O", "X[1,1,2,2]", "X[2,3,3,4] X[1,1,2,4]",
                            "X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]",
                            "X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]"])

ROWS = st.fixed_dictionaries(
    {"name": mostly(NAMES, JSON_VALUES),
     "pd": mostly(DIAGRAMS, pd_texts() | JSON_VALUES)},
    optional={
        "jones": mostly(st.dictionaries(
            st.sampled_from(["0", "1", "-1", "2", "01", "x"]),
            mostly(SMALL, JSON_VALUES), max_size=2), JSON_VALUES),
        "homology": mostly(st.lists(st.fixed_dictionaries(
            {"i": mostly(SMALL, JSON_VALUES), "j": mostly(SMALL, JSON_VALUES),
             "rank": mostly(SMALL, JSON_VALUES)},
            optional={"torsion": st.lists(mostly(SMALL, JSON_VALUES),
                                          max_size=2)}),
            max_size=2), JSON_VALUES),
        "moves": mostly(st.lists(st.fixed_dictionaries(
            {"kind": st.sampled_from(["R1", "R2", "R3", "R4"]),
             "patch": st.lists(st.integers(-1, 3), max_size=3)},
            optional={"partner": mostly(NAMES, JSON_VALUES)}),
            max_size=2), JSON_VALUES),
    })


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mostly(st.lists(mostly(ROWS, JSON_VALUES), max_size=3), JSON_VALUES),
       st.booleans())
def test_corpus_reader_ends_with_an_exit_code(manifest, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "manifest.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(manifest, f)
        argv = ["--format", "json"] * as_json + ["corpus", path]
        assert run(argv) in EXIT_CODES
