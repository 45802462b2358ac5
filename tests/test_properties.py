"""Property tests on random braid closures: the incremental crossing order
of the frontier Jones sum against its O(n^2) definition, the frontier sum
against the refined state sum, its independent oracle, and the "after"
ordering rule's complex, derived from the built cube by a sign per degree,
against the per-state oracle."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from khovanov import (  # noqa: E402
    build_complex,
    from_braid,
    jones_kauffman,
    jones_refined,
)
from khovanov.complexes import after_twin  # noqa: E402
from khovanov.states import _greedy_order  # noqa: E402

from helpers import build_complex_per_state, greedy_order_rescan  # noqa: E402


@st.composite
def braids(draw, max_letters=12, max_strands=5):
    """(word, strands): up to ``max_letters`` letters +-i on 2 to
    ``max_strands`` strands; a position that no letter touches closes to a
    crossingless loop."""
    strands = draw(st.integers(2, max_strands))
    letter = st.integers(1, strands - 1).flatmap(
        lambda i: st.sampled_from((i, -i)))
    return draw(st.lists(letter, max_size=max_letters)), strands


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(braids())
def test_greedy_order_and_frontier_sum(braid):
    d = from_braid(*braid)
    assert _greedy_order(d) == greedy_order_rescan(d)
    assert jones_kauffman(d) == jones_refined(d)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(braids(max_letters=7, max_strands=4))
def test_after_twin_matches_per_state_oracle(braid):
    d = from_braid(*braid)
    twin = after_twin(build_complex(d))
    oracle = build_complex_per_state(d, "after")
    assert (twin.gens, twin.index, twin.diffs) == \
        (oracle.gens, oracle.index, oracle.diffs)
