"""Property tests on random braid closures: the incremental crossing order
of the frontier Jones sum against its O(n^2) definition, and the frontier
sum against the refined state sum, its independent oracle."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from khovanov import from_braid, jones_kauffman, jones_refined  # noqa: E402
from khovanov.states import _greedy_order  # noqa: E402

from helpers import greedy_order_rescan  # noqa: E402


@st.composite
def braids(draw):
    """(word, strands): up to 12 letters +-i on 2 to 5 strands; a position
    that no letter touches closes to a crossingless loop."""
    strands = draw(st.integers(2, 5))
    letter = st.integers(1, strands - 1).flatmap(
        lambda i: st.sampled_from((i, -i)))
    return draw(st.lists(letter, max_size=12)), strands


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(braids())
def test_greedy_order_and_frontier_sum(braid):
    d = from_braid(*braid)
    assert _greedy_order(d) == greedy_order_rescan(d)
    assert jones_kauffman(d) == jones_refined(d)
