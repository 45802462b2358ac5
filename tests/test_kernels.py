from khovanov import kernels, parse_pd
from khovanov.states import trace_circles

from helpers import random_diagrams


def reference_counts(diagram):
    out = []
    for mask in range(1 << diagram.n):
        markers = tuple(
            -1 if (mask >> k) & 1 else 1 for k in range(diagram.n)
        )
        out.append(len(trace_circles(diagram, markers)))
    return out


def test_python_kernel_matches_tracer():
    for d in random_diagrams(seed=55, count=15):
        assert kernels.census_circle_counts(d) == reference_counts(d)


def test_loops_only_diagram():
    d = parse_pd("O O O")
    assert kernels.census_circle_counts(d) == [3]
