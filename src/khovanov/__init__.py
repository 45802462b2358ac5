"""Integral Khovanov homology of link diagrams, computed tangle by tangle
(``tangle_homology``), with machine-checked chain homotopy equivalences for
Reidemeister moves II and III on the whole cube of enhanced Kauffman states
(``build_complex``)."""

__version__ = "0.1.0"

# imported with the package: perfbench/spans.py wraps its census by name
from . import kernels  # noqa: F401

from .complexes import (
    GradedMap,
    KhovanovComplex,
    build_complex,
    graded_euler,
    verify_d_squared,
)
from .diagram import (
    DiagramError,
    LinkDiagram,
    MovePatch,
    PatchMismatchError,
    PDSyntaxError,
    apply_move,
    from_braid,
    parse_pd,
)
from .homology import (
    HomologyTable,
    SmithDecomposition,
    compare_tables,
    homology_groups,
    smith_normal_form,
)
from .moves import (
    DEFAULT_CONVENTION,
    MoveEquivalence,
    SignConvention,
    convention_search,
)
from .states import (
    LaurentPoly,
    jones_kauffman,
    jones_refined,
    trace_circles,
)
from .tangles import tangle_homology
