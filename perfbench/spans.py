"""Spans around the calls into each layer, and the per-layer metrics.

A traced run replaces every reference that the ``khovanov`` modules hold to
a layer's public entry point with a wrapper that records a span (name,
start, end, parent span, op id) and the layer's counts.  Spans are kept in
memory and written out when the run ends.  No source file of the package
changes and the wrappers sit on the boundaries between modules, so the CLI
performs each op as it does untraced.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager


def _complex_size(cx) -> dict:
    """Generators and nonzero differential entries of a built complex.  A
    field the complex no longer has is left out rather than failing the op."""
    try:
        return {"complexes.generators": cx.total_dim(),
                "complexes.nnz": sum(len(b) for b in cx.diffs.values())}
    except AttributeError:
        return {}


def _largest_block(cx) -> dict:
    """The largest bidegree of a complex handed to ``homology_groups``."""
    try:
        return {"homology.largest_block":
                max((cx.dim(bd) for bd in cx.bidegrees()), default=0)}
    except AttributeError:
        return {}


# span name -> (module, attribute) of the wrapped entry point, and the
# counts taken from its arguments and result
ENTRY_POINTS = {
    "diagram.parse": ("khovanov.diagram", "parse_pd", None),
    "kernels.census": ("khovanov.kernels", "census_circle_counts", None),
    "states.jones_kauffman": (
        "khovanov.states", "jones_kauffman",
        lambda args, result: {"states.marker_states": 1 << args[0].n}),
    "complexes.build": (
        "khovanov.complexes", "build_complex",
        lambda args, result: {"complexes.builds": 1, **_complex_size(result)}),
    "complexes.d_squared": ("khovanov.complexes", "verify_d_squared", None),
    "complexes.euler": ("khovanov.complexes", "graded_euler", None),
    "homology.snf": ("khovanov.homology", "homology_groups",
                     lambda args, result: _largest_block(args[0])),
    "homology.compare": ("khovanov.homology", "compare_tables", None),
    "moves.convention_search": ("khovanov.moves", "convention_search", None),
}

PER_LAYER = (
    ("setup.import_s", "s"),
    ("setup.generate_s", "s"),
    ("diagram.parse_s", "s"),
    ("kernels.census_s", "s"),
    ("states.jones_kauffman_s", "s"),
    ("states.jones_self_s", "s"),
    ("states.marker_states", "count"),
    ("complexes.build_s", "s"),
    ("complexes.builds", "count"),
    ("complexes.generators", "count"),
    ("complexes.nnz", "count"),
    ("complexes.d_squared_s", "s"),
    ("complexes.euler_s", "s"),
    ("homology.snf_s", "s"),
    ("homology.largest_block", "count"),
    ("moves.equivalence_s", "s"),
    ("moves.identity_checks_s", "s"),
    ("moves.decomposition_s", "s"),
    ("moves.invariance_s", "s"),
    ("moves.convention_search_s", "s"),
    ("moves.candidates", "count"),
    ("cli.self_s", "s"),
    ("traced.wall_s", "s"),
)


class Tracer:
    """Spans and counts of one run, tagged with the current op id."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op id]
        self.counts = []       # (op id, name, value)
        self.op = "setup"
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value):
        self.counts.append((self.op, name, value))

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # -- patching ------------------------------------------------------------

    def _replace(self, original, replacement):
        """Point every reference a ``khovanov`` module holds to ``original``
        at ``replacement``."""
        for modname, module in list(sys.modules.items()):
            if modname != "khovanov" and not modname.startswith("khovanov."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def _wrap(self, name, fn, counts):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counts:
                for key, value in counts(args, result).items():
                    self.count(key, value)
            return result

        return traced

    def install(self):
        for name, (modname, attr, counts) in ENTRY_POINTS.items():
            fn = getattr(sys.modules[modname], attr)
            self._replace(fn, self._wrap(name, fn, counts))
        moves = sys.modules["khovanov.moves"]
        self._replace(moves.MoveEquivalence,
                      _traced_equivalence(self, moves.MoveEquivalence))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _traced_equivalence(tracer: Tracer, base):
    """MoveEquivalence whose construction and checks are spans, except inside
    the convention search, where each construction counts one candidate.
    ``checks()`` runs the identity checks alone first, so that the
    decomposition check's share is the difference of two spans."""

    class TracedEquivalence(base):
        def __init__(self, *args, **kwargs):
            if tracer.inside("moves.convention_search"):
                tracer.count("moves.candidates", 1)
                super().__init__(*args, **kwargs)
                return
            with tracer.span("moves.equivalence"):
                super().__init__(*args, **kwargs)

        def checks(self, include_decomposition=True):
            if tracer.inside("moves.convention_search"):
                return super().checks(include_decomposition)
            with tracer.span("moves.identity_checks"):
                out = super().checks(include_decomposition=False)
            if not include_decomposition:
                return out
            with tracer.span("moves.checks"):
                return super().checks(include_decomposition=True)

    return TracedEquivalence


def per_layer_metrics(tracer: Tracer, traced_wall: float, scale: float) -> dict:
    """Per-layer metrics.  Op ids are (round, index, op kind); each time and
    count is a total over one round of ops, and the value reported is the
    median over the run's rounds.  Set-up figures are for the one set-up of
    the traced process.  Span times are multiplied by ``scale``, the run's
    host-speed factor (see hostspeed.py).  ``traced_wall`` is the traced
    run's ``wall_s``, so that the tracing overhead is its ratio to the
    untraced one."""
    spans = tracer.spans
    setup, per_round = {}, {}

    def bucket(op):
        return setup if op == "setup" else per_round.setdefault(op[0], {})

    def add(op, key, value):
        b = bucket(op)
        b[key] = b.get(key, 0) + value

    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent is not None:
            child_time[parent] += end - start
    for idx, (name, start, end, parent, op) in enumerate(spans):
        dur = end - start
        add(op, name, dur)
        if name in ("cli.main", "states.jones_kauffman"):
            add(op, name + ".self", dur - child_time[idx])
        elif (name in ("complexes.build", "homology.snf", "homology.compare")
              and parent is not None and spans[parent][0] == "cli.main"
              and op[2] in ("verify", "search", "reject")):
            # verify-move's own homology comparison of the two diagrams
            add(op, "moves.invariance", dur)
    for op, name, value in tracer.counts:
        if name == "homology.largest_block":
            b = bucket(op)
            b[name] = max(b.get(name, 0), value)
        else:
            add(op, name, value)

    def median(key):
        return statistics.median(r.get(key, 0) for r in per_round.values()) \
            if per_round else 0

    values = {
        "setup.import_s": setup.get("setup.import", 0),
        "setup.generate_s": setup.get("setup.generate", 0),
        "diagram.parse_s": setup.get("diagram.parse", 0),
        "states.jones_self_s": median("states.jones_kauffman.self"),
        "moves.decomposition_s": (median("moves.checks")
                                  - median("moves.identity_checks")),
        "cli.self_s": median("cli.main.self"),
        "traced.wall_s": traced_wall,
    }
    out = {}
    for metric, unit in PER_LAYER:
        value = values.get(metric)
        if value is None:
            value = median(metric[:-2] if unit == "s" else metric)
        if unit == "s" and metric != "traced.wall_s":
            value *= scale
        out[metric] = {"value": value, "unit": unit}
    return out
