"""The benchmark's tracer wraps package entry points by module and name
(``perfbench/spans.py``, ``ENTRY_POINTS``).  A rename or a module that is
no longer loaded with the package breaks traced runs, so check here that
every target exists and that the tracer installs and uninstalls cleanly."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import khovanov

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# the directory holding the ``khovanov`` package this session imported
PACKAGE_ROOT = str(Path(khovanov.__file__).resolve().parents[1])


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_entry_points_exist_and_install():
    spans = load_spans()
    originals = {}
    for name, (modname, attr, _) in spans.ENTRY_POINTS.items():
        assert modname in sys.modules, name
        originals[name] = getattr(sys.modules[modname], attr)
        assert callable(originals[name]), name
    moves = sys.modules["khovanov.moves"].MoveEquivalence
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert khovanov.jones_kauffman is not originals["states.jones_kauffman"]
    finally:
        tracer.uninstall()
    for name, (modname, attr, _) in spans.ENTRY_POINTS.items():
        assert getattr(sys.modules[modname], attr) is originals[name], name
    assert sys.modules["khovanov.moves"].MoveEquivalence is moves
    assert khovanov.jones_kauffman is originals["states.jones_kauffman"]


def test_fresh_import_loads_every_traced_module():
    # the test suite itself imports more modules than the benchmark does,
    # so check in a fresh interpreter what ``import khovanov`` loads
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import khovanov; print(' '.join(sorted(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code, PACKAGE_ROOT],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    loaded = set(out.stdout.split())
    for name, (modname, _, _) in load_spans().ENTRY_POINTS.items():
        assert modname in loaded, name


def test_traced_search_counts_every_candidate(capsys):
    # the traced benchmark subclasses ``MoveEquivalence``, and its
    # ``moves.candidates`` counts the constructions inside the convention
    # search: a traced run must print what an untraced one prints and count
    # all 512 candidates
    from khovanov import cli

    argv = ["--format", "json", "verify-move",
            "X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]", "R3", "0", "1", "2",
            "--search"]
    assert cli.main(argv) == 0
    untraced = capsys.readouterr().out
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        rc = cli.main(argv)
    finally:
        tracer.uninstall()
    assert rc == 0
    assert capsys.readouterr().out == untraced
    assert sum(value for _, name, value in tracer.counts
               if name == "moves.candidates") == 512


def test_traced_verify_move_counts_each_complex(capsys, monkeypatch):
    # ``complexes.generators`` and ``complexes.nnz`` are read off each
    # complex that ``build_complex`` returns, and the tracer leaves out a
    # field the complex no longer has rather than failing the op: so a
    # renamed field would set both to 0 without this check.  A traced R3
    # report builds the two cubes of its patch, and must count each one's
    # generators and nonzero entries of d.
    from khovanov import cli, moves

    patches = []
    init = moves._Patch.__init__
    monkeypatch.setattr(moves._Patch, "__init__", lambda patch, *args:
                        patches.append(patch) or init(patch, *args))
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        rc = cli.main(["--format", "json", "verify-move",
                       "X[1,5,2,4] X[2,5,3,6] X[3,1,4,6]", "R3", "0", "1",
                       "2"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rc == 0
    [patch] = patches
    cubes = [patch.src.cube, patch.tgt.cube]

    def counted(name):
        return [value for _, key, value in tracer.counts if key == name]

    assert counted("complexes.builds") == [1] * len(cubes)
    want = sorted((cx.total_dim(),
                   sum(1 for block in cx.diffs.values()
                       for v in block.values() if v)) for cx in cubes)
    assert sorted(zip(counted("complexes.generators"),
                      counted("complexes.nnz"))) == want
    assert all(generators > 0 and nnz > 0 for generators, nnz in want)
