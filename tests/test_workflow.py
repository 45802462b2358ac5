"""The CI workflow's inline Python steps (``python - <<'EOF'`` heredocs of
``.github/workflows/tier1.yml``) run only in CI, so a helper renamed or
deleted here would break them unseen.  Each script must compile, and every
name it imports ``from`` a module, and every attribute it reads off an
imported module, must exist, with ``src``, ``tests`` and ``perfbench`` on
the path as the steps put them.  Nothing is run."""

import ast
import importlib
import re
import textwrap
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
HEREDOC = re.compile(r"python - [^\n]*<<'EOF'\n(.*?)^[ \t]*EOF$",
                     re.S | re.M)


def heredocs(text) -> list[str]:
    """The dedented body of every ``python - <<'EOF'`` heredoc of
    ``text``."""
    return [textwrap.dedent(body) for body in HEREDOC.findall(text)]


def unresolved(source, name="<heredoc>") -> list[str]:
    """The names ``source`` imports from a module, and the attributes it
    reads off an imported module, that do not exist, as "module.name"."""
    compile(source, name, "exec")
    tree = ast.parse(source, name)
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module = importlib.import_module(alias.name)
                if alias.asname:
                    modules[alias.asname] = module
                else:  # ``import a.b`` binds ``a``
                    top = alias.name.split(".")[0]
                    modules[top] = importlib.import_module(top)
        elif isinstance(node, ast.ImportFrom):
            module = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    value = getattr(module, alias.name)
                except AttributeError:
                    try:  # a submodule not yet loaded
                        value = importlib.import_module(
                            f"{node.module}.{alias.name}")
                    except ImportError:
                        missing.append(f"{node.module}.{alias.name}")
                        continue
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{node.value.id}.{node.attr}")
    return missing


@pytest.fixture
def step_path(monkeypatch):
    for sub in ("perfbench", "tests", "src"):
        monkeypatch.syspath_prepend(str(ROOT / sub))


def test_every_heredoc_compiles_and_resolves(step_path):
    text = WORKFLOW.read_text(encoding="utf-8")
    scripts = heredocs(text)
    # the pattern must find every heredoc the workflow opens
    assert scripts and len(scripts) == text.count("<<'EOF'")
    for k, source in enumerate(scripts):
        assert unresolved(source, f"heredoc {k}") == [], k


def test_a_deleted_helper_is_named(step_path):
    source = textwrap.dedent("""\
        import helpers
        from khovanov.moves import MoveEquivalence, no_such_name
        helpers.full_violations, helpers.no_such_helper
        """)
    assert unresolved(source) == ["khovanov.moves.no_such_name",
                                  "helpers.no_such_helper"]
