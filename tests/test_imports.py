"""Every name a fuzzydea module imports is used there, exported by its
__all__, or rebound there by the benchmark's tracer.

No linter runs on this package, so this is what keeps an import that a
refactor left behind from lingering.  perfbench/tracing.py rebinds
names by (module, attribute); an import that only the tracer needs is
allowed for that module alone, and carries a comment saying so.
"""

import ast
from pathlib import Path

import pytest

from test_trace_names import load_traced

SRC = Path(__file__).resolve().parent.parent / "src" / "fuzzydea"
MODULES = sorted(SRC.rglob("*.py"))


def _module_name(path):
    """The dotted name under fuzzydea, as TRACED spells it ("cli", "_speedups.pure")."""
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported(tree):
    """Each name an import binds in the module, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a.
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used_exported_or_traced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    module = _module_name(path)
    traced = {attr for mod, attr, _ in load_traced() if mod == module}
    keep = used | _all(tree) | traced
    unused = [(name, line) for name, line in _imported(tree) if name not in keep]
    assert unused == [], f"{path.relative_to(SRC)}: unused imports {unused}"
