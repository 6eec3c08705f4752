"""Every name a fuzzydea module imports is used there, exported by its
__all__, or rebound there by the benchmark's tracer.

No linter runs on this package, so this is what keeps an import that a
refactor left behind from lingering.  perfbench/tracing.py rebinds
names by (module, attribute); an import that only the tracer needs is
allowed for that module alone, and carries a comment saying so; the
list of such imports may shrink but not grow.  It also checks that the
package calls the kernel from ccr._search alone and reads its failure
statuses in ccr alone, that only the process entry, cli.run, freezes
the collector, and that importing fuzzydea loads numpy, which the
benchmark's set-up probe relies on.  A ratchet keeps the dataset in one
form, its names and bounds, and caps the package's dataclasses;
another keeps importlib.resources out of the package.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fuzzydea import ccr, cli
from fuzzydea._speedups import pure
from test_trace_names import load_traced

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "fuzzydea"
MODULES = sorted(SRC.rglob("*.py"))

# Every (module, name) that src/ imports only for the tracer to rebind.
# ROADMAP item 1 retargets the tracer and deletes them; until then this
# set may lose members but gain none.
TRACER_ONLY = {
    ("alphacut", "ccr_efficiency"),
    ("ccr", "LpProblem"),
    ("ccr", "solve"),
    ("cli", "ccr_efficiency"),
    ("cli", "modal_reduce"),
    ("mofdea", "ccr_efficiency"),
}


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


def _unused_imports(path):
    """Each (name, line) that the module at path imports but neither uses
    nor exports."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    keep = used | _all(tree)
    return [(name, line) for name, line in _imported(tree) if name not in keep]


def _traced(module):
    return {attr for mod, attr, _ in load_traced() if mod == module}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used_exported_or_traced(path):
    traced = _traced(_module_name(path))
    unused = [(name, line) for name, line in _unused_imports(path) if name not in traced]
    assert unused == [], f"{path.relative_to(SRC)}: unused imports {unused}"


def test_no_new_tracer_only_import():
    found = set()
    for path in MODULES:
        module = _module_name(path)
        traced = _traced(module)
        found |= {(module, name) for name, _ in _unused_imports(path) if name in traced}
    assert found <= TRACER_ONLY, f"new tracer-only imports {sorted(found - TRACER_ONLY)}"


def test_one_call_site_reaches_the_kernel():
    # Every LP of every model goes through ccr._search, so rebinding
    # ccr.default_mo_solve (or tracing ccr._search) sees them all.
    calls = [
        _module_name(path)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "default_mo_solve"
    ]
    assert calls == ["ccr"]
    assert "default_mo_solve(" in inspect.getsource(ccr._search)


def test_one_module_reads_the_kernel_failure_statuses():
    # ccr._raise is the one place a kernel failure becomes an error, so a
    # new failure status is a status in both kernels and a branch there.
    # linprog's own simplex reads OPTIMAL and UNBOUNDED.
    statuses = {name for name, value in vars(pure).items()
                if name.isupper() and isinstance(value, int)} - {"KERNEL_API"}
    imports = {
        (_module_name(path), alias.name)
        for path in MODULES
        if not _module_name(path).startswith("_speedups")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("_speedups.pure")
        for alias in node.names
        if alias.name in statuses
    }
    outside = {(module, name) for module, name in imports if module != "ccr"}
    assert outside <= {("linprog", "OPTIMAL"), ("linprog", "UNBOUNDED")}, sorted(outside)


def test_a_dataset_is_its_names_and_bounds():
    # A cell is (lower, modal, upper) in a dataset's bounds; no object form
    # of a cell, a unit or an interval is left.  ROADMAP item 15 lowers the
    # dataclass cap to 0.
    trees = {_module_name(path): ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in MODULES}
    assert not [n.name for n in ast.walk(trees["trifuzzy"]) if isinstance(n, ast.ClassDef)]
    gone = {"FuzzyDmu", "TriFuzzy", "Interval", "OrderingViolation"}
    found = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                names = {node.name}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {name for alias in node.names for name in (alias.name, alias.asname)}
            else:
                continue
            found |= {(module, name) for name in names & gone}
    assert not found, sorted(found)
    dataclasses = [
        module
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        for deco in node.decorator_list
        if "dataclass" in ast.unparse(deco)
    ]
    assert len(dataclasses) <= 6, dataclasses


def test_no_module_imports_importlib_resources():
    # The fixtures sit in the package directory, so their path needs no
    # importlib.resources, which numpy does not import either: every
    # process would load it for the package alone.
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(f"{name}.".startswith("importlib.resources.") for name in names):
                found.append((_module_name(path), node.lineno))
    assert not found, found


def test_only_the_process_entry_freezes_the_heap():
    # gc.freeze() puts every live object out of the collector's reach for
    # good.  Only a process that is about to exit may do that; cli.main
    # runs in-process for the tests, the benchmark and library callers.
    calls = [
        _module_name(path)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "freeze"
    ]
    assert calls == ["cli"]
    assert "gc.freeze()" in inspect.getsource(cli.run)
    # Every process entry goes through cli.run.
    assert "run()" in (SRC / "__main__.py").read_text(encoding="utf-8")
    assert 'fuzzydea = "fuzzydea.cli:run"' in (REPO / "pyproject.toml").read_text(encoding="utf-8")


def test_import_fuzzydea_keeps_numpy_loaded():
    # perfbench/run.py's set-up probe reads sys.modules['numpy'] right
    # after `import fuzzydea`, so an import that leaves numpy out would
    # fail every benchmark run with "cannot import fuzzydea".  The
    # numpy-free import of ROADMAP item 8 has to change that probe first.
    code = "import sys, fuzzydea; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr
