"""The process entry and the in-place build.

`python -m fuzzydea`, `python -m fuzzydea.cli` and the `fuzzydea`
script go through cli.run, which freezes the import-time heap and then
calls cli.main.  A fresh process must print the bytes, and exit with
the code, that cli.main gives in-process, while cli.main itself leaves
the collector as it found it.  `setup.py build_ext --inplace` also
writes the package's bytecode, so that fresh processes run under
PYTHONDONTWRITEBYTECODE=1 do not compile the package again.
"""

import contextlib
import gc
import importlib.util
import io
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from fuzzydea import cli
from test_golden import CASES, GOLDEN

REPO = Path(__file__).resolve().parent.parent

COMMANDS = (
    ["eval", "--model", "ccr"],
    ["eval", "--model", "alpha"],
    ["eval", "--model", "mo"],
    ["zstar"],
    ["compare"],
)

# One golden per subcommand and format, each through `python -m fuzzydea`,
# plus one through `python -m fuzzydea.cli`.
GOLDEN_ARGV = dict(CASES)
PROCESS_CASES = [
    ("fuzzydea", f"guo_tanaka-{name}-exclude.{fmt}")
    for name in ("mo-rescale", "zstar", "compare-rescale")
    for fmt in ("md", "csv", "json")
] + [("fuzzydea.cli", "aircraft-mo-floor-include.csv")]
BAD_ALPHA = ["eval", "--model", "mo", "--data", "fixture:guo_tanaka", "--alpha", "1.5"]


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def _process(module, argv):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[-1])
def test_main_leaves_the_collector_unfrozen(command):
    before = gc.get_freeze_count()
    code, _, _ = _in_process([*command, "--data", "fixture:guo_tanaka"])
    assert code == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("module,name", PROCESS_CASES,
                         ids=[f"{m}-{n}" for m, n in PROCESS_CASES])
def test_process_prints_what_main_prints(module, name):
    argv = GOLDEN_ARGV[name]
    result = _process(module, argv)
    assert result == _in_process(argv)
    assert result == (0, (GOLDEN / name).read_bytes(), b"")


def test_process_fails_as_main_fails():
    result = _process("fuzzydea", BAD_ALPHA)
    assert result == _in_process(BAD_ALPHA)
    code, out, err = result
    assert (code, out) == (1, b"")
    assert err.startswith(b"fuzzydea: error: ")


def test_inplace_build_writes_the_package_bytecode(tmp_path):
    for name in ("setup.py", "pyproject.toml", "README.md"):
        shutil.copy2(REPO / name, tmp_path / name)
    # The copy keeps any in-place extension, with its mtime, so the build
    # finds it up to date and compiles no C.
    shutil.copytree(REPO / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                   cwd=tmp_path, capture_output=True, check=True, timeout=600)

    package = tmp_path / "src" / "fuzzydea"
    modules = sorted(package.rglob("*.py"))
    assert package / "_speedups" / "pure.py" in modules
    for path in modules:
        header = Path(importlib.util.cache_from_source(path)).read_bytes()[:16]
        stat = path.stat()
        # A timestamp-checked .pyc: magic, flags 0, source mtime and size.
        assert header[:4] == importlib.util.MAGIC_NUMBER, path
        assert struct.unpack("<3I", header[4:]) == (
            0, int(stat.st_mtime) & 0xFFFFFFFF, stat.st_size & 0xFFFFFFFF
        ), path
