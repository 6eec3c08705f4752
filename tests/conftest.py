import os
from pathlib import Path

import pytest

from fuzzydea.dataio import load_fixture

# pyproject.toml's pythonpath puts src on this process's sys.path; the
# interpreters that tests start find the package there too.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def gt():
    return load_fixture("guo_tanaka")


@pytest.fixture(scope="session")
def ac():
    return load_fixture("aircraft")
