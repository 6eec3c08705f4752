"""Byte-for-byte golden reports of the CLI on both bundled fixtures.

Every csv and json report that `eval --model ccr|alpha|mo`, `zstar` and
`compare` print on the two fixtures, under both self policies and, where
the mo model runs, both alpha modes, is kept under tests/golden/.  A
change that moves any byte of them has to say so and regenerate them:

    PYTHONPATH=src python tests/test_golden.py tests/golden
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from fuzzydea.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = ("guo_tanaka", "aircraft")
POLICIES = ((), ("--include-self",))
MODES = ("rescale", "floor")
FORMATS = ("csv", "json")


def _cases():
    """(file name, argv) for every golden report."""
    for fixture in FIXTURES:
        for policy in POLICIES:
            tag = "include" if policy else "exclude"
            for fmt in FORMATS:
                common = ["--data", f"fixture:{fixture}", *policy, "--format", fmt]
                for model in ("ccr", "alpha"):
                    yield (f"{fixture}-{model}-{tag}.{fmt}",
                           ["eval", "--model", model, *common])
                yield f"{fixture}-zstar-{tag}.{fmt}", ["zstar", *common]
                for mode in MODES:
                    for sub, name in ((["eval", "--model", "mo"], "mo"),
                                      (["compare"], "compare")):
                        yield (f"{fixture}-{name}-{mode}-{tag}.{fmt}",
                               [*sub, *common, "--alpha-mode", mode])


CASES = tuple(_cases())


def render(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_report_bytes_unchanged(name, argv):
    assert render(argv) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    target = Path(sys.argv[1])
    target.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES:
        (target / name).write_bytes(render(argv))
