"""Byte-for-byte golden reports of the CLI on both bundled fixtures.

Every md, csv and json report that `eval --model ccr|alpha|mo`, `zstar`
and `compare` print on the two fixtures, under both self policies and,
where the mo model runs, both alpha modes, is kept under tests/golden/,
plus the mo and compare csv and md reports and the alpha md report on
guo_tanaka at an unsorted alpha list with a repeated level.  A change that moves any byte of them has to say
so and regenerate them:

    PYTHONPATH=src python tests/test_golden.py tests/golden
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from fuzzydea import alphacut, cli, mofdea
from fuzzydea.cli import main
from fuzzydea.dataio import load_dataset_path

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = ("guo_tanaka", "aircraft")
POLICIES = ((), ("--include-self",))
MODES = ("rescale", "floor")
FORMATS = ("md", "csv", "json")
ALPHA_LIST = "1,0,0.5,0.5,0.25"


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
    # An unsorted alpha list with a repeated level: the mo model shares
    # each DMU's LPs across a report's levels, whatever their order, and
    # an md score matrix shows a repeated level's first row.
    listed = ["--data", "fixture:guo_tanaka", "--alpha", ALPHA_LIST]
    for fmt in ("csv", "md"):
        for mode in MODES:
            for sub, name in ((["eval", "--model", "mo"], "mo"), (["compare"], "compare")):
                yield (f"guo_tanaka-{name}-{mode}-exclude-alpha-list.{fmt}",
                       [*sub, *listed, "--format", fmt, "--alpha-mode", mode])
    yield ("guo_tanaka-alpha-exclude-alpha-list.md",
           ["eval", "--model", "alpha", *listed, "--format", "md"])


CASES = tuple(_cases())


def render(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_report_bytes_unchanged(name, argv):
    assert render(argv) == (GOLDEN / name).read_bytes()


# Every command and model, in every format, on one fixture.
STORE_CASES = tuple(
    c for c in CASES if c[0].startswith("guo_tanaka-") and "-exclude." in c[0]
)


@pytest.mark.parametrize("name,argv", STORE_CASES, ids=[c[0] for c in STORE_CASES])
def test_every_model_scores_through_the_lp_store(name, argv, monkeypatch):
    # Every model solves its LPs from a dataset's ccr.DataLps; none
    # reduces the data with alphacut.reduce_at first.
    def refuse(*args, **kwargs):
        raise AssertionError("a model reduced the data with reduce_at")

    for module in (alphacut, mofdea):
        monkeypatch.setattr(module, "reduce_at", refuse)
    assert render(argv) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name,argv", STORE_CASES, ids=[c[0] for c in STORE_CASES])
def test_no_command_builds_a_tri_fuzzy_cell(name, argv, monkeypatch):
    # A dataset is its names and its buffer of doubles; every command
    # reads those, and none caches a second, per-cell form beside them.
    loaded = []

    def load(path):
        loaded.append(load_dataset_path(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_dataset_path", load)
    assert render(argv) == (GOLDEN / name).read_bytes()
    (data,) = loaded
    assert sorted(vars(data)) == [
        "bounds", "dmu_names", "input_names", "name", "output_names"]
    assert not data.bounds.flags.writeable


if __name__ == "__main__":
    target = Path(sys.argv[1])
    target.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES:
        (target / name).write_bytes(render(argv))
