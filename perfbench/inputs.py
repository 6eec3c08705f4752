"""Seeded inputs and call plans for the three workloads.

Everything here is stdlib plus numpy, so the worker process (which must
never import scipy) and the checker share one description of the data.
A plan is a JSON document: a list of operations that make up one round.
Every round repeats the same operations on the same files.

Operation kinds:
  cli       fuzzydea's command line; run as a fresh ``python -m fuzzydea``
            process, or in-process through ``fuzzydea.cli.main``
  load      ``load_dataset_path`` on one file (alpha-large)
  alphacut  ``alphacut_scores`` on the last loaded dataset
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import numpy as np

WORKLOADS = ("cli-fixtures", "mo-small-sets", "alpha-large")

FIXTURES = ("guo_tanaka", "aircraft")
H_TOL = 1e-6  # the CLI's default --tol-h
UNITS_FACTOR = 1e9  # first input column of a fixture, rewritten in these units

CRISP_PROB = 0.25
MO_DMUS = (5, 6, 7, 8)
MO_INPUTS = (1, 2, 3)
MO_OUTPUTS = (1, 2, 3)
ALPHA_LARGE_DMUS = 150
# (dataset, alpha, self policy) of each alpha-large call
ALPHA_LARGE_CALLS = (("large0", 0.0, "exclude-self"), ("large1", 0.5, "include-self"))


def fixture_file(root: Path, name: str) -> Path:
    return root / "src" / "fuzzydea" / "fixtures" / f"{name}.json"


def random_cell(rng):
    """One triangular cell (lower, modal, upper), crisp with CRISP_PROB."""
    modal = float(rng.uniform(1.0, 10.0))
    if rng.random() < CRISP_PROB:
        return (modal, modal, modal)
    left = float(rng.uniform(0.0, 0.4)) * modal
    right = float(rng.uniform(0.0, 0.4)) * modal
    return (modal - left, modal, modal + right)


def random_dataset(rng, name, n, m, s):
    """A dataset document in the shape the JSON format uses, cells as triples."""
    return {
        "name": name,
        "inputs": [f"I{i + 1}" for i in range(m)],
        "outputs": [f"O{r + 1}" for r in range(s)],
        "dmus": [
            {
                "name": f"U{j + 1}",
                "inputs": [random_cell(rng) for _ in range(m)],
                "outputs": [random_cell(rng) for _ in range(s)],
            }
            for j in range(n)
        ],
    }


def as_triple(cell):
    if isinstance(cell, (int, float)):
        return (float(cell), float(cell), float(cell))
    return tuple(float(v) for v in cell)


def normalise(doc):
    """The same dataset with every cell as a (lower, modal, upper) triple."""
    return {
        **doc,
        "dmus": [
            {
                "name": d["name"],
                "inputs": [as_triple(c) for c in d["inputs"]],
                "outputs": [as_triple(c) for c in d["outputs"]],
            }
            for d in doc["dmus"]
        ],
    }


def _cell_json(t):
    return t[1] if t[0] == t[2] else list(t)


def _cell_csv(t):
    return repr(t[1]) if t[0] == t[2] else f"{t[0]!r};{t[1]!r};{t[2]!r}"


def write_dataset(doc, path: Path) -> None:
    """Write a normalised dataset as .json or .csv (crisp cells as plain numbers)."""
    if path.suffix == ".json":
        out = {
            "name": doc["name"],
            "inputs": doc["inputs"],
            "outputs": doc["outputs"],
            "dmus": [
                {
                    "name": d["name"],
                    "inputs": [_cell_json(t) for t in d["inputs"]],
                    "outputs": [_cell_json(t) for t in d["outputs"]],
                }
                for d in doc["dmus"]
            ],
        }
        path.write_text(json.dumps(out, indent=1) + "\n")
        return
    lines = [f"# name={doc['name']}"]
    lines.append(
        ",".join(
            ["dmu"] + [f"in:{c}" for c in doc["inputs"]] + [f"out:{c}" for c in doc["outputs"]]
        )
    )
    for d in doc["dmus"]:
        cells = [_cell_csv(t) for t in d["inputs"]] + [_cell_csv(t) for t in d["outputs"]]
        lines.append(",".join([d["name"]] + cells))
    path.write_text("\n".join(lines) + "\n")


def scale_first_input(doc, factor):
    out = normalise(doc)
    for d in out["dmus"]:
        d["inputs"][0] = tuple(v * factor for v in d["inputs"][0])
    return out


def _cli(argv, data_key, **meta):
    return {"kind": "cli", "argv": argv, "data": data_key, **meta}


def _cli_fixtures(root, seed, work):
    """Every subcommand on both fixtures in every format, plus the units slice.

    The seed only shuffles the call order: the fixtures are the paper's
    own examples, and their units slice must fail the same cells on
    every run.
    """
    datasets = {}
    ops = []
    for fx in FIXTURES:
        datasets[fx] = normalise(json.loads(fixture_file(root, fx).read_text()))
        scaled = work / f"{fx}-units.json"
        datasets[f"{fx}-units"] = scale_first_input(datasets[fx], UNITS_FACTOR)
        write_dataset(datasets[f"{fx}-units"], scaled)
        for fmt in ("md", "csv", "json"):
            common = ["--data", f"fixture:{fx}", "--format", fmt]
            for model in ("ccr", "alpha", "mo"):
                ops.append(_cli(["eval", "--model", model] + common, fx))
            ops.append(_cli(["zstar"] + common, fx))
            ops.append(_cli(["compare"] + common, fx))
        # the reference for the include-self units cells
        ops.append(_cli(
            ["eval", "--model", "alpha", "--include-self",
             "--data", f"fixture:{fx}", "--format", "json"], fx))
        for extra in ([], ["--include-self"]):
            ops.append(_cli(
                ["eval", "--model", "alpha", *extra,
                 "--data", str(scaled), "--format", "json"],
                f"{fx}-units", units_of=fx))
        ops.append(_cli(
            ["eval", "--model", "mo", "--data", str(scaled), "--format", "json"],
            f"{fx}-units", units_of=fx))
    # The repeated call is fixed so that every seed attempts the same scores.
    repeated = next(op for op in ops if op["argv"][:3] == ["eval", "--model", "mo"])
    random.Random(seed).shuffle(ops)
    ops.append(dict(repeated, repeat=True))
    return datasets, ops


def _mo_small_sets(seed, work):
    """36 sets, one per shape of 5-8 DMUs, 1-3 inputs and 1-3 outputs.

    The seed draws the values, not the shapes, so every seed does work
    of the same make-up.  Input format, report format, alpha mode and
    self policy cycle with different periods across the sets.
    """
    rng = np.random.default_rng([seed, 1])
    datasets = {}
    ops = []
    shapes = itertools.product(MO_DMUS, MO_INPUTS, MO_OUTPUTS)
    for k, (n, m, s) in enumerate(shapes):
        key = f"set{k:02d}"
        datasets[key] = random_dataset(rng, key, n, m, s)
        path = work / f"{key}.{'json' if k % 2 == 0 else 'csv'}"
        write_dataset(datasets[key], path)
        argv = ["eval", "--model", "mo", "--data", str(path),
                "--format", "json" if k % 3 else "csv",
                "--alpha-mode", "rescale" if (k // 2) % 2 == 0 else "floor"]
        if (k // 4) % 2:
            argv.append("--include-self")
        ops.append(_cli(argv, key))
    return datasets, ops


def _alpha_large(seed, work):
    """Two 150-DMU, 3-input, 3-output sets; one alpha-cut call on each.

    The pivots an LP takes depend on its data, so the round spreads its
    300 LPs over two independent sets rather than one, which narrows how
    much the work changes from seed to seed.  A round of two calls is
    short enough for a run to hold three rounds.
    """
    rng = np.random.default_rng([seed, 2])
    datasets = {}
    ops = []
    for key, alpha, policy in ALPHA_LARGE_CALLS:
        datasets[key] = random_dataset(rng, key, ALPHA_LARGE_DMUS, 3, 3)
        path = work / f"{key}.csv"
        write_dataset(datasets[key], path)
        ops.append({"kind": "load", "path": str(path), "data": key})
        ops.append({"kind": "alphacut", "data": key, "alpha": alpha, "policy": policy})
    return datasets, ops


def make_plan(workload, root: Path, seed: int, work: Path):
    """Write the workload's input files under work; return (datasets, ops)."""
    if workload == "cli-fixtures":
        return _cli_fixtures(root, seed, work)
    if workload == "mo-small-sets":
        return _mo_small_sets(seed, work)
    if workload == "alpha-large":
        return _alpha_large(seed, work)
    raise ValueError(f"unknown workload {workload!r}; use one of {WORKLOADS}")
