"""Random dataset generators for the property suites."""

import numpy as np

from fuzzydea.dataio import FuzzyDataset


def random_tri(rng, crisp_prob=0.25):
    """A cell as the dataset constructor takes it: a crisp modal value
    with crisp_prob, else [l, m, u]."""
    modal = float(rng.uniform(1.0, 10.0))
    if rng.random() < crisp_prob:
        return modal
    left = float(rng.uniform(0.0, 0.4)) * modal
    right = float(rng.uniform(0.0, 0.4)) * modal
    return [modal - left, modal, modal + right]


def random_dataset(rng, n_dmus=None, n_inputs=None, n_outputs=None, crisp_prob=0.25):
    """Random positive fuzzy dataset with 3-6 DMUs, 1-3 inputs/outputs."""
    n = int(n_dmus if n_dmus is not None else rng.integers(3, 7))
    m = int(n_inputs if n_inputs is not None else rng.integers(1, 4))
    s = int(n_outputs if n_outputs is not None else rng.integers(1, 4))
    units = [
        (
            f"U{j+1}",
            [random_tri(rng, crisp_prob) for _ in range(m)],
            [random_tri(rng, crisp_prob) for _ in range(s)],
        )
        for j in range(n)
    ]
    return FuzzyDataset(
        "random",
        [f"I{i+1}" for i in range(m)],
        [f"O{r+1}" for r in range(s)],
        units,
    )


def crisp_dataset(names, inputs, outputs):
    """FuzzyDataset of crisp cells: inputs (m x n) and outputs (s x n),
    one column per DMU of names, built through the public constructor."""
    inputs, outputs = np.atleast_2d(inputs), np.atleast_2d(outputs)
    assert inputs.shape[1] == outputs.shape[1] == len(names)
    return FuzzyDataset(
        "crisp",
        [f"I{i+1}" for i in range(len(inputs))],
        [f"O{r+1}" for r in range(len(outputs))],
        [(dmu, [float(x) for x in inputs[:, j]], [float(x) for x in outputs[:, j]])
         for j, dmu in enumerate(names)],
    )


def units(data):
    """data's DMUs as the dataset constructor takes them: (name, inputs,
    outputs), each cell an [l, m, u] list."""
    m = data.n_inputs
    return [(name, cells[:m], cells[m:])
            for name, cells in zip(data.dmu_names, data.bounds.T.tolist())]


def crisp_arrays(data):
    """(inputs, outputs): the modal rows of data.bounds, m x n and s x n.
    A crisp dataset's cells, such as a reduction's, are their modal values."""
    modal = data.bounds[1]
    return modal[: data.n_inputs], modal[data.n_inputs :]


def random_crisp_dataset(rng, n_dmus=None, n_inputs=None, n_outputs=None):
    """Random positive crisp dataset (for CCR-level properties)."""
    n = int(n_dmus if n_dmus is not None else rng.integers(3, 7))
    m = int(n_inputs if n_inputs is not None else rng.integers(1, 4))
    s = int(n_outputs if n_outputs is not None else rng.integers(1, 4))
    return crisp_dataset(
        tuple(f"U{j+1}" for j in range(n)),
        rng.uniform(1.0, 10.0, size=(m, n)),
        rng.uniform(1.0, 10.0, size=(s, n)),
    )


def crisp_fuzzy_dataset(rng, **kw):
    """Fuzzy dataset whose every value is crisp."""
    return random_dataset(rng, crisp_prob=2.0, **kw)
