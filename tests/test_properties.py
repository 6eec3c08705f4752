"""Randomized structural properties (hypothesis).

The heavier randomized suites (100+ cases each, shared tolerances) live in
test_acceptance.py; these complement them with shrinkable generators.
"""

import math
import string

import pytest
from hypothesis import given, settings, strategies as st

from fuzzydea.ccr import SelfPolicy, ccr_scores
from fuzzydea.dataio import FuzzyDataset, load_dataset, write_dataset
from fuzzydea.errors import DataError, SchemaError
from fuzzydea.linprog import LpProblem, LpStatus, solve
from fuzzydea.mofdea import beta_level

from _datagen import crisp_dataset
from _oracles import brute_force_lp

SETTINGS = dict(deadline=None, derandomize=True)

# Coarse grid coefficients keep vertices well conditioned, so the
# enumeration oracle and the simplex agree without tolerance games.
coef = st.integers(-8, 8).map(lambda k: k / 4.0)
rel = st.sampled_from(["<=", ">=", "="])


@st.composite
def lp_problems(draw):
    n = draw(st.integers(1, 3))
    n_rows = draw(st.integers(1, 4))
    objective = tuple(draw(coef) for _ in range(n))
    rows = []
    for _ in range(n_rows):
        coeffs = tuple(draw(coef) for _ in range(n))
        rows.append((coeffs, draw(rel), draw(st.integers(-4, 12)) / 2.0))
    # Bound the feasible region so "unbounded" cannot hinge on tolerances.
    for j in range(n):
        e = tuple(1.0 if i == j else 0.0 for i in range(n))
        rows.append((e, "<=", 50.0))
    return LpProblem(objective, tuple(rows))


@settings(max_examples=80, **SETTINGS)
@given(lp_problems())
def test_lp_agrees_with_vertex_enumeration(prob):
    got = solve(prob)
    oracle = brute_force_lp(prob.objective, prob.rows)
    if oracle[0] == "infeasible":
        assert got.status == LpStatus.INFEASIBLE
    else:
        assert oracle[0] == "optimal"
        assert got.status == LpStatus.OPTIMAL
        assert got.value == pytest.approx(oracle[1], abs=1e-6)


def mostly(good, odd, n):
    """A draw of good, but about one in n of odd."""
    return st.integers(0, n - 1).flatmap(lambda k: odd if k == n // 2 else good)


# Now and then a name of any text (white space, line breaks, quotes) or
# a value that is not a name, and a cell that the constructor refuses.
name_st = mostly(mostly(st.text(string.ascii_letters + string.digits + "_-", min_size=1,
                                max_size=8), st.text(max_size=4), 5),
                 st.sampled_from([5, None]), 60)
tri_st = st.lists(
    st.floats(0.1, 50.0, allow_nan=False), min_size=3, max_size=3
).map(sorted)
cell_st = mostly(tri_st | tri_st.map(tuple) | st.floats(0.1, 50.0) | st.integers(1, 50),
                 st.sampled_from([True, (1.0, 2.0), [3.0, 2.0, 1.0], "1", 0.0, math.inf]), 60)


@st.composite
def fuzzy_datasets(draw):
    """The arguments of FuzzyDataset(...), mostly of one it accepts."""
    m = draw(st.integers(1, 3))
    s = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    names = draw(
        st.lists(name_st, min_size=n, max_size=n, unique=True)
    )
    units = [
        (
            nm,
            [draw(cell_st) for _ in range(m)],
            [draw(cell_st) for _ in range(s)],
        )
        for nm in names
    ]
    columns = [[draw(name_st) for _ in range(k)] for k in (m, s)]
    if draw(st.integers(0, 20)) == 10:
        columns[0] = "".join(map(str, columns[0]))  # a string, not an array
    return (draw(name_st), *columns, units)


@settings(max_examples=200, **SETTINGS)
@given(fuzzy_datasets(), st.sampled_from(["json", "csv"]))
def test_dataset_round_trip(args, fmt):
    # Every dataset the constructor accepts reads back equal, or CSV
    # refuses one of its names.
    try:
        ds = FuzzyDataset(*args)
    except (SchemaError, DataError):
        return
    try:
        text = write_dataset(ds, fmt)
    except DataError as exc:
        assert fmt == "csv" and str(exc).startswith("CSV cannot hold ")
        return
    assert load_dataset(text, fmt) == ds


@settings(max_examples=60, **SETTINGS)
@given(
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
    st.sampled_from(["floor", "rescale"]),
)
def test_beta_level_bounds_and_agreement(h, alpha, mode):
    b = beta_level(h, alpha, mode)
    assert max(0.0, alpha - 1e-12) <= b <= 1.0
    assert b >= h - 1e-12  # never below the satisfaction level itself
    if alpha == 0.0 or h in (0.0, 1.0) or alpha == 1.0:
        other = "rescale" if mode == "floor" else "floor"
        assert b == pytest.approx(beta_level(h, alpha, other), abs=1e-12)


@settings(max_examples=40, **SETTINGS)
@given(
    st.lists(st.floats(0.5, 20.0, allow_nan=False), min_size=3, max_size=3),
    st.floats(0.01, 100.0, allow_nan=False),
)
def test_ccr_units_invariance_under_column_scaling(col, factor):
    xs = ((1.0, 2.0, 1.5),)
    ys = (tuple(col),)
    base = crisp_dataset(("a", "b", "c"), xs, ys)
    scaled = crisp_dataset(
        ("a", "b", "c"), xs, (tuple(v * factor for v in col),)
    )
    for policy in SelfPolicy:
        s0 = ccr_scores(base, policy=policy)
        s1 = ccr_scores(scaled, policy=policy)
        for a, b in zip(s0, s1):
            assert a.efficiency == pytest.approx(b.efficiency, rel=1e-7, abs=1e-9)
