"""Scores against the exact optimum of their LP.

_oracles.exact_ccr solves a DMU's CCR multiplier LP in rational
arithmetic on the very floats that the kernel reads at a level: the data
that alphacut.reduce_at gives, which test_template holds bit for bit to
the kernel's own blend.  So its optimum is the true score of those data,
and the distance of a kernel's score from it is the kernel's own error.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _datagen import crisp_arrays, crisp_dataset, units
from _oracles import exact_ccr
from fuzzydea import ccr
from fuzzydea.alphacut import reduce_at
from fuzzydea.ccr import DataLps, SelfPolicy, ccr_efficiency
from fuzzydea.dataio import FuzzyDataset, load_fixture
from test_backends import KERNELS

FIXTURES = ("guo_tanaka", "aircraft")
LEVELS = (0.0, 0.5, 1.0)
REL = Fraction(1e-12)  # a kernel score's largest relative distance from the optimum
SETTINGS = dict(deadline=None, derandomize=True)


def exact_score(data, p, level, policy, favor_p=True):
    """The exact optimum of DMU p's LP on data at level, as a Fraction."""
    crisp = reduce_at(data, p, level, favor_p)
    out = exact_ccr(*crisp_arrays(crisp), p, policy is SelfPolicy.EXCLUDE_SELF)
    assert out[0] == "optimal", out
    return out[1]


def assert_near(score, exact, where):
    assert abs(Fraction(score) - exact) <= REL * exact, (
        f"{where}: kernel {score!r}, exact {float(exact)!r} ({exact})")


def scaled_first_input(data, factor):
    """data with every bound of its first input multiplied by factor."""
    return FuzzyDataset(data.name, data.input_names, data.output_names, [
        (name, [[x * factor for x in inputs[0]], *inputs[1:]], outputs)
        for name, inputs, outputs in units(data)])


@pytest.mark.parametrize("fixture", FIXTURES)
def test_oracle_agrees_with_highs(fixture):
    optimize = pytest.importorskip("scipy.optimize")
    data = load_fixture(fixture)
    for level in LEVELS:
        for policy in SelfPolicy:
            for p in range(data.n_dmus):
                inputs, outputs = crisp_arrays(reduce_at(data, p, level))
                kind, z, u, v = exact_ccr(inputs, outputs, p,
                                          policy is SelfPolicy.EXCLUDE_SELF)
                # The oracle's u and v are feasible and reach z, exactly.
                assert kind == "optimal" and min(u + v) >= 0
                assert sum(a * Fraction(x) for a, x in zip(v, inputs[:, p])) == 1
                assert sum(a * Fraction(y) for a, y in zip(u, outputs[:, p])) == z
                peers = [j for j in range(data.n_dmus)
                         if not (policy is SelfPolicy.EXCLUDE_SELF and j == p)]
                for j in peers:
                    assert (sum(a * Fraction(y) for a, y in zip(u, outputs[:, j]))
                            <= sum(a * Fraction(x) for a, x in zip(v, inputs[:, j])))
                res = optimize.linprog(
                    [-y for y in outputs[:, p]] + [0.0] * data.n_inputs,
                    A_ub=[[*outputs[:, j], *-inputs[:, j]] for j in peers],
                    b_ub=[0.0] * len(peers),
                    A_eq=[[0.0] * data.n_outputs + list(inputs[:, p])], b_eq=[1.0],
                    method="highs",
                )
                assert res.status == 0, res.message
                assert float(z) == pytest.approx(-res.fun, rel=1e-9, abs=1e-9)


def test_oracle_finds_the_aircraft_ideal_exactly(ac):
    # The kernel returns this z* 2.8e-14 off, within REL.
    assert exact_score(ac, 2, 0.0, SelfPolicy.EXCLUDE_SELF) == Fraction(16, 11)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixture_scores_are_within_rel_of_exact(fixture, kernel, monkeypatch):
    monkeypatch.setattr(ccr, "default_mo_solve", kernel)
    data = load_fixture(fixture)
    for favor_p in (True, False):
        for policy in SelfPolicy:
            lps = DataLps(data, policy, favor_p)
            for level in LEVELS:
                for p in range(data.n_dmus):
                    assert_near(lps.solve(p, level).efficiency,
                                exact_score(data, p, level, policy, favor_p),
                                (fixture, favor_p, policy.value, level, p))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: the LP is not scaled and LP_TOL is absolute, so scores "
    "of data in large units are up to 27% off"))
@pytest.mark.parametrize("kernel", KERNELS)
def test_scores_in_large_units_are_within_rel_of_exact(kernel, monkeypatch):
    monkeypatch.setattr(ccr, "default_mo_solve", kernel)
    for fixture in FIXTURES:
        data = scaled_first_input(load_fixture(fixture), 1e9)
        for policy in SelfPolicy:
            lps = DataLps(data, policy)
            for level in LEVELS:
                for p in range(data.n_dmus):
                    assert_near(lps.solve(p, level).efficiency,
                                exact_score(data, p, level, policy),
                                (fixture, policy.value, level, p))


VALUES = st.floats(1.0, 10.0)


@st.composite
def small_sets(draw, crisp):
    """A dataset of 2-8 DMUs with 1-3 inputs and outputs.  Its cells are
    crisp with `crisp`; else each spreads up to 40% of its modal value to
    either side, or not at all."""
    n, m, s = draw(st.integers(2, 8)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = [[draw(VALUES) for _ in range(n)] for _ in range(m + s)]
    names = tuple(f"U{j+1}" for j in range(n))
    if crisp:
        return crisp_dataset(names, rows[:m], rows[m:])
    spread = st.one_of(st.just(0.0), st.floats(0.0, 0.4))

    def cell(modal):
        return [modal * (1.0 - draw(spread)), modal, modal * (1.0 + draw(spread))]

    return FuzzyDataset("random", [f"I{i+1}" for i in range(m)],
                        [f"O{r+1}" for r in range(s)], [
        (name, [cell(row[j]) for row in rows[:m]], [cell(row[j]) for row in rows[m:]])
        for j, name in enumerate(names)])


def with_kernel(kernel, solve):
    """solve() with kernel as the package's one kernel entry."""
    saved, ccr.default_mo_solve = ccr.default_mo_solve, kernel
    try:
        return solve()
    finally:
        ccr.default_mo_solve = saved


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=60, **SETTINGS)
@given(data=small_sets(crisp=False), pick=st.data())
def test_small_fuzzy_sets_score_within_rel_of_exact(kernel, data, pick):
    p = pick.draw(st.integers(0, data.n_dmus - 1))
    level = pick.draw(st.sampled_from(LEVELS) | st.floats(0.0, 1.0))
    for policy in SelfPolicy:
        score = with_kernel(kernel, lambda: DataLps(data, policy).solve(p, level))
        assert_near(score.efficiency, exact_score(data, p, level, policy),
                    (policy.value, level, p))


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=60, **SETTINGS)
@given(data=small_sets(crisp=True), pick=st.data())
def test_small_crisp_sets_score_within_rel_of_exact(kernel, data, pick):
    # ccr_efficiency scores a crisp dataset's cells themselves.
    p = pick.draw(st.integers(0, data.n_dmus - 1))
    for policy in SelfPolicy:
        score = with_kernel(kernel, lambda: ccr_efficiency(data, p, policy))
        out = exact_ccr(*crisp_arrays(data), p, policy is SelfPolicy.EXCLUDE_SELF)
        assert_near(score.efficiency, out[1], (policy.value, p))
