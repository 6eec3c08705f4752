"""Triangular cells: the checks a dataset's constructor makes of a cell,
the hat membership the alpha-cut checks measure against, and alpha-cuts
through trifuzzy.toward_modal, the one blend that reduce_at and both
kernels apply, with check_alpha."""

import math
import random

import pytest
from hypothesis import example, given, strategies as st

from fuzzydea.dataio import FuzzyDataset
from fuzzydea.errors import AlphaOutOfRange, DataError
from fuzzydea.trifuzzy import check_alpha, toward_modal


def alpha_cut(triple, alpha):
    """(lo, hi): the alpha-cut of the triangle (l, m, u)."""
    lower, modal, upper = triple
    return float(toward_modal(lower, modal, alpha)), float(toward_modal(upper, modal, alpha))


def membership(triple, x):
    """Hat-shaped membership degree of x in the triangle (l, m, u).

    A side without spread is a step, so a crisp cell has membership 1
    exactly at its value.
    """
    lower, modal, upper = triple
    if x < lower or x > upper:
        return 0.0
    if x == modal:
        return 1.0
    if x < modal:
        return (x - lower) / (modal - lower)
    return (upper - x) / (upper - modal)


def ordered_triple(min_value=0.01, max_value=100.0):
    vals = st.floats(
        min_value=min_value, max_value=max_value, allow_nan=False, allow_infinity=False
    )
    return st.tuples(vals, vals, vals).map(sorted)


def stored(cell):
    """(l, m, u) of cell as a one-DMU dataset's bounds holds it."""
    data = FuzzyDataset("one", ["I1"], ["O1"], [("only", [cell], [1.0])])
    return tuple(data.bounds[:, 0, 0].tolist())


class TestConstruction:
    def test_valid_triple(self):
        lower, modal, upper = stored((3.5, 4.0, 4.5))
        assert (lower, modal, upper) == (3.5, 4.0, 4.5)
        assert lower < upper  # not crisp

    def test_crisp_triple(self):
        assert stored((2.0, 2.0, 2.0)) == (2.0, 2.0, 2.0)
        assert stored(2.0) == (2.0, 2.0, 2.0)  # a number is a crisp cell

    def test_reversed_ordering_rejected(self):
        with pytest.raises(DataError, match=r"out of order: \(5.0, 4.0, 3.0\)"):
            stored((5.0, 4.0, 3.0))

    def test_modal_outside_bounds_rejected(self):
        with pytest.raises(DataError, match=r"out of order: \(1.0, 3.0, 2.0\)"):
            stored((1.0, 3.0, 2.0))

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="must be finite, got"):
            stored((1.0, math.nan, 2.0))
        with pytest.raises(DataError, match=r"must be finite, got \(1.0, 2.0, inf\)"):
            stored((1.0, 2.0, math.inf))

    def test_interval_ordering(self):
        # A cut's ends stay in order at every level; a zero-width cell
        # is accepted, and its cut is that one point.
        for alpha in (0.0, 0.25, 0.5, 1.0):
            lo, hi = alpha_cut(stored((1.0, 1.5, 2.0)), alpha)
            assert lo <= hi and hi - lo == 1.0 - alpha
        assert alpha_cut(stored((1.0, 1.0, 1.0)), 0.0) == (1.0, 1.0)


class TestMembership:
    """The hat the alpha-cut checks measure against, and its agreement
    with toward_modal where a side has no spread."""

    def test_hat_shape(self):
        f = (3.5, 4.0, 4.5)
        assert membership(f, 3.5) == 0.0
        assert membership(f, 4.0) == 1.0
        assert membership(f, 4.5) == 0.0
        assert membership(f, 3.75) == pytest.approx(0.5)
        assert membership(f, 4.25) == pytest.approx(0.5)
        assert membership(f, 3.0) == 0.0
        assert membership(f, 5.0) == 0.0

    def test_crisp_is_indicator(self):
        f = (2.2, 2.2, 2.2)
        assert membership(f, 2.2) == 1.0
        assert membership(f, 2.1999) == 0.0
        assert membership(f, 2.2001) == 0.0
        assert alpha_cut(f, 0.3) == (2.2, 2.2)

    def test_degenerate_left_side(self):
        f = (2.0, 2.0, 3.0)
        assert membership(f, 2.0) == 1.0
        assert membership(f, 1.999) == 0.0
        assert membership(f, 2.5) == pytest.approx(0.5)
        assert alpha_cut(f, 0.5) == (2.0, 2.5)

    def test_degenerate_right_side(self):
        f = (1.0, 2.0, 2.0)
        assert membership(f, 2.0) == 1.0
        assert membership(f, 2.001) == 0.0
        assert membership(f, 1.5) == pytest.approx(0.5)
        assert alpha_cut(f, 0.5) == (1.5, 2.0)

    @given(ordered_triple(), st.floats(-1e3, 1e3, allow_nan=False))
    def test_membership_in_unit_range(self, triple, x):
        assert 0.0 <= membership(triple, x) <= 1.0


class TestAlphaInterval:
    def test_full_support(self):
        assert alpha_cut((3.5, 4.0, 4.5), 0.0) == (3.5, 4.5)

    def test_collapse_to_modal(self):
        assert alpha_cut((3.5, 4.0, 4.5), 1.0) == (4.0, 4.0)

    def test_linear_interpolation(self):
        assert alpha_cut((3.5, 4.0, 4.5), 0.5) == (3.75, 4.25)

    @pytest.mark.parametrize(
        "alpha",
        [-0.1, 1.1, math.nan, math.inf, "0.5",
         pytest.param(10**400, id="10**400"), pytest.param(-(10**400), id="-10**400")],
    )
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(AlphaOutOfRange):
            check_alpha(alpha)

    @given(ordered_triple(), st.floats(0, 1), st.floats(0, 1))
    def test_nesting(self, triple, a1, a2):
        a1, a2 = sorted((a1, a2))
        (inner_lo, inner_hi), (outer_lo, outer_hi) = alpha_cut(triple, a2), alpha_cut(triple, a1)
        # The blend keeps each cut in order under rounding.
        assert inner_lo <= inner_hi and outer_lo <= outer_hi
        assert outer_lo <= inner_lo + 1e-12
        assert inner_hi <= outer_hi + 1e-12

    @given(ordered_triple(), st.floats(0.001, 1))
    @example([0.01, 0.010000000000000002, 1.0], 0.5)  # side one ulp wide
    def test_endpoint_membership_equals_alpha(self, triple, alpha):
        lower, modal, upper = triple
        lo, hi = alpha_cut(triple, alpha)
        # The cut point is rounded to a float, and an error of one ulp in
        # it moves the membership by ulp / spread: on a side a few ulps
        # wide no float has membership alpha at all.
        if lower < modal:
            slack = 4 * math.ulp(modal) / (modal - lower)
            assert membership(triple, lo) == pytest.approx(alpha, abs=1e-9 + slack)
        if modal < upper:
            slack = 4 * math.ulp(upper) / (upper - modal)
            assert membership(triple, hi) == pytest.approx(alpha, abs=1e-9 + slack)

    def test_crisp_side_stays_modal(self):
        # (1 - a) * m + a * m misses m by one ulp for about 5% of draws
        rng = random.Random(20261018)
        for _ in range(2000):
            m = rng.uniform(0.01, 1000.0)
            alpha = rng.random()
            assert alpha_cut((m, m, m), alpha) == (m, m)
            assert alpha_cut((m, m, 2.0 * m), alpha)[0] == m
            assert alpha_cut((0.5 * m, m, m), alpha)[1] == m
