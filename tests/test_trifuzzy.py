import math
import random

import pytest
from hypothesis import example, given, strategies as st

from fuzzydea.errors import AlphaOutOfRange, OrderingViolation
from fuzzydea.trifuzzy import Interval, TriFuzzy


def ordered_triple(min_value=0.01, max_value=100.0):
    vals = st.floats(
        min_value=min_value, max_value=max_value, allow_nan=False, allow_infinity=False
    )
    return st.tuples(vals, vals, vals).map(sorted)


class TestConstruction:
    def test_valid_triple(self):
        f = TriFuzzy(3.5, 4.0, 4.5)
        assert (f.lower, f.modal, f.upper) == (3.5, 4.0, 4.5)
        assert not f.is_crisp

    def test_crisp_triple(self):
        f = TriFuzzy(2.0, 2.0, 2.0)
        assert f.is_crisp
        assert f.modal == 2.0

    def test_reversed_ordering_rejected(self):
        with pytest.raises(OrderingViolation):
            TriFuzzy(5.0, 4.0, 3.0)

    def test_modal_outside_bounds_rejected(self):
        with pytest.raises(OrderingViolation):
            TriFuzzy(1.0, 3.0, 2.0)

    def test_non_finite_rejected(self):
        with pytest.raises(OrderingViolation):
            TriFuzzy(1.0, math.nan, 2.0)
        with pytest.raises(OrderingViolation):
            TriFuzzy(1.0, 2.0, math.inf)

    def test_interval_ordering(self):
        with pytest.raises(OrderingViolation):
            Interval(2.0, 1.0)
        assert Interval(1.0, 2.0).width == 1.0


class TestMembership:
    def test_hat_shape(self):
        f = TriFuzzy(3.5, 4.0, 4.5)
        assert f.membership(3.5) == 0.0
        assert f.membership(4.0) == 1.0
        assert f.membership(4.5) == 0.0
        assert f.membership(3.75) == pytest.approx(0.5)
        assert f.membership(4.25) == pytest.approx(0.5)
        assert f.membership(3.0) == 0.0
        assert f.membership(5.0) == 0.0

    def test_crisp_is_indicator(self):
        f = TriFuzzy(2.2, 2.2, 2.2)
        assert f.membership(2.2) == 1.0
        assert f.membership(2.1999) == 0.0
        assert f.membership(2.2001) == 0.0

    def test_degenerate_left_side(self):
        f = TriFuzzy(2.0, 2.0, 3.0)
        assert f.membership(2.0) == 1.0
        assert f.membership(1.999) == 0.0
        assert f.membership(2.5) == pytest.approx(0.5)

    def test_degenerate_right_side(self):
        f = TriFuzzy(1.0, 2.0, 2.0)
        assert f.membership(2.0) == 1.0
        assert f.membership(2.001) == 0.0
        assert f.membership(1.5) == pytest.approx(0.5)

    @given(ordered_triple(), st.floats(-1e3, 1e3, allow_nan=False))
    def test_membership_in_unit_range(self, triple, x):
        l, m, u = triple
        d = TriFuzzy(l, m, u).membership(x)
        assert 0.0 <= d <= 1.0


class TestAlphaInterval:
    def test_full_support(self):
        assert TriFuzzy(3.5, 4.0, 4.5).alpha_interval(0.0) == Interval(3.5, 4.5)

    def test_collapse_to_modal(self):
        assert TriFuzzy(3.5, 4.0, 4.5).alpha_interval(1.0) == Interval(4.0, 4.0)

    def test_linear_interpolation(self):
        assert TriFuzzy(3.5, 4.0, 4.5).alpha_interval(0.5) == Interval(3.75, 4.25)

    @pytest.mark.parametrize(
        "alpha",
        [-0.1, 1.1, math.nan, math.inf, "0.5",
         pytest.param(10**400, id="10**400"), pytest.param(-(10**400), id="-10**400")],
    )
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(AlphaOutOfRange):
            TriFuzzy(1.0, 2.0, 3.0).alpha_interval(alpha)

    @given(ordered_triple(), st.floats(0, 1), st.floats(0, 1))
    def test_nesting(self, triple, a1, a2):
        a1, a2 = sorted((a1, a2))
        f = TriFuzzy(*triple)
        inner, outer = f.alpha_interval(a2), f.alpha_interval(a1)
        assert outer.lo <= inner.lo + 1e-12
        assert inner.hi <= outer.hi + 1e-12

    @given(ordered_triple(), st.floats(0.001, 1))
    @example([0.01, 0.010000000000000002, 1.0], 0.5)  # side one ulp wide
    def test_endpoint_membership_equals_alpha(self, triple, alpha):
        f = TriFuzzy(*triple)
        cut = f.alpha_interval(alpha)
        # The cut point is rounded to a float, and an error of one ulp in
        # it moves the membership by ulp / spread: on a side a few ulps
        # wide no float has membership alpha at all.
        if f.lower < f.modal:
            slack = 4 * math.ulp(f.modal) / (f.modal - f.lower)
            assert f.membership(cut.lo) == pytest.approx(alpha, abs=1e-9 + slack)
        if f.modal < f.upper:
            slack = 4 * math.ulp(f.upper) / (f.upper - f.modal)
            assert f.membership(cut.hi) == pytest.approx(alpha, abs=1e-9 + slack)

    def test_crisp_side_stays_modal(self):
        # (1 - a) * m + a * m misses m by one ulp for about 5% of draws
        rng = random.Random(20261018)
        for _ in range(2000):
            m = rng.uniform(0.01, 1000.0)
            alpha = rng.random()
            cut = TriFuzzy(m, m, m).alpha_interval(alpha)
            assert cut.lo == m and cut.hi == m
            left = TriFuzzy(m, m, 2.0 * m).alpha_interval(alpha)
            right = TriFuzzy(0.5 * m, m, m).alpha_interval(alpha)
            assert left.lo == m and right.hi == m
