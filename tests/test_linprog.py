import numpy as np
import pytest

from _oracles import brute_force_lp
from fuzzydea import ccr, linprog
from fuzzydea._speedups import pure
from fuzzydea.errors import (
    DataError,
    DegenerateZStar,
    FuzzyDeaError,
    NumericalBreakdown,
    SolverFailure,
)
from fuzzydea.linprog import LpOutcome, LpProblem, LpStatus, solve


def lp(objective, rows):
    return LpProblem(tuple(objective), tuple(rows))


class TestKnownProblems:
    def test_single_bound(self):
        out = solve(lp([1.0], [((1.0,), "<=", 1.0)]))
        assert out.status is LpStatus.OPTIMAL
        assert out.value == pytest.approx(1.0)
        assert out.solution == pytest.approx((1.0,))

    def test_contradictory_bounds(self):
        out = solve(lp([1.0], [((1.0,), "<=", 1.0), ((1.0,), ">=", 2.0)]))
        assert out.status is LpStatus.INFEASIBLE
        assert out.value is None

    def test_two_variable_polygon(self):
        out = solve(
            lp([3.0, 2.0], [((1.0, 1.0), "<=", 4.0), ((1.0, 0.0), "<=", 2.0)])
        )
        assert out.status is LpStatus.OPTIMAL
        assert out.value == pytest.approx(10.0)
        assert out.solution == pytest.approx((2.0, 2.0))

    def test_unbounded(self):
        out = solve(lp([1.0, 1.0], [((1.0, -1.0), "<=", 1.0)]))
        assert out.status is LpStatus.UNBOUNDED

    def test_equality_constraint(self):
        out = solve(lp([1.0, 1.0], [((1.0, 2.0), "=", 4.0), ((1.0, 0.0), "<=", 1.0)]))
        assert out.status is LpStatus.OPTIMAL
        # best is x1=1, x2=1.5
        assert out.value == pytest.approx(2.5)

    def test_negative_rhs_normalization(self):
        # -x1 <= -2  <=>  x1 >= 2
        out = solve(lp([-1.0], [((-1.0,), "<=", -2.0)]))
        assert out.status is LpStatus.OPTIMAL
        assert out.value == pytest.approx(-2.0)

    def test_degenerate_equalities(self):
        # redundant equality pair should not trip phase 1
        out = solve(
            lp(
                [1.0, 1.0],
                [
                    ((1.0, 1.0), "=", 2.0),
                    ((2.0, 2.0), "=", 4.0),
                    ((1.0, 0.0), "<=", 1.5),
                ],
            )
        )
        assert out.status is LpStatus.OPTIMAL
        assert out.value == pytest.approx(2.0)

    def test_zero_rhs_equality(self):
        out = solve(lp([1.0, 0.0], [((1.0, -1.0), "=", 0.0), ((0.0, 1.0), "<=", 3.0)]))
        assert out.status is LpStatus.OPTIMAL
        assert out.value == pytest.approx(3.0)


class TestValidation:
    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            lp([1.0, 2.0], [((1.0,), "<=", 1.0)])

    def test_bad_relation(self):
        with pytest.raises(ValueError):
            lp([1.0], [((1.0,), "<", 1.0)])

    def test_non_finite(self):
        with pytest.raises(ValueError):
            lp([np.inf], [((1.0,), "<=", 1.0)])
        with pytest.raises(ValueError):
            lp([1.0], [((1.0,), "<=", np.nan)])

    def test_empty_objective(self):
        with pytest.raises(ValueError):
            lp([], [])


class TestOutcomeInvariants:
    def check_feasible(self, problem, out, tol=1e-7):
        assert out.status is LpStatus.OPTIMAL
        x = np.array(out.solution)
        assert np.all(x >= -tol)
        for coeffs, rel, rhs in problem.rows:
            lhs = float(np.dot(coeffs, x))
            if rel == "<=":
                assert lhs <= rhs + tol
            elif rel == ">=":
                assert lhs >= rhs - tol
            else:
                assert lhs == pytest.approx(rhs, abs=tol)
        assert out.value == pytest.approx(float(np.dot(problem.objective, x)), abs=tol)

    def test_feasibility_of_solutions(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            problem = lp(
                rng.uniform(-2, 3, size=n),
                [
                    (tuple(rng.uniform(0.1, 3, size=n)), "<=", float(rng.uniform(1, 6)))
                    for _ in range(k)
                ],
            )
            out = solve(problem)
            self.check_feasible(problem, out)

    def test_weak_duality_hand_bounds(self):
        # max 3x+2y st x+y<=4, x<=2: dual multipliers (2,1) give bound 2*4+1*2
        out = solve(lp([3.0, 2.0], [((1.0, 1.0), "<=", 4.0), ((1.0, 0.0), "<=", 2.0)]))
        assert out.value <= 2.0 * 4.0 + 1.0 * 2.0 + 1e-9
        # max x+y st 2x+y<=6, x+3y<=9: y=(0.4, 0.2) covers both vars
        out = solve(lp([1.0, 1.0], [((2.0, 1.0), "<=", 6.0), ((1.0, 3.0), "<=", 9.0)]))
        assert out.value <= 0.4 * 6.0 + 0.2 * 9.0 + 1e-9


class TestOracleEquivalence:
    def test_random_lps_match_vertex_enumeration(self):
        rng = np.random.default_rng(1234)
        n_cases = 0
        while n_cases < 120:
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            rows = []
            for _ in range(k):
                rel = ("<=", ">=", "=")[int(rng.integers(0, 3))]
                rows.append(
                    (
                        tuple(float(v) for v in rng.uniform(-1, 3, size=n)),
                        rel,
                        float(rng.uniform(-2, 6)),
                    )
                )
            problem = lp(tuple(float(v) for v in rng.uniform(-2, 3, size=n)), rows)
            expect = brute_force_lp(problem.objective, problem.rows)
            got = solve(problem)
            if expect[0] == "infeasible":
                assert got.status is LpStatus.INFEASIBLE, (problem, expect)
            elif expect[0] == "unbounded":
                assert got.status is LpStatus.UNBOUNDED, (problem, expect)
            else:
                assert got.status is LpStatus.OPTIMAL, (problem, expect)
                assert got.value == pytest.approx(expect[1], abs=1e-7), problem
            n_cases += 1


class TestDeterminism:
    def test_repeated_solves_bit_identical(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            problem = lp(
                rng.uniform(-1, 2, size=n),
                [
                    (tuple(rng.uniform(0.1, 2, size=n)), "<=", float(rng.uniform(1, 5)))
                    for _ in range(3)
                ],
            )
            a = solve(problem)
            b = solve(problem)
            assert a.value == b.value  # exact float equality
            assert a.solution == b.solution


class TestIterationCap:
    def test_cap_raises_numerical_breakdown(self, monkeypatch):
        problem = lp([1.0, 1.0], [((1.0, 1.0), "<=", 4.0), ((1.0, 0.0), "<=", 2.0)])

        def stalling_kernel(T, basis, tol, max_iter):
            return 2, max_iter  # ITER_LIMIT

        monkeypatch.setattr(linprog, "default_pivot_loop", stalling_kernel)
        with pytest.raises(NumericalBreakdown):
            solve(problem)

    def test_cap_message_names_cap_and_phase(self, monkeypatch):
        problem = lp([1.0], [((1.0,), "<=", 4.0)])
        monkeypatch.setattr(
            linprog, "default_pivot_loop", lambda T, basis, tol, max_iter: (2, max_iter)
        )
        with pytest.raises(NumericalBreakdown) as err:
            solve(problem)
        # 50 * (2 rows: the constraint and the costs; 3 columns: x, slack, rhs)
        assert str(err.value) == "simplex hit the iteration cap (250) in phase 2"


class TestKernelStatus:
    """ccr._raise, the one place a failure status of the kernel's
    mo_solve becomes an error: one row per status, with the message the
    CLI prints, the breakdowns worded as _simplex words them."""

    # (status, level, value, error type, message, SolverFailure.status)
    ROWS = [
        ("BAD_DATA", -1, 0.0, DataError,
         "data at level -1 for DMU 'X' must be finite and strictly positive", None),
        ("DEGENERATE", 0.5, 1e-12, DegenerateZStar,
         "ideal score for DMU 'X' is 1e-12; the ratio target is undefined", None),
        ("PHASE1_UNBOUNDED", 1.0, 750.0, NumericalBreakdown,
         "phase 1 reported an unbounded tableau", None),
        ("PHASE1_ITER_LIMIT", 1.0, 750.0, NumericalBreakdown,
         "simplex hit the iteration cap (750) in phase 1", None),
        ("ITER_LIMIT", 1.0, 650.0, NumericalBreakdown,
         "simplex hit the iteration cap (650) in phase 2", None),
        ("INFEASIBLE", 1.0, 750.0, SolverFailure,
         "CCR multiplier model for DMU 'X' is infeasible", LpStatus.INFEASIBLE),
        ("UNBOUNDED", 1.0, 650.0, SolverFailure,
         "CCR multiplier model for DMU 'X' is unbounded", LpStatus.UNBOUNDED),
    ]

    @pytest.mark.parametrize("status,level,value,error,message,lp_status", ROWS,
                             ids=[row[0] for row in ROWS])
    def test_each_status_raises_its_error(self, status, level, value, error, message,
                                          lp_status):
        with pytest.raises(FuzzyDeaError) as err:
            ccr._raise("X", getattr(pure, status), level, value)
        assert type(err.value) is error
        assert str(err.value) == message
        assert getattr(err.value, "status", None) is lp_status

    def test_every_failure_status_has_a_row(self):
        statuses = {name for name, value in vars(pure).items()
                    if name.isupper() and isinstance(value, int)}
        assert statuses - {"KERNEL_API", "OPTIMAL"} == {row[0] for row in self.ROWS}
