"""The compiled kernel must be a bit-for-bit twin of the pure one.

Both entries are checked: pivot_loop, linprog's pivot loop, and
ccr_solve, which solves a whole CCR multiplier LP and must also give
what linprog._simplex gives on the same tableau.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fuzzydea
from _datagen import random_dataset
from fuzzydea import ccr, linprog
from fuzzydea._speedups import (
    BACKEND,
    default_ccr_solve,
    default_pivot_loop,
    fast_ccr_solve,
    fast_pivot_loop,
    pure_ccr_solve,
    pure_pivot_loop,
)
from fuzzydea._speedups.pure import (
    BAD_DATA,
    INFEASIBLE,
    OPTIMAL,
    PHASE1_ITER_LIMIT,
    PHASE1_UNBOUNDED,
    UNBOUNDED,
)
from fuzzydea.alphacut import alphacut_scores
from fuzzydea.ccr import SelfPolicy, _multiplier_tableau
from fuzzydea.dataio import load_fixture
from fuzzydea.errors import NumericalBreakdown
from fuzzydea.linprog import ITERS_PER_DIM, LP_TOL, LpProblem, LpStatus, _simplex, solve
from fuzzydea.mofdea import reduced_data
from fuzzydea.trifuzzy import toward_modal

REPO = Path(__file__).resolve().parent.parent

needs_fast = pytest.mark.skipif(
    fast_pivot_loop is None, reason="compiled kernel not built"
)

CCR_KERNELS = [
    pytest.param(pure_ccr_solve, id="pure"),
    pytest.param(fast_ccr_solve, id="fast", marks=needs_fast),
]

KERNELS = [
    pytest.param(pure_pivot_loop, id="pure"),
    pytest.param(fast_pivot_loop, id="fast", marks=needs_fast),
]


def random_tableau(rng, m, n, rounded=False):
    """Feasible-start phase-2 tableau: max c@x s.t. Ax <= b, b > 0.

    rounded=True rounds the same draws to halves, so ratios tie, and
    numbers the slacks in reverse row order, so a later row can win a
    tie on Bland's least basic index.
    """
    A = rng.uniform(-1.0, 2.0, size=(m, n))
    b = rng.uniform(0.5, 5.0, size=m)
    c = rng.uniform(-1.0, 1.0, size=n)
    slacks = np.eye(m)
    basis = np.arange(n, n + m, dtype=np.int64)
    if rounded:
        A, b, c = (np.round(2.0 * x) / 2.0 for x in (A, b, c))
        slacks = slacks[:, ::-1]
        basis = basis[::-1].copy()
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = slacks
    T[:m, -1] = b
    T[m, :n] = -c
    return np.ascontiguousarray(T), basis


def assert_twin_on_random_tableaus(kernel, rounded):
    rng = np.random.default_rng(20240817)
    for _ in range(120):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        T, basis = random_tableau(rng, m, n, rounded)
        Tp, bp = T.copy(), basis.copy()
        Tf, bf = T.copy(), basis.copy()
        rp = pure_pivot_loop(Tp, bp, 1e-9, 1000)
        rf = kernel(Tf, bf, 1e-9, 1000)
        assert rp == rf
        assert Tp.tobytes() == Tf.tobytes()
        assert bp.tobytes() == bf.tobytes()


def assert_short_basis_rejected(kernel):
    # Three constraint rows; the ratio test picks row 2, past the end of
    # a one-entry basis that is a view into a longer array.
    T = np.array(
        [
            [1.0, 1.0, 0.0, 0.0, 3.0],
            [1.0, 0.0, 1.0, 0.0, 2.0],
            [1.0, 0.0, 0.0, 1.0, 1.0],
            [-1.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )
    backing = np.arange(1, 6, dtype=np.int64)
    before = T.copy()
    with pytest.raises(ValueError, match="basis"):
        kernel(T, backing[:1], 1e-9, 100)
    assert backing.tolist() == [1, 2, 3, 4, 5]
    assert T.tobytes() == before.tobytes()


def ccr_tableaus():
    """(name, end, modal, n_outputs): p's starting tableaus at data levels
    0 and 1, for every DMU of both fixtures and one of each of 40
    _datagen sets, under both self policies."""
    rng = np.random.default_rng(20261019)
    picks = [(load_fixture(f), p) for f in ("guo_tanaka", "aircraft") for p in range(5)]
    for _ in range(40):
        data = random_dataset(rng, n_dmus=int(rng.integers(2, 9)))
        picks.append((data, int(rng.integers(0, data.n_dmus))))
    for data, p in picks:
        ends = (reduced_data(data, p, 0.0), reduced_data(data, p, 1.0))
        for policy in SelfPolicy:
            end, modal = (
                _multiplier_tableau(d.inputs, d.outputs, p, policy) for d in ends
            )
            yield f"{data.name}/{p}/{policy.value}", end, modal, len(data.output_names)


def run_ccr(kernel, end, modal, level, n_outputs, iters_per_dim=ITERS_PER_DIM):
    """kernel's result, work tableau and basis, from fixed initial buffers."""
    work = np.full_like(end, 7.0)
    basis = np.full(end.shape[0] - 2, 3, dtype=np.int64)
    out = kernel(end, modal, level, work, basis, n_outputs, LP_TOL, iters_per_dim)
    return out, work, basis


def ccr_bits(out, work, basis):
    status, value, u, v = out
    xs = None if u is None else [x.hex() for x in (*u, *v)]
    return status, value.hex(), xs, work.tobytes(), basis.tobytes()


def simplex_reference(end, modal, level, n_outputs):
    """(status, value, u, v) that linprog._simplex gives on the blended tableau."""
    X = toward_modal(end, modal, level)
    k = X.shape[0] - 3
    n = X.shape[1] - k - 2
    basis = np.arange(n - 1, n + k, dtype=np.int64)
    basis[0] = n + k
    try:
        out = _simplex(X, basis, n, 1)
    except NumericalBreakdown as exc:
        return str(exc)
    if out.status is not LpStatus.OPTIMAL:
        return INFEASIBLE if out.status is LpStatus.INFEASIBLE else UNBOUNDED
    return OPTIMAL, out.value, out.solution[:n_outputs], out.solution[n_outputs:]


def crafted_tableaus():
    """(name, tableau, n_outputs, status): CCR-layout tableaus that reach
    the kernel's rarer branches, each used as both ends."""
    base = _multiplier_tableau(
        np.array([[2.0, 3.0, 4.0], [1.0, 1.0, 2.0]]), np.array([[1.0, 2.0, 1.5]]),
        0, SelfPolicy.EXCLUDE_SELF)
    s, n, k = 1, 3, 2
    cases = []
    T = base.copy()  # v @ x_p = 1 with v >= 0 and x_p < 0
    T[0, s:n] *= -1.0
    T[k + 1, s:n] *= -1.0
    cases.append(("infeasible", T, s, INFEASIBLE))
    for rhs, status in ((5e-7, INFEASIBLE), (5e-8, OPTIMAL)):  # at -1e2 * LP_TOL
        T = T.copy()
        T[0, -1], T[k + 1, -1] = rhs, -rhs
        cases.append((f"phase 1 ends at {-rhs}", T, s, status))
    T = base.copy()  # a column with a negative phase-1 cost and no positive entry
    T[1 : k + 1, 0] *= -1.0
    T[k + 1, 0] = -1.0
    cases.append(("phase-1 unbounded", T, s, PHASE1_UNBOUNDED))
    T = base.copy()  # phase 1 ends at 0 with the artificial basic: purge pivot
    T[0, s:n] *= -1.0
    T[k + 1, s:n] *= -1.0
    T[0, -1] = T[k + 1, -1] = 0.0
    cases.append(("artificial pivoted out", T, s, OPTIMAL))
    T = T.copy()  # ... and with nothing to pivot on: row dropped
    T[[0, k + 1], s:n] = 0.0
    cases.append(("row dropped", T, s, UNBOUNDED))
    solo = _multiplier_tableau(
        np.ones((1, 1)), np.ones((1, 1)), 0, SelfPolicy.EXCLUDE_SELF)
    cases.append(("no peer", solo, 1, UNBOUNDED))
    return cases


def result_hex(out):
    """An OPTIMAL (status, value, u, v) with every float as its hex."""
    status, value, u, v = out
    return status, [x.hex() for x in (value, *u, *v)]


def assert_ccr_twin(kernel):
    """kernel against the pure entry and against linprog._simplex."""
    rng = np.random.default_rng(5)
    for name, end, modal, s in ccr_tableaus():
        for level in (0.0, 1.0, float(rng.random())):
            got = run_ccr(kernel, end, modal, level, s)
            pure = run_ccr(pure_ccr_solve, end, modal, level, s)
            assert ccr_bits(*got) == ccr_bits(*pure), (name, level)
            ref = simplex_reference(end, modal, level, s)
            assert result_hex(got[0]) == result_hex(ref), (name, level)
            assert ref[0] == OPTIMAL
        # work may be modal itself, or the one array that is both ends
        for lo, level in ((end, 0.5), (None, 1.0)):
            A = modal.copy()
            basis = np.full(A.shape[0] - 2, 3, dtype=np.int64)
            out = kernel(A if lo is None else lo, A, level, A, basis, s, LP_TOL,
                         ITERS_PER_DIM)
            want = run_ccr(kernel, modal if lo is None else lo, modal, level, s)
            assert ccr_bits(out, A, basis) == ccr_bits(*want), (name, level)
    for name, T, s, status in crafted_tableaus():
        got = run_ccr(kernel, T, T, 1.0, s)
        assert got[0][0] == status, name
        assert ccr_bits(*got) == ccr_bits(*run_ccr(pure_ccr_solve, T, T, 1.0, s)), name
        ref = simplex_reference(T, T, 1.0, s)
        if status == PHASE1_UNBOUNDED:
            assert ref == "phase 1 reported an unbounded tableau"
        elif status == OPTIMAL:
            assert result_hex(got[0]) == result_hex(ref), name
        else:
            assert ref == status, name


def assert_ccr_errors(kernel):
    """Bad data, the iteration cap and misshapen buffers."""
    data = reduced_data(load_fixture("guo_tanaka"), 1, 1.0)
    end = _multiplier_tableau(data.inputs, data.outputs, 1, SelfPolicy.INCLUDE_SELF)
    half = end * 0.5  # at level -1 every entry that moves reaches 0
    huge = np.full_like(end, 1e308)  # at level -1 every entry overflows
    for lo, hi, level in ((half, end, -1.0), (huge, end, -1.0), (half, end, np.nan)):
        out, _, basis = run_ccr(kernel, lo, hi, level, 2)
        assert out == (BAD_DATA, 0.0, None, None)
        assert basis.tolist() == [3] * len(basis)  # untouched
        work = hi.copy()  # the check also holds when work is modal
        out = kernel(lo, work, level, work, basis, 2, LP_TOL, ITERS_PER_DIM)
        assert out == (BAD_DATA, 0.0, None, None)
    assert run_ccr(kernel, half, end, 0.5, 2, iters_per_dim=0)[0] == (
        PHASE1_ITER_LIMIT, 0.0, None, None)

    rows, cols = end.shape
    basis = np.zeros(rows - 2, dtype=np.int64)
    bad = [
        (end, end, end.copy(), basis[:-1], 2),  # basis one entry short
        (end, end, end.copy(), np.zeros(rows - 1, dtype=np.int64), 2),
        (end, end, end[:, :-1].copy(), basis, 2),  # work of another shape
        (end, end[:-1], end.copy(), basis, 2),  # modal of another shape
        (end, end, end.ravel().copy(), basis, 2),  # 1-D work
        (end, end, end.copy(), basis, cols),  # more outputs than multipliers
        (end[:2], end[:2], end[:2].copy(), basis[:0], 0),  # too few rows
    ]
    for args in bad:
        work, before = args[2], args[2].copy()
        with pytest.raises(ValueError):
            kernel(args[0], args[1], 0.5, work, *args[3:], LP_TOL, ITERS_PER_DIM)
        assert work.tobytes() == before.tobytes()


@needs_fast
class TestKernelTwins:
    def test_random_tableaus_bitwise_identical(self):
        for rounded in (False, True):
            assert_twin_on_random_tableaus(fast_pivot_loop, rounded)

    def test_solver_results_identical_through_driver(self, monkeypatch):
        def solved_with(kernel, prob):
            monkeypatch.setattr(linprog, "default_pivot_loop", kernel)
            return solve(prob)

        rng = np.random.default_rng(7)
        rels = ("<=", ">=", "=")
        for _ in range(60):
            n = int(rng.integers(1, 4))
            rows = []
            for _ in range(int(rng.integers(1, 5))):
                coeffs = tuple(float(v) for v in rng.uniform(-2, 2, n))
                rows.append((coeffs, rels[int(rng.integers(0, 3))], float(rng.uniform(-1, 4))))
            prob = LpProblem(
                tuple(float(v) for v in rng.uniform(-1, 1, n)), tuple(rows)
            )
            a = solved_with(pure_pivot_loop, prob)
            b = solved_with(fast_pivot_loop, prob)
            assert a.status == b.status
            assert a.value == b.value  # exact float equality, not approx
            assert a.solution == b.solution

    def test_ccr_pipeline_identical(self, gt, monkeypatch):
        # The model code looks the kernel up at call time, so swapping
        # ccr.default_ccr_solve runs the whole pipeline on each.
        def score_bits(kernel, alpha):
            monkeypatch.setattr(ccr, "default_ccr_solve", kernel)
            return [s.score.hex() for s in alphacut_scores(gt, alpha)]

        for alpha in (0.0, 0.5):
            pure = score_bits(pure_ccr_solve, alpha)
            assert score_bits(fast_ccr_solve, alpha) == pure


@pytest.mark.parametrize("kernel", KERNELS)
def test_short_basis_raises(kernel):
    assert_short_basis_rejected(kernel)


@pytest.mark.parametrize("kernel", CCR_KERNELS)
def test_ccr_solve_twin_of_pure_and_simplex(kernel):
    assert_ccr_twin(kernel)


@pytest.mark.parametrize("kernel", CCR_KERNELS)
def test_ccr_solve_error_paths(kernel):
    assert_ccr_errors(kernel)


def test_committed_c_source_builds_a_twin(tmp_path):
    """Build fast.c out of tree and check the fresh module, not any in-place .so."""
    subprocess.run(
        [
            sys.executable, "setup.py", "build_ext",
            "--build-lib", str(tmp_path / "lib"),
            "--build-temp", str(tmp_path / "tmp"),
        ],
        cwd=REPO,
        capture_output=True,
        check=True,
    )
    built = sorted((tmp_path / "lib").rglob("fast*"))
    if not built:
        pytest.skip("no C compiler: the build produced no extension")
    # Loading an extension module registers it in sys.modules; the
    # in-place build (or its absence) is put back afterwards.
    name = "fuzzydea._speedups.fast"
    saved = sys.modules.get(name)
    try:
        spec = importlib.util.spec_from_file_location(name, built[0])
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = saved
    for rounded in (False, True):
        assert_twin_on_random_tableaus(module.pivot_loop, rounded)
    assert_short_basis_rejected(module.pivot_loop)
    assert_ccr_twin(module.ccr_solve)
    assert_ccr_errors(module.ccr_solve)


class TestBackendSelection:
    def test_backend_reported(self):
        assert BACKEND in ("fast", "pure")
        assert fuzzydea.BACKEND == BACKEND

    def test_both_entries_from_one_backend(self):
        module = f"fuzzydea._speedups.{BACKEND}"
        assert default_pivot_loop.__module__ == module
        assert default_ccr_solve.__module__ == module

    def test_stale_compiled_module_is_not_mixed_in(self):
        # An in-place build of an older fast.c has pivot_loop but no
        # ccr_solve; neither of its entries may be used.
        code = (
            "import sys, types\n"
            "stale = types.ModuleType('fuzzydea._speedups.fast')\n"
            "stale.pivot_loop = lambda *args: (0, 0)\n"
            "sys.modules[stale.__name__] = stale\n"
            "from fuzzydea import _speedups as s\n"
            "print(s.BACKEND, s.default_pivot_loop.__module__,"
            " s.default_ccr_solve.__module__, s.fast_pivot_loop)\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "FUZZYDEA_PURE"}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [
            "pure", "fuzzydea._speedups.pure", "fuzzydea._speedups.pure", "None"
        ]

    def test_env_forces_pure(self):
        env = dict(os.environ, FUZZYDEA_PURE="1")
        proc = subprocess.run(
            [sys.executable, "-c", "import fuzzydea; print(fuzzydea.BACKEND)"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "pure"

    @needs_fast
    def test_cli_output_identical_across_backends(self):
        argv = [
            sys.executable, "-m", "fuzzydea",
            "eval", "--model", "mo", "--data", "fixture:guo_tanaka",
            "--alpha", "0,0.5,0.75,1", "--format", "csv",
        ]
        fast = subprocess.run(argv, capture_output=True)
        pure = subprocess.run(
            argv, capture_output=True, env=dict(os.environ, FUZZYDEA_PURE="1")
        )
        assert fast.returncode == pure.returncode == 0
        assert fast.stdout == pure.stdout
