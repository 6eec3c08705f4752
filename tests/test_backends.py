"""The compiled pivot kernel must be a bit-for-bit twin of the pure one."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fuzzydea
from fuzzydea import linprog
from fuzzydea._speedups import BACKEND, fast_pivot_loop, pure_pivot_loop
from fuzzydea.alphacut import alphacut_scores
from fuzzydea.linprog import LpProblem, solve

REPO = Path(__file__).resolve().parent.parent

needs_fast = pytest.mark.skipif(
    fast_pivot_loop is None, reason="compiled kernel not built"
)

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
        # linprog.default_pivot_loop runs the whole pipeline on each.
        def score_bits(kernel, alpha):
            monkeypatch.setattr(linprog, "default_pivot_loop", kernel)
            return [s.score.hex() for s in alphacut_scores(gt, alpha)]

        for alpha in (0.0, 0.5):
            pure = score_bits(pure_pivot_loop, alpha)
            assert score_bits(fast_pivot_loop, alpha) == pure


@pytest.mark.parametrize("kernel", KERNELS)
def test_short_basis_raises(kernel):
    assert_short_basis_rejected(kernel)


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


class TestBackendSelection:
    def test_backend_reported(self):
        assert BACKEND in ("fast", "pure")
        assert fuzzydea.BACKEND == BACKEND

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
