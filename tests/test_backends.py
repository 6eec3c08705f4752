"""The compiled kernel must be a bit-for-bit twin of the pure one.

Its one entry, mo_solve, is checked two ways: asked for single levels
with no config, as DataLps.solve asks it, where it must write the tableau
linprog._tableau builds and give what linprog._simplex gives on it; and
running one DMU's whole mo root search on those LPs.  linprog's own
pivot loop is the pure-Python pure.pivot_loop whatever the build.
"""

import functools
import importlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import types
from pathlib import Path

import numpy as np
import pytest

import fuzzydea
from _datagen import random_dataset
from _oracles import reference_lp
from fuzzydea import ccr, linprog
from fuzzydea._speedups import BACKEND, default_mo_solve, fast_mo_solve, pure, pure_mo_solve
from fuzzydea._speedups.pure import (
    BAD_DATA,
    DEGENERATE,
    INFEASIBLE,
    OPTIMAL,
    PHASE1_ITER_LIMIT,
    PHASE1_UNBOUNDED,
    UNBOUNDED,
)
from fuzzydea.alphacut import alphacut_scores
from fuzzydea.ccr import DataLps, SelfPolicy
from fuzzydea.dataio import load_fixture
from fuzzydea.errors import NumericalBreakdown
from fuzzydea.mofdea import ALPHA_MODES, MAX_BISECT, MoConfig, compare_all, evaluate_all
from fuzzydea.linprog import ITERS_PER_DIM, LP_TOL, LpStatus, _simplex, _tableau
from fuzzydea.trifuzzy import toward_modal
from test_golden import CASES, GOLDEN, render

REPO = Path(__file__).resolve().parent.parent
REBUILD = "python3 setup.py build_ext --inplace --force"


def fast_skip_reason():
    """Why the compiled kernel is not in use: FUZZYDEA_PURE, no build, or
    a build of another KERNEL_API, which is refused without a word."""
    if os.environ.get("FUZZYDEA_PURE"):
        return "FUZZYDEA_PURE is set"
    try:
        fast = importlib.import_module("fuzzydea._speedups.fast")
    except ImportError:
        return "compiled kernel not built"
    return (f"compiled kernel {getattr(fast, '__file__', fast.__name__)} has KERNEL_API "
            f"{getattr(fast, 'KERNEL_API', None)}, not {pure.KERNEL_API}; rebuild it "
            f"with `{REBUILD}`")


needs_fast = pytest.mark.skipif(
    fast_mo_solve is None, reason="" if fast_mo_solve else fast_skip_reason()
)

KERNELS = [
    pytest.param(pure_mo_solve, id="pure"),
    pytest.param(fast_mo_solve, id="fast", marks=needs_fast),
]


def store_arrays(data):
    """data's low, modal and high arrays, as a DataLps hands them to the kernel."""
    lps = DataLps(data, SelfPolicy.INCLUDE_SELF)
    return lps.low, lps.modal, lps.high


def level0(lp):
    """lp's data at level 0 as its DMU p sees them: p at low inputs and
    high outputs, its peers at high inputs and low outputs."""
    low, modal, high, p, _, s = lp
    rows, n_dmus = modal.shape
    inputs = np.arange(rows)[:, None] < rows - s
    return np.where(inputs == (np.arange(n_dmus) == p), low, high)


def ccr_lps(n_sets=40):
    """(name, lp): lp is (low, modal, high, p, exclude_self, n_outputs),
    a dataset's arrays and DMU p, for every DMU of both fixtures and one
    of each of n_sets _datagen sets, under both self policies."""
    rng = np.random.default_rng(20261019)
    picks = [(load_fixture(f), p) for f in ("guo_tanaka", "aircraft") for p in range(5)]
    for _ in range(n_sets):
        data = random_dataset(rng, n_dmus=int(rng.integers(2, 9)))
        picks.append((data, int(rng.integers(0, data.n_dmus))))
    for data, p in picks:
        for exclude in (False, True):
            yield f"{data.name}/{p}/{exclude}", (*store_arrays(data), p, exclude, data.n_outputs)


def run_ccr(kernel, lp, level, iters_per_dim=ITERS_PER_DIM):
    """kernel's mo_solve asked for lp's LP at level alone, as
    DataLps.solve asks it, from fixed initial buffers: (status, value, u,
    v), where a failure's value is its iteration cap and u and v are
    None, and the work tableau and basis.  The call must report the one
    LP it ran."""
    low, modal, high, p, exclude, s = lp
    rows, n_dmus = modal.shape
    k = n_dmus - exclude
    work = np.full((k + 3, rows + k + 2), 7.0)
    basis = np.full(k + 1, 3, dtype=np.int64)
    found, effs, solved, failure = kernel(
        low, modal, high, p, exclude, work, basis, s, LP_TOL, iters_per_dim, 0, (), (level,))
    assert found == () and [x.hex() for x in solved] == [float(level).hex()]
    if failure is None:
        return (OPTIMAL, *effs[0]), work, basis
    status, at, value = failure
    assert (effs, at.hex()) == ((), float(level).hex())
    return (status, value, None, None), work, basis


def ccr_bits(out, work, basis):
    status, value, u, v = out
    xs = None if u is None else [x.hex() for x in (*u, *v)]
    return status, value.hex(), xs, work.tobytes(), basis.tobytes()


def simplex_reference(lp, level):
    """The starting tableau that linprog._tableau builds for lp's LP on
    the data at level, and what linprog._simplex gives on it: (status,
    value, u, v), or the message of its NumericalBreakdown."""
    _, modal, _, p, exclude, s = lp
    X = toward_modal(level0(lp), modal, level)
    c, A, rels, b = reference_lp(X[: len(X) - s], X[len(X) - s :], p, exclude)
    T, basis, n_art = _tableau(c, A, rels, b)
    start = T.copy()
    try:
        out = _simplex(T, basis, len(c), n_art)
    except NumericalBreakdown as exc:
        return start, str(exc)
    if out.status is not LpStatus.OPTIMAL:
        return start, INFEASIBLE if out.status is LpStatus.INFEASIBLE else UNBOUNDED
    return start, (OPTIMAL, out.value, out.solution[:s], out.solution[s:])


# p = 0's two inputs and one output, and two peers'.
SMALL = np.array([[1.3, 3.0, 4.0], [1.0, 1.0, 2.0], [3.3, 2.0, 1.5]])


def crafted_lps():
    """(name, lp, level, status): data that reach the kernel's rarer outcomes."""
    neg = SMALL.copy()  # v @ x_p = 1 with v >= 0 and x_p < 0
    neg[:2, 0] *= -1.0
    solo = np.ones((2, 1))
    spread = SMALL * 1.25  # level-0 ends off modal except p's own cells
    spread[:, 0] = SMALL[:, 0]
    # After the normalisation pivot, v_2's phase-1 cost is minus one ulp
    # of 2.2e7 (< -tol) and its entries are at most 2.2e7 / 4.2e16 <= tol.
    vast = np.array([[4.2e16, 1.3e16], [2.2e7, 1.7e7], [6.7, 9.9]])
    return [
        ("infeasible", (neg, neg, neg, 0, True, 1), 1.0, INFEASIBLE),
        ("infeasible, p a peer", (neg, neg, neg, 0, False, 1), 1.0, INFEASIBLE),
        ("no peer", (solo, solo, solo, 0, True, 1), 1.0, UNBOUNDED),
        ("phase-1 unbounded", (vast, vast, vast, 0, True, 1), 1.0, PHASE1_UNBOUNDED),
        # 0.7 * 1.3 + 0.3 * 1.3 and 0.7 * 3.3 + 0.3 * 3.3 miss by an ulp
        ("crisp cells", (spread, SMALL, spread, 0, True, 1), 0.3, OPTIMAL),
    ]


def result_hex(out):
    """An OPTIMAL (status, value, u, v) with every float as its hex."""
    status, value, u, v = out
    return status, [x.hex() for x in (value, *u, *v)]


def assert_ccr_twin(kernel):
    """kernel's single levels against the pure entry's and against
    linprog._tableau and _simplex: the same starting tableau, bit for
    bit, and the same result."""
    rng = np.random.default_rng(5)
    cases = [(name, lp, level, OPTIMAL)
             for name, lp in ccr_lps() for level in (0.0, 1.0, float(rng.random()))]
    for name, lp, level, status in cases + crafted_lps():
        got = run_ccr(kernel, lp, level)
        assert got[0][0] == status, (name, level)
        assert ccr_bits(*got) == ccr_bits(*run_ccr(pure_mo_solve, lp, level)), name
        start, ref = simplex_reference(lp, level)
        assert run_ccr(kernel, lp, level, 0)[1].tobytes() == start.tobytes(), name
        if status == OPTIMAL:
            assert result_hex(got[0]) == result_hex(ref), (name, level)
        elif status == PHASE1_UNBOUNDED:
            assert ref == "phase 1 reported an unbounded tableau"
        else:
            assert ref == status, name
    start = run_ccr(kernel, crafted_lps()[-1][1], 0.3, 0)[1]
    assert (start[0, 1:3].tolist(), start[-1, 0]) == ([1.3, 1.0], 3.3)


def assert_ccr_errors(kernel):
    """Bad data, the iteration cap and misshapen buffers."""
    low, modal, high = store_arrays(load_fixture("guo_tanaka"))
    half = modal * 0.5  # at level -1 every cell that moves reaches 0
    huge = np.full_like(modal, 1e308)  # at level -1 every cell overflows
    for lo, level in ((half, -1.0), (huge, -1.0), (half, np.nan)):
        out, _, basis = run_ccr(kernel, (lo, modal, lo, 1, False, 2), level)
        assert out == (BAD_DATA, 0.0, None, None)
        assert basis.tolist() == [3] * len(basis)  # untouched
    assert run_ccr(kernel, (low, modal, high, 1, False, 2), 0.5, iters_per_dim=0)[0] == (
        PHASE1_ITER_LIMIT, 0.0, None, None)

    rows, n = modal.shape  # include-self: n peers
    work, basis = np.zeros((n + 3, rows + n + 2)), np.zeros(n + 1, dtype=np.int64)
    bad = [
        (low, modal, high, 1, False, work, basis[:-1], 2),  # basis one entry short
        (low, modal, high, 1, False, work, np.zeros(n + 2, dtype=np.int64), 2),
        (low, modal, high, 1, True, work, basis, 2),  # buffers of include-self
        (low, modal, high, 1, False, work[:, :-1], basis, 2),  # work of another shape
        (low, modal[:, :-1], high, 1, False, work, basis, 2),  # modal of another shape
        (low[:, :-1], modal, high, 1, False, work, basis, 2),  # low of another shape
        (low, modal, high[:-1], 1, False, work, basis, 2),  # high of another shape
        (low, modal, high, 1, False, work.ravel(), basis, 2),  # 1-D work
        (low, modal, high, 1, False, work, basis, rows + 1),  # more outputs than rows
        (low, modal, high, n, False, work, basis, 2),  # p out of range
        (low, modal, high, -1, False, work, basis, 2),
        (low[:0], modal[:0], high[:0], 1, False, work[:, rows:], basis, 0),  # no data rows
    ]
    for args in bad:
        w = args[5]
        before = w.copy()
        with pytest.raises(ValueError):
            kernel(*args, LP_TOL, ITERS_PER_DIM, 0, (), (0.5,))
        assert w.tobytes() == before.tobytes()


# An unsorted alpha list with a repeat, under both alpha modes: configs
# that meet at levels, as a report's scores of one DMU do.
MO_ALPHAS = (1.0, 0.0, 0.5, 0.5, 0.25)
MO_CFGS = tuple((a, rescale, 1e-6) for a in MO_ALPHAS for rescale in (False, True))


def run_mo(kernel, lp, cfgs=MO_CFGS, levels=MO_ALPHAS, iters_per_dim=ITERS_PER_DIM,
           max_probes=MAX_BISECT):
    """kernel's mo_solve result, work tableau and basis, from fixed buffers."""
    low, modal, high, p, exclude, s = lp
    rows, n_dmus = modal.shape
    k = n_dmus - exclude
    work = np.full((k + 3, rows + k + 2), 7.0)
    basis = np.full(k + 1, 3, dtype=np.int64)
    out = kernel(low, modal, high, p, exclude, work, basis, s, LP_TOL, iters_per_dim,
                 max_probes, cfgs, levels)
    return out, work, basis


def mo_bits(out, work, basis):
    found, effs, solved, failure = out

    def hexed(xs):
        return [x.hex() for x in xs]

    return (
        [(hexed((h, eff, z, *u, *v)), type(n), n) for h, eff, z, u, v, n in found],
        [hexed((value, *u, *v)) for value, u, v in effs],
        hexed(solved),
        None if failure is None else (failure[0], *hexed(failure[1:])),
        work.tobytes(),
        basis.tobytes(),
    )


def mo_cases():
    """(name, lp, kwargs, failure status or None, found, effs): the
    mo_solve calls of the twin test, the failing ones with the number of
    configs and levels done before the failure."""
    cases = [(name, lp, {}, None, 10, 5) for name, lp in ccr_lps(200)]
    tiny = SMALL.copy()  # p = 0's output: z* about 1e-12
    tiny[2, 0] = 1e-12
    solo = np.ones((2, 1))
    lp = (*store_arrays(load_fixture("guo_tanaka")), 1, True, 2)
    # at level -1 every cell that moves reaches 0
    half = (lp[1] * 0.5, lp[1], lp[1] * 0.5, *lp[3:])
    ok, bad = (0.5, True, 1e-6), (-1.0, True, 1e-6)  # bad: z* at level -1
    return cases + [
        ("degenerate z*", (tiny, tiny, tiny, 0, True, 1), {}, DEGENERATE, 0, 0),
        ("no peer", (solo, solo, solo, 0, True, 1), {}, UNBOUNDED, 0, 0),
        ("iteration cap", lp, {"iters_per_dim": 0}, PHASE1_ITER_LIMIT, 0, 0),
        ("second config", half, {"cfgs": (ok, bad)}, BAD_DATA, 1, 0),
        ("second level", half, {"cfgs": (ok,), "levels": (0.5, -1.0)}, BAD_DATA, 1, 1),
        ("probe cap", lp, {"cfgs": ((0.3, False, 1e-300),), "max_probes": 2}, None, 1, 5),
        ("no config", lp, {"cfgs": ()}, None, 0, 5),
    ]


def assert_mo_twin(kernel):
    """kernel's mo_solve against the pure entry: the same bits, iterations
    and solved levels, and the same failure at the same place."""
    for name, lp, kwargs, status, n_found, n_effs in mo_cases():
        got = run_mo(kernel, lp, **kwargs)
        assert mo_bits(*got) == mo_bits(*run_mo(pure_mo_solve, lp, **kwargs)), name
        found, effs, solved, failure = got[0]
        assert (len(found), len(effs)) == (n_found, n_effs), name
        assert (None if failure is None else failure[0]) == status, name
        # A failure's level is the last solved: the failed LP's, or z*'s.
        assert failure is None or solved[-1] == failure[1], name
        assert len(set(solved)) == len(solved), name
    low, modal, high, p, exclude, s = lp
    work, basis = np.zeros((3, 3)), np.zeros(2, dtype=np.int64)
    with pytest.raises(ValueError, match="no CCR LP"):
        kernel(low, modal, high, p, exclude, work, basis, s, LP_TOL, 1, 1, MO_CFGS, ())


def through_ccr_binding(kernel, run, monkeypatch):
    """run() with ccr.default_mo_solve rebound to a counting wrapper of
    kernel; returns run's result once every call of either kernel's
    mo_solve is seen to have come through the wrapper, and there was one."""
    calls, entries, inside = [0], [], [False]

    def counted(*args):
        calls[0] += 1
        inside[0] = True
        try:
            return kernel(*args)
        finally:
            inside[0] = False

    def profile(frame, event, arg):
        # The compiled entry shows as a C call, the pure one as a frame.
        if (event == "c_call" and arg is fast_mo_solve) or (
                event == "call" and frame.f_code is pure_mo_solve.__code__):
            entries.append(inside[0])

    monkeypatch.setattr(ccr, "default_mo_solve", counted)
    sys.setprofile(profile)
    try:
        out = run()
    finally:
        sys.setprofile(None)
    assert calls[0] > 0 and entries == [True] * calls[0]
    return out


@pytest.mark.parametrize("kernel", KERNELS)
def test_one_binding_serves_every_model(kernel, monkeypatch):
    # Every command's report on both fixtures keeps its golden bytes with
    # ccr.default_mo_solve rebound, and every kernel call goes through it.
    for name, argv in CASES:
        got = through_ccr_binding(kernel, lambda: render(argv), monkeypatch)
        assert got == (GOLDEN / name).read_bytes(), name


@needs_fast
class TestKernelTwins:
    def test_ccr_pipeline_identical(self, gt, ac, monkeypatch):
        # The models look the kernel up in ccr at call time, so swapping
        # ccr.default_mo_solve runs the whole pipeline on each.  repr
        # round-trips a float, so equal reprs are equal bits.
        def run_all(data, policy):  # one ranking call per policy
            cfgs = [MoConfig(alpha=a, policy=policy, alpha_mode=mode)
                    for a in MO_ALPHAS for mode in ALPHA_MODES]
            cuts = [alphacut_scores(data, a, policy) for a in MO_ALPHAS]
            return repr((cuts, evaluate_all(data, cfgs), compare_all(data, cfgs)))

        for data in (gt, ac):
            for policy in SelfPolicy:
                run = functools.partial(run_all, data, policy)
                pure = through_ccr_binding(pure_mo_solve, run, monkeypatch)
                assert through_ccr_binding(fast_mo_solve, run, monkeypatch) == pure


def test_short_basis_raises():
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
        pure.pivot_loop(T, backing[:1], 1e-9, 100)
    assert backing.tolist() == [1, 2, 3, 4, 5]
    assert T.tobytes() == before.tobytes()


@pytest.mark.parametrize("kernel", KERNELS)
def test_one_level_twin_of_pure_and_simplex(kernel):
    assert_ccr_twin(kernel)


@pytest.mark.parametrize("kernel", KERNELS)
def test_one_level_error_paths(kernel):
    assert_ccr_errors(kernel)


@needs_fast
def test_mo_solve_twin_of_pure():
    assert_mo_twin(fast_mo_solve)


def test_mo_solve_reports_each_lp_it_runs(monkeypatch):
    # solved is the record of the pure kernel's own LP calls, one per
    # level, and each config's efficiency and z* are those of the LP at
    # that level asked for alone.
    runs = []
    solve = pure._solve_ccr
    monkeypatch.setattr(
        pure, "_solve_ccr",
        lambda L, M, H, level, *a: runs.append(level) or solve(L, M, H, level, *a),
    )
    for name, lp in ccr_lps(10):
        runs.clear()
        found, effs, solved, failure = run_mo(pure_mo_solve, lp)[0]
        assert failure is None and list(solved) == runs == list(dict.fromkeys(runs)), name
        for (alpha, rescale, _), (h, eff, z, u, v, _) in zip(MO_CFGS, found):
            for level, value in ((pure._beta(h, alpha, rescale), eff),
                                 (alpha if rescale else 0.0, z)):
                assert run_ccr(pure_mo_solve, lp, level)[0][1] == value, name


def test_committed_c_source_builds_a_twin(tmp_path):
    """Build fast.c out of tree and check the fresh module, not any in-place .so."""
    # Only the in-place build writes bytecode; an out-of-tree one leaves
    # the checkout as it was.
    bytecode = {p: p.stat().st_mtime_ns for p in REPO.rglob("*.pyc")}
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
    assert {p: p.stat().st_mtime_ns for p in REPO.rglob("*.pyc")} == bytecode
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
    assert {n for n in dir(module) if not n.startswith("_")} == {"KERNEL_API", "mo_solve"}
    assert module.KERNEL_API == pure.KERNEL_API
    assert_ccr_twin(module.mo_solve)
    assert_ccr_errors(module.mo_solve)
    assert_mo_twin(module.mo_solve)


def test_c_source_compiles_cleanly_under_wall():
    # setup.py builds with optional=True, so a warning there would not
    # fail a build; this holds fast.c to -Wall -Werror instead.
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler")
    proc = subprocess.run(
        [cc, "-fsyntax-only", "-Wall", "-Werror",
         "-I", sysconfig.get_paths()["include"],
         str(REPO / "src" / "fuzzydea" / "_speedups" / "fast.c")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


class TestBackendSelection:
    def test_backend_reported(self):
        assert BACKEND in ("fast", "pure")
        assert fuzzydea.BACKEND == BACKEND

    def test_mo_solve_from_the_reported_backend(self):
        assert default_mo_solve.__module__ == f"fuzzydea._speedups.{BACKEND}"
        assert ccr.default_mo_solve is default_mo_solve
        # linprog's pivot loop has no compiled twin.
        assert linprog.default_pivot_loop is pure.pivot_loop

    def test_stale_compiled_module_is_not_mixed_in(self):
        # No entry of a compiled module without the current KERNEL_API
        # may be used: an older fast.c with pivot_loop and no tag, one
        # with the three entries of KERNEL_API 2 or 3, a same-named
        # mo_solve among them, or one whose mo_solve takes the two
        # arrays of KERNEL_API 4.
        for stale in ("", *(f"stale.ccr_solve = stale.mo_solve = stale.pivot_loop\n"
                            f"stale.KERNEL_API = {api}\n" for api in (2, 3)),
                      "stale.mo_solve = stale.pivot_loop\nstale.KERNEL_API = 4\n"):
            code = (
                "import sys, types\n"
                "stale = types.ModuleType('fuzzydea._speedups.fast')\n"
                "stale.pivot_loop = lambda *args: (0, 0)\n"
                f"{stale}"
                "sys.modules[stale.__name__] = stale\n"
                "from fuzzydea import _speedups as s, linprog\n"
                "print(s.BACKEND, s.default_mo_solve.__module__,"
                " linprog.default_pivot_loop.__module__, s.fast_mo_solve)\n"
            )
            env = {k: v for k, v in os.environ.items() if k != "FUZZYDEA_PURE"}
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split() == [
                "pure", *["fuzzydea._speedups.pure"] * 2, "None"
            ], stale

    def test_skip_reason_names_a_stale_build(self, monkeypatch):
        # A build of another KERNEL_API is refused silently, so the
        # fast-kernel tests' skip reason says so and how to rebuild.
        name = "fuzzydea._speedups.fast"
        monkeypatch.delenv("FUZZYDEA_PURE", raising=False)
        stale = types.ModuleType(name)
        stale.KERNEL_API = 3
        monkeypatch.setitem(sys.modules, name, stale)
        assert fast_skip_reason() == (
            f"compiled kernel {name} has KERNEL_API 3, not {pure.KERNEL_API}; "
            f"rebuild it with `{REBUILD}`")
        monkeypatch.setitem(sys.modules, name, None)  # as if never built
        assert fast_skip_reason() == "compiled kernel not built"
        monkeypatch.setenv("FUZZYDEA_PURE", "1")
        assert fast_skip_reason() == "FUZZYDEA_PURE is set"

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
