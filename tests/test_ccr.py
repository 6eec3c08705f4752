import numpy as np
import pytest

from _datagen import crisp_arrays, crisp_dataset, random_crisp_dataset
from _oracles import ratio_efficiency, reference_lp
from fuzzydea import ccr
from fuzzydea._speedups.pure import PHASE1_ITER_LIMIT
from fuzzydea.alphacut import modal_reduce
from fuzzydea.ccr import DataLps, SelfPolicy, ccr_efficiency, ccr_scores
from fuzzydea.errors import DataError, SolverFailure
from fuzzydea.linprog import LP_TOL, LpProblem, LpStatus, _tableau, solve


def tiny(inputs, outputs, names=None):
    inputs = np.atleast_2d(np.asarray(inputs, float))
    outputs = np.atleast_2d(np.asarray(outputs, float))
    names = names or tuple(f"U{j+1}" for j in range(inputs.shape[1]))
    return crisp_dataset(names, inputs, outputs)


class TestDatasetValidation:
    def test_non_positive_rejected(self):
        with pytest.raises(DataError):
            tiny([[1.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(DataError):
            tiny([[1.0, 2.0]], [[-1.0, 1.0]])

    def test_duplicate_names(self):
        with pytest.raises(DataError):
            tiny([[1.0, 2.0]], [[1.0, 1.0]], names=("a", "a"))


class TestKnownScores:
    def test_modal_include_self_scores(self, gt):
        crisp = modal_reduce(gt)
        scores = [r.efficiency for r in ccr_scores(crisp, SelfPolicy.INCLUDE_SELF)]
        assert scores == pytest.approx([0.8547, 1.0, 0.8612, 1.0, 1.0], abs=5e-4)

    def test_single_dmu_policies(self):
        data = tiny([[2.0]], [[3.0]], names=("only",))
        inc = ccr_efficiency(data, 0, SelfPolicy.INCLUDE_SELF)
        assert inc.efficiency == pytest.approx(1.0)
        with pytest.raises(SolverFailure):
            ccr_efficiency(data, 0, SelfPolicy.EXCLUDE_SELF)

    def test_dominating_dmu_scores_one(self):
        # U1 dominates U2: lower input, higher output
        data = tiny([[1.0, 2.0]], [[3.0, 2.0]])
        a = ccr_efficiency(data, 0, SelfPolicy.INCLUDE_SELF).efficiency
        b = ccr_efficiency(data, 1, SelfPolicy.INCLUDE_SELF).efficiency
        assert a == pytest.approx(1.0)
        assert a >= b
        assert b == pytest.approx(ratio_efficiency([1.0, 2.0], [3.0, 2.0], 1), abs=1e-9)

    def test_ratio_oracle_one_input_one_output(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            xs = rng.uniform(1, 9, size=4)
            ys = rng.uniform(1, 9, size=4)
            data = tiny([xs], [ys])
            for p in range(4):
                got = ccr_efficiency(data, p, SelfPolicy.INCLUDE_SELF).efficiency
                assert got == pytest.approx(ratio_efficiency(xs, ys, p), abs=1e-9)


class TestResultInvariants:
    @pytest.mark.parametrize("policy", list(SelfPolicy))
    def test_weights_reproduce_score(self, policy):
        rng = np.random.default_rng(11)
        for _ in range(25):
            data = random_crisp_dataset(rng)
            p = int(rng.integers(0, data.n_dmus))
            res = ccr_efficiency(data, p, policy)
            u, v = np.array(res.u), np.array(res.v)
            assert np.all(u >= -1e-9) and np.all(v >= -1e-9)
            inputs, outputs = crisp_arrays(data)
            assert float(v @ inputs[:, p]) == pytest.approx(1.0, abs=1e-7)
            assert float(u @ outputs[:, p]) == pytest.approx(
                res.efficiency, abs=1e-7
            )

    def test_include_self_range(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            data = random_crisp_dataset(rng)
            for p in range(data.n_dmus):
                eff = ccr_efficiency(data, p, SelfPolicy.INCLUDE_SELF).efficiency
                assert 0.0 < eff <= 1.0 + 1e-9

    def test_exclude_at_least_include(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            data = random_crisp_dataset(rng)
            p = int(rng.integers(0, data.n_dmus))
            inc = ccr_efficiency(data, p, SelfPolicy.INCLUDE_SELF).efficiency
            exc = ccr_efficiency(data, p, SelfPolicy.EXCLUDE_SELF).efficiency
            assert exc >= inc - 1e-9

    def test_out_of_range_index(self):
        data = tiny([[1.0, 2.0]], [[1.0, 1.0]])
        with pytest.raises(DataError):
            ccr_efficiency(data, 2)


def lp_of(data, p, policy):
    return reference_lp(*crisp_arrays(data), p, policy is SelfPolicy.EXCLUDE_SELF)


def scaled_sets(seed, scale):
    """Random crisp sets of 1-8 DMUs with input 0 multiplied by scale."""
    rng = np.random.default_rng(seed)
    for _ in range(30):
        data = random_crisp_dataset(rng, n_dmus=int(rng.integers(1, 9)))
        inputs, outputs = crisp_arrays(data)
        inputs = inputs.copy()
        inputs[0] *= scale
        yield crisp_dataset(data.dmu_names, inputs, outputs)


class TestArrayPath:
    """ccr_efficiency writes its tableau from the arrays; LpProblem is the reference."""

    @pytest.mark.parametrize("scale", [1.0, 1e9, 1e-9])
    @pytest.mark.parametrize("policy", list(SelfPolicy))
    def test_same_bits_as_lp_problem(self, policy, scale):
        for data in scaled_sets(23, scale):
            for p in range(data.n_dmus):
                c, A, rels, b = lp_of(data, p, policy)
                problem = LpProblem(tuple(c.tolist()), tuple(zip(A.tolist(), rels, b)))
                want = solve(problem)
                if want.status is not LpStatus.OPTIMAL:
                    with pytest.raises(SolverFailure) as got:
                        ccr_efficiency(data, p, policy)
                    assert str(got.value) == (
                        f"CCR multiplier model for DMU {data.dmu_names[p]!r} is "
                        f"{want.status.value}"
                    )
                    continue
                got = ccr_efficiency(data, p, policy)
                assert got.efficiency.hex() == want.value.hex()
                assert [x.hex() for x in got.u + got.v] == [
                    x.hex() for x in want.solution
                ]

    @pytest.mark.parametrize("scale", [1.0, 1e9, 1e-9])
    @pytest.mark.parametrize("policy", list(SelfPolicy))
    def test_tableau_bytes_equal_general_builder(self, policy, scale):
        # With no pivot allowed the kernel stops at its starting tableau,
        # written from a crisp store's arrays into its buffers.
        for data in scaled_sets(29, scale):
            lps = DataLps(data, policy)
            work, basis = lps.buffers
            for p in range(data.n_dmus):
                T = _tableau(*lp_of(data, p, policy))[0]
                out = ccr.default_mo_solve(
                    lps.low, lps.modal, lps.high, p, policy is SelfPolicy.EXCLUDE_SELF,
                    work, basis, data.n_outputs, LP_TOL, 0, 0, (), (1.0,),
                )
                assert out[3] == (PHASE1_ITER_LIMIT, 1.0, 0.0)
                assert work.tobytes() == T.tobytes()
