import numpy as np
import pytest

from _datagen import crisp_arrays, crisp_fuzzy_dataset, random_dataset
from _oracles import brute_force_lp
from fuzzydea.alphacut import (
    alphacut_reduce,
    alphacut_scores,
    modal_reduce,
    pessimistic_reduce,
    pessimistic_scores,
)
from fuzzydea.ccr import SelfPolicy, ccr_efficiency, ccr_scores
from fuzzydea.errors import AlphaOutOfRange, DataError


class TestReduction:
    def test_alpha_one_collapses_to_modal(self, gt):
        reduced = alphacut_reduce(gt, 0, 1.0)
        modal = modal_reduce(gt)
        assert np.array_equal(reduced.bounds[1], modal.bounds[1])

    def test_alpha_zero_assignment(self, gt):
        inputs, outputs = crisp_arrays(alphacut_reduce(gt, 0, 0.0))
        # evaluated DMU at favorable extremes
        assert inputs[0, 0] == 3.5
        assert outputs[0, 0] == 2.8
        # crisp peer value unchanged
        assert outputs[0, 1] == 2.2
        # fuzzy peer at unfavorable extremes
        assert inputs[0, 2] == 5.4
        assert outputs[0, 2] == 2.7

    def test_alpha_half_interpolates(self, gt):
        inputs, _ = crisp_arrays(alphacut_reduce(gt, 0, 0.5))
        assert inputs[0, 0] == pytest.approx(3.75)
        assert inputs[0, 2] == pytest.approx(5.15)

    def test_pessimistic_swaps_roles(self, gt):
        opt_in, opt_out = crisp_arrays(alphacut_reduce(gt, 0, 0.0))
        pes_in, pes_out = crisp_arrays(pessimistic_reduce(gt, 0, 0.0))
        assert pes_in[0, 0] == 4.5 and opt_in[0, 0] == 3.5
        assert pes_out[0, 0] == 2.4 and opt_out[0, 0] == 2.8
        assert pes_in[0, 2] == 4.4 and opt_in[0, 2] == 5.4

    def test_alpha_out_of_range(self, gt):
        with pytest.raises(AlphaOutOfRange):
            alphacut_reduce(gt, 0, 1.5)
        with pytest.raises(AlphaOutOfRange):
            alphacut_scores(gt, -0.2)

    def test_bad_index(self, gt):
        with pytest.raises(DataError):
            alphacut_reduce(gt, 9, 0.5)


class TestFixtureScores:
    """Scores on the bundled dataset, cross-checked against the LP oracle."""

    def test_exclude_self_scores_match_oracle(self, gt):
        for alpha in (0.0, 0.5, 0.75):
            scores = alphacut_scores(gt, alpha, SelfPolicy.EXCLUDE_SELF)
            for p, sc in enumerate(scores):
                reduced = alphacut_reduce(gt, p, alpha)
                inputs, outputs = crisp_arrays(reduced)
                s, m = outputs.shape[0], inputs.shape[0]
                obj = tuple(outputs[:, p]) + (0.0,) * m
                rows = [((0.0,) * s + tuple(inputs[:, p]), "=", 1.0)]
                for j in range(reduced.n_dmus):
                    if j != p:
                        rows.append(
                            (
                                tuple(outputs[:, j])
                                + tuple(-inputs[:, j]),
                                "<=",
                                0.0,
                            )
                        )
                expect = brute_force_lp(obj, rows)
                assert expect[0] == "optimal"
                assert sc.score == pytest.approx(expect[1], abs=1e-7)

    def test_selected_published_cells(self, gt):
        # cells quoted to 2-3 decimals in the reference study
        a0 = [s.score for s in alphacut_scores(gt, 0.0)]
        assert a0[0] == pytest.approx(1.11, abs=0.02)
        assert a0[3] == pytest.approx(1.52, abs=0.02)
        a75 = [s.score for s in alphacut_scores(gt, 0.75)]
        assert a75[2] == pytest.approx(0.93, abs=0.02)

    def test_alpha_one_equals_modal_ccr(self, gt):
        for policy in SelfPolicy:
            cut = [s.score for s in alphacut_scores(gt, 1.0, policy)]
            crisp = [r.efficiency for r in ccr_scores(modal_reduce(gt), policy)]
            assert cut == pytest.approx(crisp, abs=1e-12)


@pytest.mark.parametrize(
    "scores,reduce",
    [(alphacut_scores, alphacut_reduce), (pessimistic_scores, pessimistic_reduce)],
    ids=["optimistic", "pessimistic"],
)
def test_scores_equal_ccr_on_reduced_data(gt, ac, scores, reduce):
    # Each score is the LP of the DMU's store at level alpha;
    # ccr_efficiency on the reduced data is its reference, bit for bit.
    rng = np.random.default_rng(31)
    for data in (gt, ac, *(random_dataset(rng) for _ in range(10))):
        for alpha in (0.0, 0.3, 1.0):
            for policy in SelfPolicy:
                got = [sc.score.hex() for sc in scores(data, alpha, policy)]
                assert got == [
                    ccr_efficiency(reduce(data, p, alpha), p, policy).efficiency.hex()
                    for p in range(data.n_dmus)
                ]


class TestStructuralProperties:
    def test_monotone_in_alpha(self, gt):
        prev = None
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            cur = [s.score for s in alphacut_scores(gt, alpha)]
            if prev is not None:
                assert all(c <= p + 1e-9 for p, c in zip(prev, cur))
            prev = cur

    def test_crisp_dataset_identity(self):
        rng = np.random.default_rng(23)
        data = crisp_fuzzy_dataset(rng)
        crisp = modal_reduce(data)
        for alpha in (0.0, 0.4, 1.0):
            cut = [s.score for s in alphacut_scores(data, alpha)]
            base = [r.efficiency for r in ccr_scores(crisp, SelfPolicy.EXCLUDE_SELF)]
            assert cut == pytest.approx(base, abs=1e-12)

    def test_scores_positive_and_metadata(self, gt):
        for sc in alphacut_scores(gt, 0.3):
            assert sc.score > 0
            assert sc.alpha == 0.3
            assert sc.policy is SelfPolicy.EXCLUDE_SELF

    def test_pessimistic_below_optimistic(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            data = random_dataset(rng)
            for alpha in (0.0, 0.5):
                opt = [s.score for s in alphacut_scores(data, alpha)]
                pes = [s.score for s in pessimistic_scores(data, alpha)]
                assert all(o >= p - 1e-9 for o, p in zip(opt, pes))
