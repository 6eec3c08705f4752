import collections
import contextlib
import io
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from _datagen import crisp_arrays, crisp_fuzzy_dataset, random_dataset
from _oracles import grid_h_star
from fuzzydea import ccr, mofdea
from fuzzydea.alphacut import (
    alphacut_reduce,
    alphacut_scores,
    modal_reduce,
    pessimistic_reduce,
    pessimistic_scores,
)
from fuzzydea.ccr import DataLps, SelfPolicy, ccr_efficiency, ccr_scores
from fuzzydea.cli import DEFAULT_ALPHAS, main
from fuzzydea.dataio import FuzzyDataset, load_fixture
from fuzzydea._speedups import pure, pure_mo_solve
from fuzzydea._speedups.pure import BAD_DATA
from fuzzydea.errors import AlphaOutOfRange, DataError, DegenerateZStar, RangeError
from fuzzydea.mofdea import (
    ALPHA_MODES,
    MAX_BISECT,
    MoConfig,
    beta_level,
    eff_at,
    evaluate_all,
    reduced_data,
    solve_mo,
    z_star,
)
from fuzzydea.trifuzzy import check_alpha, toward_modal


class TestBetaLevel:
    def test_modes_agree_at_borders(self):
        for h in (0.0, 0.37, 1.0):
            assert beta_level(h, 0.0, "floor") == beta_level(h, 0.0, "rescale") == h
        for mode in ("floor", "rescale"):
            assert beta_level(0.5, 1.0, mode) == 1.0

    def test_floor_is_max(self):
        assert beta_level(0.3, 0.6, "floor") == 0.6
        assert beta_level(0.8, 0.6, "floor") == 0.8

    def test_rescale_interpolates(self):
        assert beta_level(0.3, 0.6, "rescale") == pytest.approx(0.6 + 0.4 * 0.3)

    def test_range_errors(self):
        with pytest.raises(RangeError):
            beta_level(1.2, 0.0)
        with pytest.raises(AlphaOutOfRange):
            beta_level(0.5, -0.1)
        with pytest.raises(RangeError):
            beta_level(0.5, 0.5, "typo")

    @pytest.mark.parametrize("alpha", [math.nan, "0.5", None])
    def test_one_alpha_message_for_both_models(self, gt, alpha):
        messages = set()
        for check in (
            lambda: alphacut_scores(gt, alpha),
            lambda: MoConfig(alpha=alpha),
            lambda: beta_level(0.5, alpha),
        ):
            with pytest.raises(AlphaOutOfRange) as exc:
                check()
            messages.add(str(exc.value))
        assert messages == {f"alpha must be a finite number, got {alpha!r}"}


class TestMoConfig:
    @pytest.mark.parametrize(
        "h_tol",
        [math.inf, -math.inf, math.nan, 0.0, -1e-6, "1e-6",
         pytest.param(10**400, id="10**400")],
    )
    def test_bad_h_tol_rejected(self, h_tol):
        with pytest.raises(RangeError, match="h_tol"):
            MoConfig(h_tol=h_tol)

    @pytest.mark.parametrize("alpha", [10**400, -(10**400)], ids=["10**400", "-10**400"])
    def test_int_too_large_for_a_float_is_out_of_range(self, alpha):
        # math.isfinite raises OverflowError on such an int.
        with pytest.raises(AlphaOutOfRange, match="finite number"):
            MoConfig(alpha=alpha)
        with pytest.raises(AlphaOutOfRange, match="finite number"):
            beta_level(0.5, alpha)
        with pytest.raises(RangeError, match="h must lie in"):
            beta_level(alpha, 0.5)

    def test_h_tol_accepted(self):
        assert MoConfig(h_tol=1e-3).h_tol == 1e-3
        assert MoConfig(h_tol=1).h_tol == 1


class TestReducedData:
    def test_h_zero_alpha_zero_is_optimistic_extremes(self, gt):
        inputs, outputs = crisp_arrays(reduced_data(gt, 0, 0.0, 0.0))
        assert inputs[0, 0] == 3.5
        assert outputs[0, 0] == 2.8
        assert inputs[0, 2] == 5.4

    def test_h_one_is_modal(self, gt):
        for alpha in (0.0, 0.5, 1.0):
            red = reduced_data(gt, 1, 1.0, alpha)
            modal = modal_reduce(gt)
            assert np.array_equal(red.bounds[1], modal.bounds[1])

    def test_linear_formula_on_fixture_entry(self, gt):
        inputs, _ = crisp_arrays(reduced_data(gt, 0, 0.5, 0.0))
        assert inputs[0, 0] == pytest.approx(3.5 + 0.5 * (4.0 - 3.5))

    def test_crisp_coordinates_stay_modal(self, gt):
        for h in (0.0, 0.5):
            inputs, outputs = crisp_arrays(reduced_data(gt, 0, h, 0.0))
            assert inputs[0, 1] == 2.9  # crisp peer input
            assert outputs[0, 1] == 2.2  # crisp peer output

    @pytest.mark.parametrize("mode", ["floor", "rescale"])
    def test_crisp_cells_exactly_modal_at_every_level(self, mode):
        rng = np.random.default_rng(41)
        data = crisp_fuzzy_dataset(rng, n_dmus=5)
        modal = modal_reduce(data)
        for _ in range(50):
            h, alpha = (float(v) for v in rng.uniform(0.0, 1.0, size=2))
            red = reduced_data(data, 0, h, alpha, mode)
            assert np.array_equal(red.bounds[1], modal.bounds[1])

    def test_range_validation(self, gt):
        with pytest.raises(RangeError):
            reduced_data(gt, 0, 1.5, 0.0)
        with pytest.raises(AlphaOutOfRange):
            reduced_data(gt, 0, 0.5, 2.0)
        with pytest.raises(DataError):
            reduced_data(gt, 7, 0.5, 0.0)


class TestZStar:
    def test_equals_alpha_zero_optimistic_score(self, gt):
        cut = alphacut_scores(gt, 0.0, SelfPolicy.EXCLUDE_SELF)
        for p in range(gt.n_dmus):
            assert z_star(gt, p) == pytest.approx(cut[p].score, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.75, 1.0])
    def test_rescale_ideal_is_alphacut_score(self, gt, ac, alpha):
        cfg = MoConfig(alpha=alpha, alpha_mode="rescale")
        for data in (gt, ac):
            cut = alphacut_scores(data, alpha, SelfPolicy.EXCLUDE_SELF)
            for p in range(data.n_dmus):
                z = z_star(data, p, alpha=alpha, mode="rescale")
                assert z == pytest.approx(cut[p].score, abs=1e-12)
                assert solve_mo(data, p, cfg).z_star == z

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 1.0])
    def test_floor_ideal_is_full_support(self, gt, ac, alpha):
        cfg = MoConfig(alpha=alpha, alpha_mode="floor")
        for data in (gt, ac):
            for p in range(data.n_dmus):
                z = z_star(data, p, alpha=alpha, mode="floor")
                assert z == z_star(data, p)
                assert solve_mo(data, p, cfg).z_star == z

    def test_ideal_argument_validation(self, gt):
        with pytest.raises(AlphaOutOfRange):
            z_star(gt, 0, alpha=1.5)
        with pytest.raises(RangeError):
            z_star(gt, 0, alpha=0.5, mode="typo")

    def test_published_magnitudes(self, gt):
        assert z_star(gt, 0) == pytest.approx(1.11, abs=0.01)
        assert z_star(gt, 3) == pytest.approx(1.52, abs=0.01)

    def test_crisp_dataset_equals_ccr(self):
        rng = np.random.default_rng(31)
        data = crisp_fuzzy_dataset(rng)
        crisp = modal_reduce(data)
        for p in range(data.n_dmus):
            want = ccr_efficiency(crisp, p, SelfPolicy.EXCLUDE_SELF).efficiency
            assert z_star(data, p) == pytest.approx(want, abs=1e-12)


class TestEffAt:
    def test_eff_at_zero_equals_z_star(self, gt):
        for p in range(gt.n_dmus):
            assert eff_at(gt, p, 0.0) == pytest.approx(z_star(gt, p), abs=1e-12)

    def test_eff_at_one_is_modal_score(self, gt):
        crisp = modal_reduce(gt)
        for p in range(gt.n_dmus):
            want = ccr_efficiency(crisp, p, SelfPolicy.EXCLUDE_SELF).efficiency
            assert eff_at(gt, p, 1.0) == pytest.approx(want, abs=1e-12)

    # A look-alike with MoConfig's fields would be scored with its fields
    # unchecked, as solve_mo refuses to do.
    LOOK_ALIKE = collections.namedtuple("MoConfig", "alpha policy h_tol alpha_mode")

    @pytest.mark.parametrize("cfg", [None, LOOK_ALIKE(0.5, SelfPolicy.EXCLUDE_SELF, 1e-6, "rescale")])
    def test_cfg_must_be_a_moconfig(self, gt, monkeypatch, cfg):
        lps = _count_lps(monkeypatch)
        with pytest.raises(TypeError, match="^eff_at takes a MoConfig, got "):
            eff_at(gt, 0, 0.5, cfg)
        assert not lps

    @pytest.mark.parametrize("mode", ["floor", "rescale"])
    def test_non_increasing_on_grid(self, gt, mode):
        for alpha in (0.0, 0.5):
            cfg = MoConfig(alpha=alpha, alpha_mode=mode)
            for p in range(gt.n_dmus):
                values = [eff_at(gt, p, i / 10, cfg) for i in range(11)]
                for a, b in zip(values, values[1:]):
                    assert b <= a + 1e-9


class TestSolveMo:
    def test_bisection_matches_grid_oracle(self, gt):
        for alpha in (0.0, 0.5):
            cfg = MoConfig(alpha=alpha)
            for p in range(gt.n_dmus):
                res = solve_mo(gt, p, cfg)
                assert res.h_star == pytest.approx(grid_h_star(gt, p, cfg), abs=2e-3)

    def test_fixed_point_residual(self, gt, ac):
        for data in (gt, ac):
            for p in range(data.n_dmus):
                res = solve_mo(data, p)
                if res.h_star < 1.0:
                    assert abs(res.efficiency / res.z_star - res.h_star) <= 1e-5

    def test_cfg_must_be_a_moconfig(self, gt, monkeypatch):
        # MoConfig checks alpha and mode once; solve_mo's probes then
        # skip those checks, so a look-alike must not get that far.
        monkeypatch.setattr(ccr, "_search", lambda *a: pytest.fail("an LP was solved"))
        fake = SimpleNamespace(
            alpha=2.0, policy=SelfPolicy.EXCLUDE_SELF, h_tol=1e-6, alpha_mode="bogus"
        )
        with pytest.raises(TypeError, match="MoConfig"):
            solve_mo(gt, 0, fake)

    def test_efficiency_below_z_star(self, gt):
        for p in range(gt.n_dmus):
            res = solve_mo(gt, p)
            assert res.efficiency <= res.z_star + 1e-7

    def test_published_alpha_zero_row(self, gt):
        effs = [solve_mo(gt, p).efficiency for p in range(gt.n_dmus)]
        assert effs[0] == pytest.approx(0.899, abs=0.02)
        assert effs[1] == pytest.approx(1.220, abs=0.02)
        assert effs[4] == pytest.approx(1.076, abs=0.02)

    def test_crisp_dataset_degenerates(self):
        rng = np.random.default_rng(37)
        data = crisp_fuzzy_dataset(rng)
        crisp = modal_reduce(data)
        for p in range(data.n_dmus):
            res = solve_mo(data, p)
            want = ccr_efficiency(crisp, p, SelfPolicy.EXCLUDE_SELF).efficiency
            assert res.h_star == 1.0
            assert res.efficiency == pytest.approx(want, abs=1e-12)
            assert res.iterations == 0

    def test_result_metadata(self, gt):
        cfg = MoConfig(alpha=0.25)
        res = solve_mo(gt, 2, cfg)
        assert res.dmu == "D3"
        assert res.alpha == 0.25
        assert res.policy is SelfPolicy.EXCLUDE_SELF
        assert 0.0 <= res.h_star <= 1.0
        assert len(res.u) == gt.n_outputs and len(res.v) == gt.n_inputs

    def test_reduced_data_matches_h_star(self, gt):
        for alpha in (0.0, 0.5):
            for mode in ("floor", "rescale"):
                cfg = MoConfig(alpha=alpha, alpha_mode=mode)
                for p in range(gt.n_dmus):
                    res = solve_mo(gt, p, cfg)
                    crisp = reduced_data(gt, p, res.h_star, alpha, mode)
                    want = ccr_efficiency(crisp, p, cfg.policy).efficiency
                    assert want.hex() == res.efficiency.hex()

    @pytest.mark.parametrize("mode", ["floor", "rescale"])
    def test_alpha_monotone_efficiency(self, gt, mode):
        for p in range(gt.n_dmus):
            effs = [
                solve_mo(gt, p, MoConfig(alpha=a, alpha_mode=mode)).efficiency
                for a in (0.0, 0.5, 1.0)
            ]
            assert effs[0] >= effs[1] - 1e-6 >= effs[2] - 2e-6

    def test_floor_mode_plateau(self, gt):
        # under floor composition, any h below alpha yields the same data,
        # so when h* <= alpha the score equals the alpha-cut score there
        alpha = 0.75
        cfg = MoConfig(alpha=alpha, alpha_mode="floor")
        res = solve_mo(gt, 2, cfg)  # D3's h* ~ 0.74 < 0.75
        assert res.h_star <= alpha
        plateau_eff = eff_at(gt, 2, 0.0, cfg)
        for h in (0.2, 0.5, alpha):
            assert eff_at(gt, 2, h, cfg) == pytest.approx(plateau_eff, abs=1e-12)
        assert res.h_star == pytest.approx(
            min(1.0, plateau_eff / res.z_star), abs=1e-5
        )


def _h_ref(data, p, cfg, z):
    """Root of eff_at(h)/z - h by bisection to 1e-12, one LP per data level."""
    effs = {}

    def g(h):
        beta = beta_level(h, cfg.alpha, cfg.alpha_mode)
        if beta not in effs:
            effs[beta] = eff_at(data, p, h, cfg)
        return effs[beta] / z - h

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if g(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


ROOT_SETS = tuple(random_dataset(np.random.default_rng(900 + k)) for k in range(30))


class TestRootAccuracy:
    @pytest.mark.parametrize("mode", ["floor", "rescale"])
    @pytest.mark.parametrize("policy", list(SelfPolicy))
    def test_h_star_within_h_tol_of_bisected_root(self, gt, ac, mode, policy):
        checked = 0
        for data in (gt, ac, *ROOT_SETS):
            for alpha in (0.0, 0.5, 1.0):
                cfg = MoConfig(alpha=alpha, policy=policy, alpha_mode=mode)
                for p in range(data.n_dmus):
                    res = solve_mo(data, p, cfg)
                    z = z_star(data, p, policy, alpha, mode)
                    assert res.z_star == z
                    at_one = eff_at(data, p, 1.0, cfg) >= z
                    assert (res.h_star == 1.0) == at_one, (data.name, p, alpha)
                    if at_one:
                        continue
                    assert abs(res.efficiency / z - res.h_star) <= cfg.h_tol
                    ref = _h_ref(data, p, cfg, z)
                    assert abs(res.h_star - ref) <= cfg.h_tol, (data.name, p, alpha)
                    checked += 1
        assert checked >= 100

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 12: the root search can stop at its probe cap with "
        "|g| above h_tol and no error; on guo_tanaka at alpha 0, D5 ends at "
        "|g| = 1.11e-16 > 1e-16"))
    def test_h_star_meets_h_tol_below_one_ulp(self, gt):
        cfg = MoConfig(alpha=0.0, h_tol=1e-16)
        for p in range(gt.n_dmus):
            res = solve_mo(gt, p, cfg)
            g = eff_at(gt, p, res.h_star, cfg) / res.z_star - res.h_star
            assert abs(g) <= cfg.h_tol, (gt.dmu_names[p], g)


def _count_lps(monkeypatch):
    """Counter of the LPs solved from now on, by DMU name: one per level
    that a ccr._search call solved."""
    lps = collections.Counter()
    search = ccr._search

    def searched(store, p, cfgs, levels=()):
        out = search(store, p, cfgs, levels)
        lps[store.names[p]] += len(out[2])
        return out

    monkeypatch.setattr(ccr, "_search", searched)
    return lps


# `eval --model mo` on both fixtures at the default alpha levels, both
# self policies and both alpha modes.
FIXTURE_GRID = tuple(
    (fixture, policy, mode)
    for fixture in ("guo_tanaka", "aircraft")
    for policy in SelfPolicy
    for mode in ALPHA_MODES
)
DEFAULT_LEVELS = tuple(float(a) for a in DEFAULT_ALPHAS.split(","))


def _standalone_scores(lps):
    """(cfg, LPs, iterations) of a standalone solve_mo per FIXTURE_GRID score."""
    scores = []
    for fixture, policy, mode in FIXTURE_GRID:
        data = load_fixture(fixture)
        for alpha in DEFAULT_LEVELS:
            cfg = MoConfig(alpha=alpha, policy=policy, alpha_mode=mode)
            for p in range(data.n_dmus):
                before = sum(lps.values())
                res = solve_mo(data, p, cfg)
                scores.append((cfg, sum(lps.values()) - before, res.iterations))
    return scores


class TestLpCounts:
    """LPs of the mo model, counted at ccr._search: per standalone
    score, and per DMU of a report, whose scores share their LPs."""

    def test_fixture_lp_budget(self, monkeypatch):
        scores = _standalone_scores(_count_lps(monkeypatch))
        assert len(scores) == len(FIXTURE_GRID) * len(DEFAULT_LEVELS) * 5
        counts = [n for _, n, _ in scores]
        assert sum(counts) / len(counts) < 8
        assert max(counts) <= 2 + MAX_BISECT
        for cfg, n, iterations in scores:
            # z* and the h = 1 probe share one LP when both sit at level 1.
            shared = cfg.alpha == 1.0 and cfg.alpha_mode == "rescale"
            assert n == (1 if shared else 2) + iterations
            if cfg.alpha == 1.0:
                assert n <= 2

    def test_cli_solves_each_level_of_a_dmu_once(self, monkeypatch):
        lps = _count_lps(monkeypatch)
        solved = collections.defaultdict(list)  # DMU name -> levels solved
        search = ccr._search

        def recorded(store, p, cfgs, levels=()):
            out = search(store, p, cfgs, levels)
            solved[store.names[p]].extend(out[2])
            return out

        monkeypatch.setattr(ccr, "_search", recorded)
        totals = {}
        for sub in (("eval", "--model", "mo"), ("compare",)):
            for fixture, policy, mode in FIXTURE_GRID:
                lps.clear()
                solved.clear()
                argv = [*sub, "--data", f"fixture:{fixture}",
                        "--alpha-mode", mode, "--format", "csv"]
                if policy is SelfPolicy.INCLUDE_SELF:
                    argv.append("--include-self")
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0
                names = sorted(load_fixture(fixture).dmu_names)
                assert sorted(lps) == sorted(solved) == names
                for name in solved:
                    assert lps[name] == len(set(solved[name])), (sub, fixture, policy, mode)
                totals[sub[0], fixture, policy, mode] = sum(lps.values())
        # compare takes its alpha-cut column from the mo model's LPs: the
        # level alpha is z* under rescale, and the h = 0 probe under floor
        # when the search made one.
        ex = SelfPolicy.EXCLUDE_SELF
        assert {
            (fixture, mode): n
            for (sub, fixture, policy, mode), n in totals.items()
            if sub == "compare" and policy is ex
        } == {
            ("guo_tanaka", "rescale"): 72,
            ("guo_tanaka", "floor"): 69,
            ("aircraft", "rescale"): 71,
            ("aircraft", "floor"): 63,
        }
        monkeypatch.setattr(ccr, "_search", search)
        lps.clear()
        standalone = sum(n for _, n, _ in _standalone_scores(lps))
        assert sum(n for k, n in totals.items() if k[0] == "eval") < standalone


EQUIV_SETS = tuple(random_dataset(np.random.default_rng(700 + k)) for k in range(20))
# Unsorted, with a repeat: the order the DMU-outer loop meets them in.
EQUIV_ALPHAS = (1.0, 0.0, 0.5, 0.5, 0.25)


def _fields(r):
    return (
        r.dmu, r.efficiency.hex(), r.h_star.hex(), r.z_star.hex(),
        tuple(map(float.hex, r.u)), tuple(map(float.hex, r.v)),
        r.iterations, r.rank, r.alpha, r.policy,
    )


class TestEvaluateAllEquivalence:
    @pytest.mark.parametrize("mode", ALPHA_MODES)
    def test_equals_standalone_solve_mo(self, gt, ac, mode):
        for policy in SelfPolicy:  # one call per policy
            cfgs = [MoConfig(alpha=a, policy=policy, alpha_mode=mode) for a in EQUIV_ALPHAS]
            for data in (gt, ac, *EQUIV_SETS):
                rankings = evaluate_all(data, cfgs)
                assert len(rankings) == len(cfgs)
                for cfg, ranked in zip(cfgs, rankings):
                    alone = [solve_mo(data, p, cfg) for p in range(data.n_dmus)]
                    order = sorted(
                        range(data.n_dmus),
                        key=lambda j: (-alone[j].efficiency, -alone[j].h_star, j),
                    )
                    want = [
                        _fields(alone[j]._replace(rank=pos + 1))
                        for pos, j in enumerate(order)
                    ]
                    assert [_fields(r) for r in ranked] == want, (data.name, cfg)

    @pytest.mark.parametrize("mode", ALPHA_MODES)
    def test_compare_all_equals_alphacut_scores_and_evaluate_all(self, gt, ac, mode):
        for policy in SelfPolicy:  # one call per policy
            cfgs = [MoConfig(alpha=a, policy=policy, alpha_mode=mode) for a in EQUIV_ALPHAS]
            for data in (gt, ac, *EQUIV_SETS):
                ranked = evaluate_all(data, cfgs)
                for cfg, pairs, mo in zip(cfgs, mofdea.compare_all(data, cfgs), ranked):
                    cut = alphacut_scores(data, cfg.alpha, cfg.policy)
                    assert [c.hex() for c, _ in pairs] == [sc.score.hex() for sc in cut]
                    by_name = {r.dmu: _fields(r._replace(rank=None)) for r in mo}
                    assert [_fields(r) for _, r in pairs] == [
                        by_name[name] for name in data.dmu_names
                    ]

    def test_modes_mixed_in_one_call(self, gt):
        cfgs = [
            MoConfig(alpha=a, alpha_mode=mode)
            for a in EQUIV_ALPHAS
            for mode in ALPHA_MODES
        ]
        mixed = evaluate_all(gt, cfgs)
        for cfg, ranked in zip(cfgs, mixed):
            assert [_fields(r) for r in ranked] == [
                _fields(r) for r in evaluate_all(gt, [cfg])[0]
            ]

    def test_no_config_is_an_empty_result(self, gt):
        assert evaluate_all(gt, []) == ()


class TestDmuLps:
    """A DMU's LPs, solved from a dataset's DataLps."""

    def test_bad_index_and_policy_refused(self, gt):
        lps = DataLps(gt, SelfPolicy.EXCLUDE_SELF)
        with pytest.raises(DataError, match="DMU index"):
            lps.solve(5, 0.5)
        with pytest.raises(DataError, match="DMU index"):
            lps.solve(-1, 0.5)
        with pytest.raises(RangeError, match="self policy"):
            DataLps(gt, "exclude-self")


ENTRIES = ("evaluate_all", "compare_all")


class TestEvaluateAll:
    def test_rank_order_and_fields(self, ac):
        (ranked,) = evaluate_all(ac, [MoConfig()])
        assert [r.rank for r in ranked] == [1, 2, 3, 4, 5]
        effs = [r.efficiency for r in ranked]
        assert effs == sorted(effs, reverse=True)
        assert ranked[0].dmu == "MD-82"

    def test_needs_two_dmus(self):
        solo = FuzzyDataset("one", ["I1"], ["O1"], [("only", [[1, 2, 3]], [[1, 2, 3]])])
        with pytest.raises(DataError):
            evaluate_all(solo, [MoConfig()])

    def test_identical_dmus_tie_break_by_input_order(self):
        units = [(f"U{j+1}", [[2.0, 3.0, 4.0]], [[1.0, 1.5, 2.0]]) for j in range(3)]
        data = FuzzyDataset("twins", ["I1"], ["O1"], units)
        (ranked,) = evaluate_all(data, [MoConfig()])
        assert [r.dmu for r in ranked] == ["U1", "U2", "U3"]
        assert len({r.efficiency for r in ranked}) == 1

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("cfgs,got", [
        pytest.param(MoConfig(), None, id="lone-config"),
        pytest.param([MoConfig(), 0.5], "0.5", id="float-item"),
        pytest.param([None], "None", id="none-item"),
    ])
    def test_every_config_checked_before_any_lp(self, gt, monkeypatch, entry, cfgs, got):
        lps = _count_lps(monkeypatch)
        # A lone MoConfig is not a sequence of them.
        message = "MoConfig" if got is None else f"^{entry} takes MoConfig items, got {got}$"
        with pytest.raises(TypeError, match=message):
            getattr(mofdea, entry)(gt, cfgs)
        assert not lps

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_one_self_policy_one_data_lps_one_search_per_unit(self, gt, monkeypatch, entry):
        lps = _count_lps(monkeypatch)
        searched, search = [], ccr._search
        monkeypatch.setattr(ccr, "_search", lambda store, p, *a: searched.append((store, p))
                            or search(store, p, *a))
        built, init = [], DataLps.__init__
        monkeypatch.setattr(DataLps, "__init__", lambda store, *a: built.append(store)
                            or init(store, *a))
        run = getattr(mofdea, entry)
        mixed = [MoConfig(alpha=0.5), MoConfig(alpha=0.5, policy=SelfPolicy.INCLUDE_SELF)]
        with pytest.raises(RangeError, match=f"^{entry} takes MoConfig items of one self policy, "
                           "got SelfPolicy.EXCLUDE_SELF and SelfPolicy.INCLUDE_SELF$"):
            run(gt, mixed)
        assert not lps and not built and not searched
        for policy in SelfPolicy:
            built.clear()
            searched.clear()
            run(gt, [MoConfig(alpha=a, policy=policy) for a in EQUIV_ALPHAS])
            assert len(built) == 1 and built[0].policy is policy
            assert searched == [(built[0], p) for p in range(gt.n_dmus)]


# Crisp data: every level is the same LP, so a root search solves its z*
# level and level 1 alone, and under floor z* is at level 0.
CRISP = FuzzyDataset("crisp", ["I1"], ["O1"], [("U1", [2], [1]), ("U2", [3], [2]), ("U3", [4], [2])])


class TestFirstFailure:
    """A DMU's configs, then its cuts, run in one kernel search, which
    stops at the first failure: the error is the one that scoring each
    config alone, in order, and then taking the cuts would raise."""

    @pytest.mark.parametrize("policy", list(SelfPolicy))
    @pytest.mark.parametrize("cfgs,at,level", [
        # config 2 would fail too, at a lower level
        pytest.param(((0.0, "rescale"), (0.5, "rescale"), (0.25, "rescale")), "cfg", 0.5,
                     id="config-1-of-3"),
        # every search succeeds
        pytest.param(((0.5, "floor"), (0.25, "floor")), "cut", 0.5, id="first-cut"),
        # config 0's cut would fail too, but the cuts come last
        pytest.param(((0.25, "floor"), (0.5, "rescale")), "cfg", 0.5, id="config-before-cut"),
    ])
    def test_first_in_cfg_order(self, monkeypatch, policy, cfgs, at, level):
        # The pure kernel finds U2's data bad at levels 0.25 and 0.5.
        solve = pure._solve_ccr

        def failing(L, M, H, lp_level, s, p, *args):
            if p == 1 and lp_level in (0.25, 0.5):
                return BAD_DATA, 0.0, None
            return solve(L, M, H, lp_level, s, p, *args)

        monkeypatch.setattr(pure, "_solve_ccr", failing)
        monkeypatch.setattr(ccr, "default_mo_solve", pure_mo_solve)
        cfgs = [MoConfig(alpha=a, policy=policy, alpha_mode=mode) for a, mode in cfgs]
        if at == "cut":
            evaluate_all(CRISP, cfgs)  # every search succeeds
        runs = (mofdea.compare_all,) if at == "cut" else (evaluate_all, mofdea.compare_all)
        for run in runs:
            with pytest.raises(DataError, match=f"^data at level {level} for DMU 'U2' "):
                run(CRISP, cfgs)

    def test_degenerate_z_star_of_the_first_cfg(self):
        # U2's outputs are some 1e-12 of its peers', so its z* is too.
        big, tiny = [1.0, 2.0, 3.0], [1e-12, 2e-12, 3e-12]
        data = FuzzyDataset("tiny", ["I1"], ["O1"], [
            ("U1", [big], [big]), ("U2", [big], [tiny]), ("U3", [big], [big])])
        for policy in SelfPolicy:
            cfgs = [MoConfig(alpha=a, policy=policy) for a in (0.5, 0.0)]
            with pytest.raises(DegenerateZStar) as alone:
                solve_mo(data, 1, cfgs[0])
            for run in (evaluate_all, mofdea.compare_all):
                with pytest.raises(DegenerateZStar) as got:
                    run(data, cfgs)
                assert str(got.value) == str(alone.value)
                assert str(got.value).startswith("ideal score for DMU 'U2' is ")


def _digest(out):
    """Comparable form of an entry's result: reductions give their data."""
    if isinstance(out, FuzzyDataset):
        return out.bounds[1].tobytes()
    return out


# Every public entry that takes a DMU index p, on fixture:guo_tanaka.
INDEX_ENTRIES = {
    "ccr_efficiency": lambda d, p: ccr_efficiency(modal_reduce(d), p),
    # DMU p's LP, solved from its dataset's DataLps
    "DmuLps": lambda d, p: DataLps(d, SelfPolicy.EXCLUDE_SELF).solve(p, 0.5),
    "alphacut_reduce": lambda d, p: alphacut_reduce(d, p, 0.5),
    "pessimistic_reduce": lambda d, p: pessimistic_reduce(d, p, 0.5),
    "reduced_data": lambda d, p: reduced_data(d, p, 0.5),
    "z_star": lambda d, p: z_star(d, p),
    "eff_at": lambda d, p: eff_at(d, p, 0.5),
    "solve_mo": lambda d, p: solve_mo(d, p),
}


@pytest.mark.parametrize("entry", list(INDEX_ENTRIES))
class TestDmuIndex:
    # int() would truncate a float index and score another DMU.
    # A bool is an int to Python, and would score D1 or D2.
    @pytest.mark.parametrize("p", [1.7, 2.9, 0.5, 1.0, np.float64(1.0), "1", -1, 5, True, False])
    def test_bad_index_rejected(self, gt, entry, p):
        message = rf"^DMU index (must be an integer, got {re.escape(repr(p))}|{p} out of range )"
        with pytest.raises(DataError, match=message):
            INDEX_ENTRIES[entry](gt, p)

    def test_numpy_integers_accepted(self, gt, entry):
        want = _digest(INDEX_ENTRIES[entry](gt, 1))
        for p in (np.int64(1), np.int32(1), np.uint8(1)):
            assert _digest(INDEX_ENTRIES[entry](gt, p)) == want


# Every public entry that takes a self policy, on fixture:guo_tanaka.
POLICY_ENTRIES = {
    "ccr_efficiency": lambda d, pol: ccr_efficiency(modal_reduce(d), 1, pol),
    "ccr_scores": lambda d, pol: ccr_scores(modal_reduce(d), pol),
    # DMU 1's LP, solved from its dataset's DataLps
    "DmuLps": lambda d, pol: DataLps(d, pol).solve(1, 0.5),
    "alphacut_scores": lambda d, pol: alphacut_scores(d, 0.0, pol),
    "pessimistic_scores": lambda d, pol: pessimistic_scores(d, 0.0, pol),
    "z_star": lambda d, pol: z_star(d, 1, pol),
    "MoConfig": lambda d, pol: MoConfig(policy=pol),
}


@pytest.mark.parametrize("entry", list(POLICY_ENTRIES))
class TestSelfPolicyArgument:
    # A string is never SelfPolicy.EXCLUDE_SELF, so "exclude-self" would
    # be scored as include-self.
    @pytest.mark.parametrize("policy", ["exclude-self", "include-self", None, 1])
    def test_non_member_rejected(self, gt, entry, policy):
        with pytest.raises(RangeError) as exc:
            POLICY_ENTRIES[entry](gt, policy)
        assert str(exc.value) == (
            "self policy must be one of SelfPolicy.INCLUDE_SELF, "
            f"SelfPolicy.EXCLUDE_SELF, got {policy!r}"
        )

    def test_members_accepted(self, gt, entry):
        for policy in SelfPolicy:
            POLICY_ENTRIES[entry](gt, policy)



# Every public entry that takes an alpha level, on fixture:guo_tanaka.
ALPHA_ENTRIES = {
    "MoConfig": lambda d, a: MoConfig(alpha=a),
    "beta_level": lambda d, a: beta_level(0.5, a),
    "reduced_data": lambda d, a: reduced_data(d, 1, 0.5, a),
    "z_star": lambda d, a: z_star(d, 1, alpha=a),
    "alphacut_reduce": lambda d, a: alphacut_reduce(d, 1, a),
    "pessimistic_reduce": lambda d, a: pessimistic_reduce(d, 1, a),
    "alphacut_scores": lambda d, a: alphacut_scores(d, a),
    "pessimistic_scores": lambda d, a: pessimistic_scores(d, a),
    # The alpha-cut of the one triangular cell (1, 2, 4).
    "TriFuzzy.alpha_interval": lambda d, a: _cell_cut((1.0, 2.0, 4.0), a),
}


def _cell_cut(cell, alpha):
    """(lo, hi), the alpha-cut of cell as reduce_at takes it."""
    lower, modal, upper = cell
    alpha = check_alpha(alpha)
    return float(toward_modal(lower, modal, alpha)), float(toward_modal(upper, modal, alpha))


def _exact(out):
    """_digest with every float spelled out, and its type, so float32 shows."""
    if isinstance(out, tuple):
        return tuple(_exact(x) for x in out)
    if isinstance(out, MoConfig):
        return type(out.alpha), out.alpha.hex()
    if hasattr(out, "score"):
        return type(out.alpha), out.alpha.hex(), out.score.hex()
    if isinstance(out, float):
        return type(out), out.hex()
    return _digest(out)


@pytest.mark.parametrize("entry", list(ALPHA_ENTRIES))
class TestAlphaScalars:
    @pytest.mark.parametrize(
        "alpha", [np.float32(0.3), np.float64(0.3), np.float32(0.5), np.int64(1),
                  np.uint8(0), np.int32(0)],
        ids=repr,
    )
    def test_numpy_reals_score_as_their_float(self, gt, entry, alpha):
        want = _exact(ALPHA_ENTRIES[entry](gt, float(alpha)))
        assert _exact(ALPHA_ENTRIES[entry](gt, alpha)) == want

    @pytest.mark.parametrize("alpha", [True, False, np.bool_(True)], ids=repr)
    def test_bool_rejected(self, gt, entry, alpha):
        with pytest.raises(AlphaOutOfRange) as exc:
            ALPHA_ENTRIES[entry](gt, alpha)
        assert str(exc.value) == f"alpha must be a finite number, got {alpha!r}"


class TestLevelScalars:
    def test_alpha_kept_as_float(self, gt):
        cfg = MoConfig(alpha=np.float32(0.5), h_tol=np.float32(0.25))
        assert type(cfg.alpha) is float and type(cfg.h_tol) is float
        assert cfg == MoConfig(alpha=0.5, h_tol=0.25)
        assert type(MoConfig(alpha=1).alpha) is float
        for sc in alphacut_scores(gt, np.int64(1)):
            assert type(sc.alpha) is float
        for r in evaluate_all(gt, [cfg])[0]:
            assert type(r.alpha) is float

    @pytest.mark.parametrize("h", [np.float32(0.3), np.float64(0.3), np.int64(1)], ids=repr)
    def test_numpy_h_scores_as_its_float(self, gt, h):
        cfg = MoConfig(alpha=0.25)
        assert beta_level(h, 0.25) == beta_level(float(h), 0.25)
        assert type(beta_level(h, 0.25)) is float
        assert _digest(reduced_data(gt, 1, h, 0.25)) == _digest(
            reduced_data(gt, 1, float(h), 0.25)
        )
        assert eff_at(gt, 1, h, cfg).hex() == eff_at(gt, 1, float(h), cfg).hex()

    @pytest.mark.parametrize("h", [True, False, np.bool_(False)], ids=repr)
    def test_bool_h_rejected(self, gt, h):
        for check in (lambda: beta_level(h, 0.0), lambda: eff_at(gt, 1, h)):
            with pytest.raises(RangeError, match="h must lie in"):
                check()

    @pytest.mark.parametrize("h_tol", [True, np.bool_(True)], ids=repr)
    def test_bool_h_tol_rejected(self, h_tol):
        with pytest.raises(RangeError, match="h_tol"):
            MoConfig(h_tol=h_tol)
