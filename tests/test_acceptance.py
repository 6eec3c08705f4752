"""Acceptance gate: reproduction targets and randomized property suites.

Each criterion prints one PASS/FAIL line on the real terminal and then
asserts, so an unmet target fails loudly with its full evidence.  The
reference figures live in reference_values.py; where a computed value
genuinely disagrees with a published cell, the test reports the diff
rather than hiding it.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from fuzzydea.alphacut import alphacut_scores, modal_reduce, pessimistic_scores
from fuzzydea.ccr import SelfPolicy, ccr_efficiency, ccr_scores
from fuzzydea.cli import main
from fuzzydea.dataio import read_report
from fuzzydea.linprog import LpProblem, LpStatus, solve
from fuzzydea.mofdea import MoConfig, eff_at, solve_mo, z_star

from _datagen import (
    crisp_arrays,
    crisp_dataset,
    crisp_fuzzy_dataset,
    random_crisp_dataset,
    random_dataset,
)
from _oracles import brute_force_lp, grid_h_star
from reference_values import (
    AC_DMUS,
    GT_DMUS,
    REF_AIRCRAFT,
    REF_AIRCRAFT_RANK_ORDER,
    REF_ALPHA_TABLE,
    REF_CRISP_INCLUDE,
    REF_MO_TABLE,
)
from test_trifuzzy import alpha_cut, membership

T0 = time.perf_counter()

EXCLUDE = SelfPolicy.EXCLUDE_SELF
INCLUDE = SelfPolicy.INCLUDE_SELF


def _cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def _finish(capsys, number, failures, note="", remarks=()):
    """Print the criterion line and assert; remarks show on PASS and FAIL."""
    status = "PASS" if not failures else "FAIL"
    detail = "; ".join(([note] if note and not failures else failures) + list(remarks))
    with capsys.disabled():
        print(f"\nACCEPTANCE CRITERION {number}: {status}"
              + (f" — {detail}" if detail else ""))
    assert not failures, f"criterion {number}:\n" + "\n".join(failures)


def _check_cells(report, alpha, expected, tol, failures, label, skip=()):
    for name, want in zip(GT_DMUS, expected):
        if name in skip:
            continue
        got = report.row_for(name, alpha).score
        if abs(got - want) > tol + 1e-12:
            failures.append(
                f"{label} {name}@alpha={alpha:g}: computed {got:.4f} vs "
                f"published {want:g} (diff {abs(got - want):.4f})"
            )


def test_criterion_1_alphacut_reproduction(capsys):
    failures = []
    t = time.perf_counter()
    code, out = _cli(
        capsys,
        "eval", "--model", "alpha", "--data", "fixture:guo_tanaka",
        "--alpha", "0,0.5,0.75", "--format", "json",
    )
    elapsed = time.perf_counter() - t
    if code != 0:
        failures.append(f"eval exited {code}")
    else:
        report = read_report(out)
        for a in (0.0, 0.5, 0.75):
            _check_cells(report, a, REF_ALPHA_TABLE[a], 0.02, failures, "alpha-cut")

    code, out = _cli(
        capsys,
        "eval", "--model", "alpha", "--data", "fixture:guo_tanaka",
        "--alpha", "1", "--include-self", "--format", "json",
    )
    if code != 0:
        failures.append(f"alpha=1 eval exited {code}")
    else:
        report = read_report(out)
        _check_cells(report, 1.0, REF_CRISP_INCLUDE, 0.01, failures, "crisp row")

    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _finish(capsys, 1, failures, f"15+5 cells within tolerance, {elapsed:.2f}s")


def _modal_bound(crisp, p, policy, failures):
    """CCR score of DMU p on modal data, cross-checked by vertex enumeration.

    Returns (simplex value, oracle value); a disagreement is a failure.
    """
    score = ccr_efficiency(crisp, p, policy=policy).efficiency
    s, m = crisp.n_outputs, crisp.n_inputs
    inputs, outputs = crisp_arrays(crisp)
    objective = tuple(outputs[:, p]) + (0.0,) * m
    rows = [((0.0,) * s + tuple(inputs[:, p]), "=", 1.0)]
    rows += [
        (tuple(outputs[:, j]) + tuple(-inputs[:, j]), "<=", 0.0)
        for j in range(crisp.n_dmus)
        if policy is INCLUDE or j != p
    ]
    oracle = brute_force_lp(objective, rows)
    if oracle[0] != "optimal" or abs(oracle[1] - score) > 1e-7:
        failures.append(
            f"modal {policy.value} score of {crisp.dmu_names[p]}: simplex "
            f"{score:.6f} vs vertex oracle {oracle}"
        )
        return score, float("nan")
    return score, oracle[1]


def _unattainable(want, tol, ranges):
    """Why a published mo cell lies beyond tol outside every reachable range.

    The mo data for DMU p are never less favorable than the modal data
    and never more favorable than the alpha-cut's favorable endpoints,
    so its score lies in [modal include-self, 1] under include-self and
    in [modal exclude-self, optimistic alpha-cut] under exclude-self.
    ranges holds (label, lo, oracle, hi, top): oracle is the vertex
    oracle's value for lo, top names hi.  Returns None when the cell is
    reachable in some range.
    """
    reasons = []
    for label, lo, oracle, hi, top in ranges:
        if lo - tol - 1e-12 <= want <= hi + tol + 1e-12:
            return None
        if want < lo:
            bound = f"below the modal score {lo:.4f} (vertex oracle {oracle:.4f})"
        else:
            bound = f"above {top} {hi:.4f}"
        reasons.append(f"{label} range [{lo:.4f}, {hi:.4f}]: {bound}")
    return "; ".join(reasons)


def test_criterion_2_mo_reproduction(capsys, gt):
    failures = []
    remarks = []
    code, out = _cli(
        capsys,
        "eval", "--model", "mo", "--data", "fixture:guo_tanaka",
        "--alpha", "0,0.5,0.75", "--format", "json",
    )
    if code != 0:
        failures.append(f"eval exited {code}")
    else:
        report = read_report(out)
        crisp = modal_reduce(gt)
        modal = {
            policy: [_modal_bound(crisp, p, policy, failures) for p in range(gt.n_dmus)]
            for policy in (INCLUDE, EXCLUDE)
        }
        for a in (0.0, 0.5, 0.75):
            optimistic = alphacut_scores(gt, a, EXCLUDE)
            skip = []
            for p, (name, want) in enumerate(zip(GT_DMUS, REF_MO_TABLE[a])):
                ranges = (
                    ("include-self", *modal[INCLUDE][p], 1.0, "the cap"),
                    ("exclude-self", *modal[EXCLUDE][p], optimistic[p].score,
                     "the optimistic alpha-cut score"),
                )
                why = _unattainable(want, 0.02, ranges)
                if why is None:
                    continue
                skip.append(name)
                remarks.append(
                    f"mo {name}@alpha={a:g}: published {want:g} is unattainable ({why})"
                )
                got = report.row_for(name, a).score
                lo, hi = modal[EXCLUDE][p][0], optimistic[p].score
                if not lo - 1e-9 <= got <= hi + 1e-9:
                    failures.append(
                        f"mo {name}@alpha={a:g}: computed {got:.4f} outside its "
                        f"exclude-self range [{lo:.4f}, {hi:.4f}]"
                    )
            _check_cells(report, a, REF_MO_TABLE[a], 0.02, failures, "mo", skip)

    # alpha=1 row: accept either policy; otherwise a deviations report
    # with the grid-search oracle value satisfies the criterion.
    alpha1 = {}
    for flag, policy in ((("--include-self",), "include"), ((), "exclude")):
        code, out = _cli(
            capsys,
            "eval", "--model", "mo", "--data", "fixture:guo_tanaka",
            "--alpha", "1", "--format", "json", *flag,
        )
        if code != 0:
            failures.append(f"alpha=1 {policy} eval exited {code}")
            continue
        report = read_report(out)
        scores = tuple(report.row_for(n, 1.0).score for n in GT_DMUS)
        alpha1[policy] = scores
        if all(abs(g - w) <= 0.01 for g, w in zip(scores, REF_MO_TABLE[1.0])):
            alpha1["matched"] = policy
            break
    if "matched" not in alpha1 and not failures:
        # honest mismatch path: record it alongside the oracle's figures
        oracle = []
        for p in range(gt.n_dmus):
            cfg = MoConfig(alpha=1.0)
            h = grid_h_star(gt, p, cfg)
            oracle.append(eff_at(gt, p, h, cfg))
        failures.append(
            "alpha=1 row off under both policies; grid oracle gives "
            + ", ".join(f"{v:.4f}" for v in oracle)
        )

    note = f"alpha=1 row matched under {alpha1.get('matched', '?')}-self policy"
    cells = 3 * len(GT_DMUS) - len(remarks)
    _finish(capsys, 2, failures, f"{cells} cells within 0.02; " + note, remarks)


def test_criterion_3_aircraft_reproduction(capsys):
    failures = []
    t = time.perf_counter()
    code, out = _cli(
        capsys,
        "eval", "--model", "mo", "--data", "fixture:aircraft",
        "--alpha", "0", "--format", "json",
    )
    elapsed = time.perf_counter() - t
    if code != 0:
        failures.append(f"eval exited {code}")
        _finish(capsys, 3, failures)
        return

    report = read_report(out)
    for name in AC_DMUS:
        want_h, want_eff, _ = REF_AIRCRAFT[name]
        row = report.row_for(name, 0.0)
        if abs(row.h_star - want_h) > 0.01 + 1e-12:
            failures.append(
                f"{name}: h*={row.h_star:.4f} vs published {want_h:g} "
                f"(diff {abs(row.h_star - want_h):.4f})"
            )
        if abs(row.score - want_eff) > 0.02 + 1e-12:
            failures.append(
                f"{name}: eff={row.score:.4f} vs published {want_eff:g} "
                f"(diff {abs(row.score - want_eff):.4f})"
            )
    ranked = tuple(
        sorted(AC_DMUS, key=lambda n: report.row_for(n, 0.0).rank)
    )
    if ranked != REF_AIRCRAFT_RANK_ORDER:
        failures.append(
            "rank order " + " > ".join(ranked)
            + " vs published " + " > ".join(REF_AIRCRAFT_RANK_ORDER)
        )
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _finish(capsys, 3, failures, f"h*, efficiencies, rank all match, {elapsed:.2f}s")


def test_criterion_4_bisection_matches_grid(capsys, gt, ac):
    failures = []
    checked = 0
    for data in (gt, ac):
        for alpha in (0.0, 0.5):
            cfg = MoConfig(alpha=alpha)
            for p, name in enumerate(data.dmu_names):
                got = solve_mo(data, p, cfg).h_star
                ref = grid_h_star(data, p, cfg)
                checked += 1
                if abs(got - ref) > 2e-3:
                    failures.append(
                        f"{data.name} {name}@alpha={alpha:g}: bisection "
                        f"h*={got:.5f} vs grid {ref:.3f}"
                    )
    _finish(capsys, 4, failures, f"{checked} (dmu, alpha) pairs within 2e-3")


# --- criterion 5: randomized property suites ------------------------------

def _suite_cut_nesting(rng, cases=120):
    fails = []
    for k in range(cases):
        modal = float(rng.uniform(1.0, 10.0))
        roll = rng.random()
        if roll < 0.15:
            f = (modal, modal, modal)
        elif roll < 0.25:  # one degenerate side
            span = float(rng.uniform(0.01, 0.4)) * modal
            f = (modal - span, modal, modal) if rng.random() < 0.5 else (modal, modal, modal + span)
        else:
            f = (
                modal - float(rng.uniform(0.01, 0.4)) * modal,
                modal,
                modal + float(rng.uniform(0.01, 0.4)) * modal,
            )
        lower, _, upper = f
        a1, a2 = sorted(float(v) for v in rng.uniform(0.0, 1.0, size=2))
        (wide_lo, wide_hi), (tight_lo, tight_hi) = alpha_cut(f, a1), alpha_cut(f, a2)
        if not (wide_lo <= tight_lo + 1e-12 and tight_hi <= wide_hi + 1e-12
                and wide_lo <= wide_hi and tight_lo <= tight_hi):
            fails.append(f"nesting violated, case {k}: {f}")
        a = float(rng.uniform(0.05, 1.0))
        lo, hi = alpha_cut(f, a)
        if modal > lower and abs(membership(f, lo) - a) > 1e-12:
            fails.append(f"left endpoint membership != alpha, case {k}: {f}")
        if upper > modal and abs(membership(f, hi) - a) > 1e-12:
            fails.append(f"right endpoint membership != alpha, case {k}: {f}")
    return fails


def _suite_alphacut_monotone(rng, cases=100):
    fails = []
    for k in range(cases):
        data = random_dataset(rng)
        p = int(rng.integers(0, data.n_dmus))
        a1, a2 = sorted(float(v) for v in rng.uniform(0.0, 1.0, size=2))
        s1 = alphacut_scores(data, a1)[p].score
        s2 = alphacut_scores(data, a2)[p].score
        if s1 < s2 - 1e-9:
            fails.append(f"case {k}: score({a1:.3f})={s1:.6f} < score({a2:.3f})={s2:.6f}")
    return fails


_ALPHA_GRID = tuple(i / 10 for i in range(11))


def _suite_mo_monotone(rng, cases=100):
    fails = []
    for k in range(cases):
        data = random_dataset(rng)
        p = int(rng.integers(0, data.n_dmus))
        a1, a2 = sorted(rng.choice(len(_ALPHA_GRID), size=2, replace=False))
        a1, a2 = _ALPHA_GRID[a1], _ALPHA_GRID[a2]
        e1 = solve_mo(data, p, MoConfig(alpha=a1)).efficiency
        e2 = solve_mo(data, p, MoConfig(alpha=a2)).efficiency
        if e1 < e2 - 1e-6:
            fails.append(f"case {k}: eff({a1})={e1:.7f} < eff({a2})={e2:.7f}")
    return fails


def _suite_sandwich(rng, cases=100):
    fails = []
    for k in range(cases):
        data = random_dataset(rng)
        p = int(rng.integers(0, data.n_dmus))
        alpha = float(rng.uniform(0.0, 1.0))
        hi = alphacut_scores(data, alpha)[p].score
        lo = pessimistic_scores(data, alpha)[p].score
        mid = solve_mo(data, p, MoConfig(alpha=alpha)).efficiency
        if not (lo - 1e-6 <= mid <= hi + 1e-6):
            fails.append(
                f"case {k}: pessimistic {lo:.6f} <= mo {mid:.6f} <= "
                f"optimistic {hi:.6f} fails"
            )
    return fails


def _suite_fixed_point(rng, cases=100):
    fails = []
    for k in range(cases):
        data = random_dataset(rng, crisp_prob=0.1)
        p = int(rng.integers(0, data.n_dmus))
        cfg = MoConfig(alpha=float(rng.uniform(0.0, 0.8)))
        res = solve_mo(data, p, cfg)
        if res.h_star < 1.0:
            resid = abs(res.efficiency / res.z_star - res.h_star)
            if resid > 10 * cfg.h_tol:
                fails.append(f"case {k}: residual {resid:.2e} > {10 * cfg.h_tol:.0e}")
    return fails


def _suite_crisp_degeneracy(rng, cases=100):
    fails = []
    for k in range(cases):
        data = crisp_fuzzy_dataset(rng)
        alpha = float(rng.uniform(0.0, 1.0))
        crisp = modal_reduce(data)
        for policy in (EXCLUDE, INCLUDE):
            ccr = [r.efficiency for r in ccr_scores(crisp, policy=policy)]
            cut = [s.score for s in alphacut_scores(data, alpha, policy=policy)]
            if any(abs(a - b) > 1e-9 for a, b in zip(ccr, cut)):
                fails.append(f"case {k}: alphacut != ccr under {policy.value}")
        p = int(rng.integers(0, data.n_dmus))
        res = solve_mo(data, p, MoConfig(alpha=alpha))
        ccr_p = ccr_efficiency(crisp, p, policy=EXCLUDE).efficiency
        if abs(res.efficiency - ccr_p) > 1e-9 or res.h_star != 1.0:
            fails.append(
                f"case {k}: mo gives ({res.h_star}, {res.efficiency:.9f}) "
                f"vs crisp {ccr_p:.9f}"
            )
    return fails


def _suite_ccr_trio(rng, cases=100):
    fails = []
    for k in range(cases):
        data = random_crisp_dataset(rng)
        n, m, s = data.n_dmus, data.n_inputs, data.n_outputs

        # units invariance: rescale one input and one output column family
        ci = float(rng.uniform(0.05, 20.0))
        cr = float(rng.uniform(0.05, 20.0))
        i = int(rng.integers(0, m))
        r = int(rng.integers(0, s))
        inputs, outputs = crisp_arrays(data)
        xs = np.array(inputs)
        ys = np.array(outputs)
        xs[i] *= ci
        ys[r] *= cr
        scaled = crisp_dataset(data.dmu_names, xs, ys)
        for policy in (INCLUDE, EXCLUDE):
            base = [v.efficiency for v in ccr_scores(data, policy=policy)]
            after = [v.efficiency for v in ccr_scores(scaled, policy=policy)]
            if any(abs(a - b) > 1e-7 for a, b in zip(base, after)):
                fails.append(f"case {k}: units invariance broke ({policy.value})")

        # dominance: a fresh DMU weakly better than DMU b must not score lower
        b = int(rng.integers(0, n))
        xa = np.array(inputs)[:, b] * rng.uniform(0.5, 1.0, size=m)
        ya = np.array(outputs)[:, b] * rng.uniform(1.0, 1.5, size=s)
        grown = crisp_dataset(
            data.dmu_names + ("dom",),
            np.column_stack([inputs, xa]),
            np.column_stack([outputs, ya]),
        )
        ea = ccr_efficiency(grown, n, policy=INCLUDE).efficiency
        eb = ccr_efficiency(grown, b, policy=INCLUDE).efficiency
        if ea < eb - 1e-9:
            fails.append(f"case {k}: dominance broke ({ea:.9f} < {eb:.9f})")

        # redundancy: adding a dominated DMU must not move anyone's score
        xw = np.array(inputs)[:, b] * rng.uniform(1.0, 1.5, size=m)
        yw = np.array(outputs)[:, b] * rng.uniform(0.5, 1.0, size=s)
        padded = crisp_dataset(
            data.dmu_names + ("weak",),
            np.column_stack([inputs, xw]),
            np.column_stack([outputs, yw]),
        )
        before = [v.efficiency for v in ccr_scores(data, policy=INCLUDE)]
        after = [
            ccr_efficiency(padded, j, policy=INCLUDE).efficiency for j in range(n)
        ]
        if any(abs(x - y) > 1e-9 for x, y in zip(before, after)):
            fails.append(f"case {k}: redundancy broke")
    return fails


def _suite_lp_oracle(rng, cases=120):
    fails = []
    done = 0
    while done < cases:
        n = int(rng.integers(1, 4))
        rows = []
        for _ in range(int(rng.integers(1, 5))):
            rel = ("<=", ">=", "=")[int(rng.integers(0, 3))]
            rows.append(
                (
                    tuple(float(v) for v in rng.uniform(-1, 3, size=n)),
                    rel,
                    float(rng.uniform(-2, 6)),
                )
            )
        prob = LpProblem(tuple(float(v) for v in rng.uniform(-2, 3, size=n)), tuple(rows))
        expect = brute_force_lp(prob.objective, prob.rows)
        got = solve(prob)
        if expect[0] == "infeasible":
            ok = got.status is LpStatus.INFEASIBLE
        elif expect[0] == "unbounded":
            ok = got.status is LpStatus.UNBOUNDED
        else:
            ok = (
                got.status is LpStatus.OPTIMAL
                and abs(got.value - expect[1]) <= 1e-7
            )
        if not ok:
            fails.append(f"case {done}: solver {got.status} vs oracle {expect[0]}")
        done += 1
    return fails


def test_criterion_5_property_suites(capsys):
    suites = (
        ("alpha-cut nesting/endpoints", _suite_cut_nesting, 11),
        ("alphacut alpha-monotonicity", _suite_alphacut_monotone, 22),
        ("mo alpha-monotonicity", _suite_mo_monotone, 33),
        ("sandwich", _suite_sandwich, 44),
        ("fixed point", _suite_fixed_point, 55),
        ("crisp degeneracy", _suite_crisp_degeneracy, 66),
        ("ccr invariance/dominance/redundancy", _suite_ccr_trio, 77),
        ("lp vertex oracle", _suite_lp_oracle, 1234),
    )
    failures = []
    for label, fn, seed in suites:
        bad = fn(np.random.default_rng(seed))
        failures.extend(f"[{label}] {msg}" for msg in bad[:3])
        if len(bad) > 3:
            failures.append(f"[{label}] ... {len(bad) - 3} more")
    _finish(capsys, 5, failures, f"{len(suites)} suites x >=100 cases")


def test_criterion_6_determinism_and_budget(capsys):
    failures = []
    repro = (
        ("eval", "--model", "alpha", "--data", "fixture:guo_tanaka", "--format", "md"),
        ("eval", "--model", "mo", "--data", "fixture:guo_tanaka", "--format", "md"),
        ("eval", "--model", "mo", "--data", "fixture:aircraft", "--alpha", "0",
         "--format", "md"),
        ("compare", "--data", "fixture:guo_tanaka", "--alpha", "0,0.5",
         "--format", "csv"),
        ("zstar", "--data", "fixture:aircraft", "--format", "json"),
    )
    for argv in repro:
        first = _cli(capsys, *argv)
        second = _cli(capsys, *argv)
        if first[0] != 0 or second[0] != 0:
            failures.append(f"{argv[0]} exited {first[0]}/{second[0]}")
        elif first[1] != second[1]:
            failures.append(f"{' '.join(argv)} output differs between runs")

    cmd = [
        sys.executable, "-m", "fuzzydea",
        "eval", "--model", "alpha", "--data", "fixture:guo_tanaka",
    ]
    one = subprocess.run(cmd, capture_output=True).stdout
    two = subprocess.run(cmd, capture_output=True).stdout
    if not one or one != two:
        failures.append("subprocess runs not byte-identical")

    elapsed = time.perf_counter() - T0
    if elapsed >= 60.0:
        failures.append(f"acceptance suite took {elapsed:.1f}s (budget 60s)")
    _finish(
        capsys, 6, failures,
        f"5 reproduction commands byte-identical twice; suite {elapsed:.1f}s",
    )
