import json

import pytest

from fuzzydea import ccr, cli
from fuzzydea.alphacut import alphacut_scores
from fuzzydea.ccr import SelfPolicy
from fuzzydea.cli import main
from fuzzydea.dataio import read_report
from fuzzydea.errors import NumericalBreakdown, SolverFailure
from fuzzydea.mofdea import evaluate_all
from test_backends import KERNELS

SOLO = """
{"name": "solo", "inputs": ["I1"], "outputs": ["O1"],
 "dmus": [{"name": "only", "inputs": [1], "outputs": [1]}]}
"""

CRISP3 = """
{"name": "crisp3", "inputs": ["I1"], "outputs": ["O1"],
 "dmus": [{"name": "a", "inputs": [2], "outputs": [4]},
          {"name": "b", "inputs": [3], "outputs": [3]},
          {"name": "c", "inputs": [1], "outputs": [1]}]}
"""

# Data on which the kernel itself fails, and each failure's message.
# solo: one unit, no peer under exclude-self, so the LP is unbounded.
# tiny: U2's outputs are some 1e-12 of its peers', so its z* is 0.
# vast: inputs 1e9 apart, which end phase 1 on an unbounded tableau.
KERNEL_FAILURES = {
    "solo": ("""
{"name": "solo", "inputs": ["I1"], "outputs": ["O1"],
 "dmus": [{"name": "A", "inputs": [1], "outputs": [1]}]}
""", "CCR multiplier model for DMU 'A' is unbounded"),
    "tiny": ("""
{"name": "tiny", "inputs": ["I1"], "outputs": ["O1"],
 "dmus": [{"name": "U1", "inputs": [[1, 2, 3]], "outputs": [[1, 2, 3]]},
          {"name": "U2", "inputs": [[1, 2, 3]], "outputs": [[1e-12, 2e-12, 3e-12]]},
          {"name": "U3", "inputs": [[1, 2, 3]], "outputs": [[1, 2, 3]]}]}
""", "ideal score for DMU 'U2' is 0.0; the ratio target is undefined"),
    "vast": ("""
{"name": "vast", "inputs": ["I1", "I2"], "outputs": ["O1"],
 "dmus": [{"name": "A", "inputs": [4.2e16, 2.2e7], "outputs": [6.7]},
          {"name": "B", "inputs": [1.3e16, 1.7e7], "outputs": [9.9]}]}
""", "phase 1 reported an unbounded tableau"),
}

# Crisp data whose CCR score is not a double (ROADMAP item 13), and the
# flags that score it.  overflow, exclude-self: A's score is 1e600 and
# B's 1e-600, printed inf and 0.0.  nan, include-self: U1's score lies in
# [1/3, 1], since v = (1e-300, 0) is feasible, and prints nan.
NONFINITE_SCORES = {
    "overflow": ("""
{"name": "overflow", "inputs": ["x"], "outputs": ["y"],
 "dmus": [{"name": "A", "inputs": [1], "outputs": [1e300]},
          {"name": "B", "inputs": [1e300], "outputs": [1]}]}
""", ()),
    "nan": ("""
{"name": "nan", "inputs": ["x1", "x2"], "outputs": ["y"],
 "dmus": [{"name": "U0", "inputs": [1, 5e-324], "outputs": [1e-9]},
          {"name": "U1", "inputs": [1e300, 1], "outputs": [1e300]},
          {"name": "U2", "inputs": [1, 1e300], "outputs": [3]}]}
""", ("--include-self",)),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_ccr_include_self_md(self, capsys):
        code, out, err = run(
            capsys,
            "eval", "--model", "ccr", "--data", "fixture:guo_tanaka",
            "--include-self", "--format", "md",
        )
        assert code == 0 and err == ""
        assert "| dmu | efficiency |" in out
        assert "| D2 | 1.0000 |" in out

    def test_alpha_json_matches_library(self, capsys, gt):
        code, out, _ = run(
            capsys,
            "eval", "--model", "alpha", "--data", "fixture:guo_tanaka",
            "--alpha", "0,0.5", "--format", "json",
        )
        assert code == 0
        report = read_report(out)
        assert report.model == "alpha"
        assert report.policy == "exclude-self"
        for a in (0.0, 0.5):
            want = {s.dmu: s.score for s in alphacut_scores(gt, a)}
            for name, score in want.items():
                assert report.row_for(name, a).score == pytest.approx(score)

    def test_mo_rows_carry_extras(self, capsys):
        code, out, _ = run(
            capsys,
            "eval", "--model", "mo", "--data", "fixture:guo_tanaka",
            "--alpha", "0", "--format", "json",
        )
        assert code == 0
        report = read_report(out)
        row = report.row_for("D1", 0.0)
        assert row.h_star is not None and 0 <= row.h_star <= 1
        assert row.z_star is not None and row.rank in range(1, 6)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_mo_ranks_through_evaluate_all(self, capsys, monkeypatch, fmt):
        # One call of the public routine per report: a ranking path beside
        # it would hide the mo model's time from the benchmark's tracer.
        argv = ("eval", "--model", "mo", "--data", "fixture:aircraft",
                "--alpha", "0,0.5", "--format", fmt)
        plain = run(capsys, *argv)
        calls = []

        def counted(*args):
            calls.append(args)
            return evaluate_all(*args)

        monkeypatch.setattr(cli, "evaluate_all", counted)
        assert run(capsys, *argv) == plain and plain[0] == 0
        assert len(calls) == 1

    def test_alpha_md_matrix_layout(self, capsys):
        code, out, _ = run(
            capsys,
            "eval", "--model", "alpha", "--data", "fixture:guo_tanaka",
            "--alpha", "0,1",
        )
        assert code == 0
        lines = out.splitlines()
        assert "| alpha | D1 | D2 | D3 | D4 | D5 |" in lines
        assert sum(1 for l in lines if l.startswith("| 0 |")) == 1
        assert sum(1 for l in lines if l.startswith("| 1 |")) == 1

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys,
            "eval", "--model", "ccr", "--data", "fixture:guo_tanaka",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("model,policy,dmu,alpha,score")

    def test_file_path_data(self, capsys, tmp_path):
        f = tmp_path / "crisp.json"
        f.write_text(CRISP3)
        code, out, _ = run(
            capsys, "eval", "--model", "ccr", "--data", str(f), "--include-self"
        )
        assert code == 0
        assert "| a | 1.0000 |" in out


class TestExitCodes:
    def test_missing_file_exits_1_no_output(self, capsys):
        code, out, err = run(capsys, "eval", "--model", "ccr", "--data", "missing.json")
        assert code == 1
        assert out == ""
        assert "missing.json" in err

    def test_unknown_flag_exits_1(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--model", "ccr", "--data", "x.json", "--bogus"
        )
        assert code == 1 and out == ""

    @pytest.mark.parametrize(
        "cell", ["1" + "0" * 400, "[1, 2, 1" + "0" * 400 + "]"], ids=["number", "triple"]
    )
    def test_integer_too_large_for_a_float_exits_1(self, capsys, tmp_path, cell):
        f = tmp_path / "huge.json"
        f.write_text(CRISP3.replace('"inputs": [3]', f'"inputs": [{cell}]'))
        code, out, err = run(capsys, "eval", "--model", "ccr", "--data", str(f))
        assert (code, out) == (1, "")
        assert err == (
            "fuzzydea: error: DMU 'b' inputs[0]: integer too large for a float\n"
        )

    def test_no_subcommand_exits_1(self, capsys):
        assert run(capsys)[0] == 1

    def test_bad_alpha_exits_1(self, capsys):
        code, out, err = run(
            capsys,
            "eval", "--model", "alpha", "--data", "fixture:guo_tanaka",
            "--alpha", "0,zap",
        )
        assert code == 1 and out == "" and "zap" in err

    def test_alpha_out_of_range_exits_1(self, capsys):
        code, _, _ = run(
            capsys,
            "eval", "--model", "alpha", "--data", "fixture:guo_tanaka",
            "--alpha", "1.5",
        )
        assert code == 1

    @pytest.mark.parametrize("tol_h", ["inf", "nan", "0", "-0.5"])
    def test_bad_tol_h_exits_1(self, capsys, tol_h):
        code, out, err = run(
            capsys,
            "eval", "--model", "mo", "--data", "fixture:guo_tanaka",
            "--tol-h", tol_h,
        )
        assert code == 1 and out == "" and "h_tol" in err

    def test_nan_alpha_same_message_in_both_models(self, capsys):
        errs = set()
        for model in ("alpha", "mo"):
            code, out, err = run(
                capsys,
                "eval", "--model", model, "--data", "fixture:guo_tanaka",
                "--alpha", "nan",
            )
            assert code == 1 and out == ""
            errs.add(err)
        assert errs == {"fuzzydea: error: alpha must be a finite number, got nan\n"}

    @pytest.mark.parametrize(
        "sub", [("eval", "--model", "mo"), ("compare",), ("eval", "--model", "alpha")]
    )
    @pytest.mark.parametrize("alphas,message", [
        ("0,2", "alpha must lie in [0, 1], got 2.0"),
        ("0.5,-1", "alpha must lie in [0, 1], got -1.0"),
        ("0,nan", "alpha must be a finite number, got nan"),
    ])
    def test_bad_mo_level_exits_1_before_any_lp(
        self, capsys, monkeypatch, sub, alphas, message
    ):
        lps = []
        search = ccr._search
        monkeypatch.setattr(ccr, "_search", lambda *a: lps.append(a) or search(*a))
        code, out, err = run(
            capsys, *sub, "--data", "fixture:guo_tanaka", "--alpha", alphas
        )
        assert (code, out, err) == (1, "", f"fuzzydea: error: {message}\n")
        assert lps == []

    @pytest.mark.parametrize("sub", [("eval", "--model", "mo"), ("compare",)])
    @pytest.mark.parametrize("exc", [SolverFailure, NumericalBreakdown])
    def test_mo_solver_failure_exits_2(self, capsys, monkeypatch, sub, exc):
        def failing(lps, p, cfgs, levels=()):
            raise exc(f"CCR multiplier model for DMU {lps.names[p]!r} failed")

        monkeypatch.setattr(ccr, "_search", failing)
        code, out, err = run(
            capsys, *sub, "--data", "fixture:guo_tanaka", "--alpha", "0,0.5"
        )
        assert code == 2 and out == ""
        assert err == (
            "fuzzydea: solver error: CCR multiplier model for DMU 'D1' failed\n"
        )

    def test_unknown_fixture_exits_1(self, capsys):
        code, _, _ = run(capsys, "eval", "--model", "ccr", "--data", "fixture:nope")
        assert code == 1

    def test_fixture_name_cannot_leave_the_fixtures_folder(self, capsys):
        name = "../../fuzzydea/fixtures/guo_tanaka"  # the bundled file, by a path
        code, out, err = run(capsys, "eval", "--model", "alpha", "--data", f"fixture:{name}")
        assert (code, out) == (1, "")
        assert err == (f"fuzzydea: error: unknown fixture {name!r}; "
                       "available: aircraft, guo_tanaka\n")

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_empty_dmu_name_exits_1(self, capsys, tmp_path, fmt):
        f = tmp_path / "unnamed.json"
        f.write_text(CRISP3.replace('"name": "b"', '"name": ""'))
        code, out, err = run(
            capsys, "eval", "--model", "ccr", "--data", str(f), "--format", fmt
        )
        assert (code, out) == (1, "")
        assert err == "fuzzydea: error: DMU names must not be empty\n"

    def test_solver_failure_exits_2(self, capsys, tmp_path):
        f = tmp_path / "solo.json"
        f.write_text(SOLO)
        code, out, err = run(capsys, "eval", "--model", "ccr", "--data", str(f))
        assert code == 2
        assert out == "" and "solver" in err

    @pytest.mark.parametrize("name,sub", [
        ("solo", ("eval", "--model", "ccr")),
        ("solo", ("eval", "--model", "alpha")),
        ("solo", ("zstar",)),
        ("tiny", ("eval", "--model", "mo")),
        ("tiny", ("compare",)),
        ("tiny", ("zstar",)),
        ("vast", ("eval", "--model", "ccr")),
        ("vast", ("eval", "--model", "mo")),
    ])
    def test_kernel_failure_bytes(self, capsys, tmp_path, name, sub):
        # Each failure from real data, through the kernel and ccr._raise.
        data, message = KERNEL_FAILURES[name]
        f = tmp_path / f"{name}.json"
        f.write_text(data)
        assert run(capsys, *sub, "--data", str(f)) == (
            2, "", f"fuzzydea: solver error: {message}\n")

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 13: the kernel checks its data cells but not the optimum "
        "it returns, so a score that is not a finite double exits 0"))
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("name", list(NONFINITE_SCORES))
    def test_score_that_is_not_a_double_exits_2(self, capsys, tmp_path, monkeypatch,
                                                  kernel, name):
        monkeypatch.setattr(ccr, "default_mo_solve", kernel)
        data, flags = NONFINITE_SCORES[name]
        f = tmp_path / f"{name}.json"
        f.write_text(data)
        code, out, err = run(capsys, "eval", "--model", "ccr", "--data", str(f), *flags)
        assert (code, out) == (2, "")
        assert err.startswith("fuzzydea: ") and err.count("\n") == 1 and err.endswith("\n")

    def test_single_dmu_mo_is_data_error(self, capsys, tmp_path):
        f = tmp_path / "solo.json"
        f.write_text(SOLO)
        code, _, _ = run(
            capsys, "eval", "--model", "mo", "--data", str(f), "--alpha", "0"
        )
        assert code == 1

    def test_unknown_dmu_exits_1(self, capsys):
        code, _, _ = run(
            capsys, "zstar", "--data", "fixture:guo_tanaka", "--dmu", "D9"
        )
        assert code == 1


class TestZstar:
    def test_all_dmus(self, capsys):
        code, out, _ = run(
            capsys, "zstar", "--data", "fixture:aircraft", "--format", "json"
        )
        assert code == 0
        report = read_report(out)
        assert report.model == "zstar"
        assert report.row_for("B757-200", 0.0).score == pytest.approx(2.0, abs=1e-6)

    def test_single_dmu_filter(self, capsys):
        code, out, _ = run(
            capsys,
            "zstar", "--data", "fixture:aircraft", "--dmu", "MD-82",
            "--format", "json",
        )
        assert code == 0
        report = read_report(out)
        assert len(report.rows) == 1
        assert report.rows[0].dmu == "MD-82"
        assert report.rows[0].score == pytest.approx(4.0, abs=1e-6)


class TestCompare:
    def test_gap_never_meaningfully_negative(self, capsys):
        code, out, _ = run(
            capsys,
            "compare", "--data", "fixture:guo_tanaka", "--alpha", "0,0.5",
            "--format", "json",
        )
        assert code == 0
        report = read_report(out)
        assert len(report.rows) == 10
        for row in report.rows:
            assert row.score - row.mo_score >= -1e-6

    def test_crisp_dataset_gap_zero(self, capsys, tmp_path):
        f = tmp_path / "crisp.json"
        f.write_text(CRISP3)
        code, out, _ = run(
            capsys, "compare", "--data", str(f), "--alpha", "0,1", "--format", "json"
        )
        assert code == 0
        for row in read_report(out).rows:
            assert row.score == pytest.approx(row.mo_score, abs=1e-9)

    def test_md_has_gap_column(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--data", "fixture:guo_tanaka", "--alpha", "0"
        )
        assert code == 0
        assert "| alpha | dmu | alpha-cut | mo | gap |" in out


class TestDeterminism:
    def test_repeated_invocations_byte_identical(self, capsys):
        argv = (
            "eval", "--model", "mo", "--data", "fixture:guo_tanaka",
            "--alpha", "0,0.5", "--format", "csv",
        )
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second and first[0] == 0


class TestPolicyFlag:
    def test_include_self_caps_alpha_scores(self, capsys, gt):
        code, out, _ = run(
            capsys,
            "eval", "--model", "alpha", "--data", "fixture:guo_tanaka",
            "--alpha", "0", "--include-self", "--format", "json",
        )
        assert code == 0
        report = read_report(out)
        assert report.policy == "include-self"
        for name in gt.dmu_names:
            assert report.row_for(name, 0.0).score <= 1.0 + 1e-9
        exclude = {s.dmu: s.score for s in alphacut_scores(gt, 0.0)}
        for name, score in exclude.items():
            want = min(1.0, score)
            assert report.row_for(name, 0.0).score == pytest.approx(want, abs=1e-7)
