"""Check one run's outputs and count its scores and failed operations.

An operation is one score: one DMU at one alpha level under one model
and policy (a compare row holds two).  The only operations allowed to
fail are the cells of the units slice in cli-fixtures: the fixtures
with their first input column in units 1e9 times larger, which must
score exactly as the unscaled fixtures do.  Anything else that goes
wrong is an error and makes the run incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import checks
from inputs import H_TOL


@dataclass
class Outcome:
    scores: int = 0  # per round
    failures: list = field(default_factory=list)  # per round
    errors: list = field(default_factory=list)


def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _without_format(argv):
    k = argv.index("--format")
    return tuple(argv[:k] + argv[k + 2:])


def _cli_settings(argv):
    policy = "include-self" if "--include-self" in argv else "exclude-self"
    return policy, _opt(argv, "--alpha-mode", "rescale"), _opt(argv, "--format")


def _check_rounds(res, out):
    first = res["rounds"][0]
    for k, r in enumerate(res["rounds"][1:], start=2):
        if r["digests"] != first["digests"]:
            out.errors.append(f"round {k} output differs from round 1")
    if res["trace"] is not None and res["trace"]["digests"] != first["digests"]:
        out.errors.append("traced round output differs from the untraced rounds")
    for k, r in enumerate(res["rounds"], start=1):
        if r["exit_codes"] != first["exit_codes"]:
            out.errors.append(f"round {k} exit codes differ from round 1")


def _check_report(ref, key, op, text, out, selftests):
    """Checks one csv/json cli report; returns its rows (None if unusable)."""
    policy, mode, fmt = _cli_settings(op["argv"])
    try:
        model, printed_policy, rows = checks.parse_rows(text, fmt)
    except (ValueError, KeyError) as exc:
        out.errors.append(f"{op['argv']}: unreadable report ({exc})")
        return None
    if printed_policy != policy or not rows:
        out.errors.append(f"{op['argv']}: policy {printed_policy!r}, {len(rows)} rows")
        return None
    out.errors += checks.report_errors(ref, key, model, rows, policy, mode, H_TOL)
    out.errors += checks.self_test(ref, key, model, rows, policy, mode, H_TOL)
    selftests.add("score")
    if model == "mo" and any(r["h_star"] < 0.999 for r in rows):
        selftests.add("h_star")
    return model, rows


def _n_scores(rows):
    return sum(1 + (r["mo_score"] is not None) for r in rows)


def verify_cli_fixtures(ops, res, ref, out, selftests):
    outputs = res["outputs"]
    codes = res["rounds"][0]["exit_codes"]
    parsed = {}  # argv without --format -> (model, rows), from csv/json
    md = {}
    units = []
    for k, op in enumerate(ops):
        if op.get("repeat"):
            original = ops.index({key: v for key, v in op.items() if key != "repeat"})
            if outputs[k] != outputs[original]:
                out.errors.append(f"repeated call {op['argv']} gave other bytes")
            continue
        if "units_of" in op:
            units.append(k)
            continue
        if codes[k] != 0:
            out.errors.append(f"{op['argv']} exited {codes[k]}: {res['stderr'][k].strip()}")
            continue
        fmt = _opt(op["argv"], "--format")
        group = _without_format(op["argv"])
        if fmt == "md":
            md[group] = outputs[k]
            continue
        got = _check_report(ref, op["data"], op, outputs[k], out, selftests)
        if got is None:
            continue
        if group in parsed and parsed[group][1] != got[1]:
            out.errors.append(f"{list(group)}: csv and json carry different numbers")
        parsed[group] = got

    for group, text in md.items():
        if group not in parsed:
            out.errors.append(f"{list(group)}: no csv/json report to compare md with")
            continue
        model, rows = parsed[group]
        policy = _cli_settings(list(group) + ["--format", "md"])[0]
        out.errors += [f"{list(group)}: {e}" for e in checks.md_errors(text, model, policy, rows)]

    # Each command runs in three formats; count its scores once per call.
    for op in ops:
        if "units_of" not in op and _without_format(op["argv"]) in parsed:
            out.scores += _n_scores(parsed[_without_format(op["argv"])][1])

    for group, (model, rows) in parsed.items():
        if model != "compare":
            continue
        mo_group = ("eval", "--model", "mo") + group[1:]
        mo = {(r["dmu"], r["alpha"]): r["score"] for r in parsed[mo_group][1]}
        for r in rows:
            if not checks.close(r["mo_score"], mo[(r["dmu"], r["alpha"])]):
                out.errors.append(f"compare {r['dmu']}@{r['alpha']}: mo column "
                                  f"{r['mo_score']!r} != eval mo {mo[(r['dmu'], r['alpha'])]!r}")

    for k in units:
        op = ops[k]
        argv = list(op["argv"])
        argv[argv.index("--data") + 1] = f"fixture:{op['units_of']}"
        want = parsed[_without_format(argv)][1]
        out.scores += _n_scores(want)
        got = {}
        if codes[k] == 0:
            _, _, rows = checks.parse_rows(outputs[k], "json")
            got = {(r["dmu"], r["alpha"]): r for r in rows}
        for r in want:
            cell = got.get((r["dmu"], r["alpha"]))
            if cell is None or not checks.same_cell(cell, r):
                out.failures.append(f"{' '.join(argv[:3])} {op['units_of']} x{1e9:g} "
                                    f"{r['dmu']}@{r['alpha']} "
                                    f"{'' if cell is None else cell['score']!r} vs {r['score']!r}")


def verify_mo_small_sets(ops, res, ref, out, selftests):
    codes = res["rounds"][0]["exit_codes"]
    for k, op in enumerate(ops):
        if codes[k] != 0:
            out.errors.append(f"{op['argv']} exited {codes[k]}: {res['stderr'][k].strip()}")
            continue
        got = _check_report(ref, op["data"], op, res["outputs"][k], out, selftests)
        if got is not None:
            out.scores += _n_scores(got[1])


def verify_alpha_large(ops, res, ref, out, selftests):
    for k, op in enumerate(ops):
        if op["kind"] != "alphacut":
            continue
        rows = [{"dmu": dmu, "alpha": op["alpha"], "score": score, "h_star": None,
                 "z_star": None, "mo_score": None, "rank": None}
                for dmu, score in json.loads(res["outputs"][k])]
        if len(rows) != len(ref.names(op["data"])):
            out.errors.append(f"alphacut {op['alpha']} {op['policy']}: {len(rows)} scores")
        out.errors += checks.report_errors(ref, op["data"], "alpha", rows, op["policy"],
                                           "rescale", H_TOL)
        out.errors += checks.self_test(ref, op["data"], "alpha", rows, op["policy"],
                                       "rescale", H_TOL)
        selftests.add("score")
        out.scores += len(rows)


def verify(workload, ops, res, ref):
    out = Outcome()
    _check_rounds(res, out)
    selftests = set()
    {
        "cli-fixtures": verify_cli_fixtures,
        "mo-small-sets": verify_mo_small_sets,
        "alpha-large": verify_alpha_large,
    }[workload](ops, res, ref, out, selftests)
    wanted = {"score"} | ({"h_star"} if workload != "alpha-large" else set())
    if selftests != wanted:
        out.errors.append(f"checker self-tests run: {sorted(selftests)}, "
                          f"expected {sorted(wanted)}")
    return out
