"""Correctness checks that share no code with fuzzydea.

Scores are recomputed from the raw triples: the benchmark reduces each
cell to (1 - beta) * end + beta * modal itself, the evaluated DMU at its
favourable end (low inputs, high outputs) and its peers at the other
end, and solves the CCR multiplier LP with scipy's HiGHS.  mo cells are
checked against properties the method must have rather than a copy of
any earlier output.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np
from scipy.optimize import linprog

# Relative agreement demanded between a printed score and HiGHS.  The
# two solvers agree to about 1e-13 on these data; a score off by 1e-6
# must still be rejected, which the self-test below confirms.
REL_TOL = 1e-8
MD_TOL = 0.5e-4 + 1e-12  # md reports print 4 decimals


def close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def beta_of(h, alpha, mode):
    """Membership level of the data at satisfaction h (the mo model's β)."""
    if mode == "rescale":
        return alpha + (1.0 - alpha) * h
    return max(alpha, h)


class Reference:
    """HiGHS CCR scores on the benchmark's own reduction of each dataset."""

    def __init__(self, datasets):
        self._arrays = {}
        for key, doc in datasets.items():
            cells = [[d["inputs"][i] for d in doc["dmus"]] for i in range(len(doc["inputs"]))]
            outs = [[d["outputs"][r] for d in doc["dmus"]] for r in range(len(doc["outputs"]))]
            # shape (3, rows, n): lower, modal, upper
            self._arrays[key] = (
                np.transpose(np.array(cells, dtype=float), (2, 0, 1)),
                np.transpose(np.array(outs, dtype=float), (2, 0, 1)),
                [d["name"] for d in doc["dmus"]],
            )
        self._cache = {}

    def names(self, key):
        return self._arrays[key][2]

    def score(self, key, p, beta, policy):
        """CCR multiplier score of DMU p at level beta under the policy."""
        ck = (key, p, beta, policy)
        if ck not in self._cache:
            self._cache[ck] = self._solve(key, p, beta, policy)
        return self._cache[ck]

    def _solve(self, key, p, beta, policy):
        x3, y3, names = self._arrays[key]
        keep = 1.0 - beta
        x = keep * x3[2] + beta * x3[1]  # peers: high inputs
        y = keep * y3[0] + beta * y3[1]  # peers: low outputs
        x[:, p] = keep * x3[0][:, p] + beta * x3[1][:, p]
        y[:, p] = keep * y3[2][:, p] + beta * y3[1][:, p]
        s, m = y.shape[0], x.shape[0]
        peers = [j for j in range(len(names)) if policy == "include-self" or j != p]
        a_ub = np.hstack([y[:, peers].T, -x[:, peers].T])
        a_eq = np.concatenate([np.zeros(s), x[:, p]])[None, :]
        c = np.concatenate([-y[:, p], np.zeros(m)])
        res = linprog(c, A_ub=a_ub, b_ub=np.zeros(len(peers)), A_eq=a_eq, b_eq=[1.0],
                      bounds=(0, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"HiGHS: {key} DMU {names[p]} beta={beta}: {res.message}")
        return -res.fun


# --- report parsing ------------------------------------------------------


def _num(text):
    return None if text == "" else float(text)


def parse_rows(text, fmt):
    """(model, policy, rows) of a csv or json report; rows are dicts."""
    if fmt == "json":
        doc = json.loads(text)
        rows = [{"dmu": r["dmu"], "alpha": float(r["alpha"]), "score": float(r["score"]),
                 "h_star": r.get("h_star"), "z_star": r.get("z_star"),
                 "mo_score": r.get("mo_score"), "rank": r.get("rank")}
                for r in doc["rows"]]
        return doc["model"], doc["policy"], rows
    rows, model, policy = [], None, None
    for r in csv.DictReader(io.StringIO(text)):
        model, policy = r["model"], r["policy"]
        rows.append({"dmu": r["dmu"], "alpha": float(r["alpha"]), "score": float(r["score"]),
                     "h_star": _num(r["h_star"]), "z_star": _num(r["z_star"]),
                     "mo_score": _num(r["mo_score"]),
                     "rank": None if r["rank"] == "" else int(r["rank"])})
    return model, policy, rows


def md_errors(text, model, policy, rows):
    """Differences between an md report and the full-precision rows."""
    lines = text.splitlines()
    errs = []
    if lines[:3] != [f"# {model} report", "", f"policy: {policy}"]:
        errs.append(f"md header {lines[:3]!r}")
    table = [[c.strip() for c in ln.strip().strip("|").split("|")]
             for ln in lines if ln.startswith("|")][2:]
    by_cell = {(r["dmu"], r["alpha"]): r for r in rows}
    expect = []  # (md text, value)
    if model == "compare":
        for cells, r in zip(table, rows):
            expect += [(cells[2], r["score"]), (cells[3], r["mo_score"]),
                       (cells[4], r["score"] - r["mo_score"])]
            if cells[1] != r["dmu"]:
                errs.append(f"md row {cells} for {r['dmu']}")
    elif model in ("ccr", "zstar"):
        for cells, r in zip(table, rows):
            expect.append((cells[1], r["score"]))
            if cells[0] != r["dmu"]:
                errs.append(f"md row {cells} for {r['dmu']}")
    else:
        header = [c.strip() for c in lines[4].strip().strip("|").split("|")][1:]
        alphas = sorted({r["alpha"] for r in rows})
        for cells, a in zip(table, alphas):
            for dmu, text_ in zip(header, cells[1:]):
                expect.append((text_, by_cell[(dmu, a)]["score"]))
    n_rows = len({r["alpha"] for r in rows}) if model in ("alpha", "mo") else len(rows)
    if len(table) != n_rows:
        errs.append(f"md table has {len(table)} rows, expected {n_rows}")
    for text_, value in expect:
        if abs(float(text_) - value) > MD_TOL:
            errs.append(f"md cell {text_} for {value!r}")
    return errs


# --- score checks --------------------------------------------------------


def score_errors(ref, key, rows, beta_of_alpha, policy):
    """Each row's score against HiGHS at the level beta_of_alpha(alpha)."""
    names = ref.names(key)
    errs = []
    for r in rows:
        want = ref.score(key, names.index(r["dmu"]), beta_of_alpha(r["alpha"]), policy)
        if not close(r["score"], want):
            errs.append(f"{key} {r['dmu']}@{r['alpha']}: {r['score']!r} != HiGHS {want!r}")
    return errs


def mo_errors(ref, key, rows, policy, mode, h_tol):
    """Properties every mo cell must have; rows of one report, all alphas."""
    names = ref.names(key)
    errs = []
    for r in rows:
        p, a, h, eff, z = names.index(r["dmu"]), r["alpha"], r["h_star"], r["score"], r["z_star"]
        where = f"{key} {r['dmu']}@{a} ({mode}, {policy})"
        if not 0.0 <= h <= 1.0:
            errs.append(f"{where}: h* {h!r} outside [0, 1]")
            continue
        z_want = ref.score(key, p, a if mode == "rescale" else 0.0, policy)
        if not close(z, z_want):
            errs.append(f"{where}: z* {z!r} != HiGHS {z_want!r}")
        eff_want = ref.score(key, p, beta_of(h, a, mode), policy)
        if not close(eff, eff_want):
            errs.append(f"{where}: eff {eff!r} != HiGHS {eff_want!r} at h*={h!r}")
        if h < 1.0 and abs(eff / z - h) > 5.0 * h_tol:
            errs.append(f"{where}: eff/z* - h* = {eff / z - h:.3g}, not a root")
        if h == 1.0 and not eff >= z * (1.0 - REL_TOL):
            errs.append(f"{where}: h* = 1 but eff {eff!r} < z* {z!r}")
        cut = ref.score(key, p, a, policy)
        if not eff <= cut * (1.0 + REL_TOL):
            errs.append(f"{where}: eff {eff!r} above the alpha-cut score {cut!r}")
    for a in sorted({r["alpha"] for r in rows}):
        level = [r for r in rows if r["alpha"] == a]
        order = sorted(range(len(level)), key=lambda j: (-level[j]["score"],
                                                         -level[j]["h_star"],
                                                         names.index(level[j]["dmu"])))
        for pos, j in enumerate(order):
            if level[j]["rank"] != pos + 1:
                errs.append(f"{key} {level[j]['dmu']}@{a}: rank {level[j]['rank']} != {pos + 1}")
    return errs


def report_errors(ref, key, model, rows, policy, mode, h_tol):
    """Checks for one full-precision report of any model."""
    if model == "ccr":
        return score_errors(ref, key, rows, lambda a: 1.0, policy)
    if model == "zstar":
        return score_errors(ref, key, rows, lambda a: 0.0, policy)
    if model in ("alpha", "compare"):
        return score_errors(ref, key, rows, lambda a: a, policy)
    if model == "mo":
        return mo_errors(ref, key, rows, policy, mode, h_tol)
    return [f"unknown model {model!r}"]


def self_test(ref, key, model, rows, policy, mode, h_tol):
    """Errors if the checks would accept a perturbed score or a moved h*."""
    fails = []
    bad = [dict(rows[0], score=rows[0]["score"] * (1.0 + 1e-6))] + rows[1:]
    if not report_errors(ref, key, model, bad, policy, mode, h_tol):
        fails.append(f"self-test: a score off by 1e-6 passed ({key}, {model})")
    if model == "mo":
        k = next((i for i, r in enumerate(rows) if r["h_star"] < 0.999), None)
        if k is not None:
            moved = list(rows)
            moved[k] = dict(rows[k], h_star=rows[k]["h_star"] + 1e-4)
            if not report_errors(ref, key, model, moved, policy, mode, h_tol):
                fails.append(f"self-test: an h* moved off the root passed ({key})")
    return fails


def same_cell(a, b):
    return all(
        (a[f] is None and b[f] is None) or (a[f] is not None and b[f] is not None
                                            and close(a[f], b[f]))
        for f in ("score", "h_star", "z_star")
    )
