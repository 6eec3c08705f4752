"""Independent oracles used to cross-check the solvers and the loaders.

The LP oracle enumerates candidate vertices directly from constraint
intersections (no simplex machinery shared with the implementation);
the h* oracle is a plain grid scan of the target function.  The exact
CCR oracle solves the multiplier LP in rational arithmetic, so its
optimum carries no rounding at all.  The dataset
oracle is the per-cell loader that fuzzydea.dataio used before it filled
one buffer of doubles: an (l, m, u) triple checked per cell, a unit of
such triples per DMU, then the dataset's rules checked on those cells.
"""

import csv
import io
import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from fuzzydea.dataio import FuzzyDataset
from fuzzydea.errors import DataError, ParseError, SchemaError
from fuzzydea.mofdea import MoConfig, eff_at, z_star

BOX = 1e7  # artificial bound used to detect unbounded problems


def brute_force_lp(objective, rows, tol=1e-7):
    """Solve max objective @ x s.t. rows, x >= 0 by vertex enumeration.

    rows: sequence of (coefficients, relation, rhs) with relation in
    {"<=", "=", ">="}.  Only sensible for a handful of variables.
    Returns ("optimal", value, x), ("infeasible",) or ("unbounded",).
    """
    c = np.asarray(objective, dtype=float)
    n = c.size

    planes = []  # (normal, offset, kind): kind "=" must always be active
    checks = []  # (normal, relation, offset) feasibility tests
    for coeffs, rel, rhs in rows:
        a = np.asarray(coeffs, dtype=float)
        planes.append((a, float(rhs), rel))
        checks.append((a, rel, float(rhs)))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        planes.append((e, 0.0, ">="))
        checks.append((e, ">=", 0.0))
        planes.append((e, BOX, "<="))
        checks.append((e, "<=", BOX))

    forced = [k for k, (_, _, rel) in enumerate(planes) if rel == "="]
    optional = [k for k in range(len(planes)) if planes[k][2] != "="]
    if len(forced) > n:
        return ("infeasible",)

    best_val = None
    best_x = None
    for extra in combinations(optional, n - len(forced)):
        active = forced + list(extra)
        A = np.array([planes[k][0] for k in active])
        b = np.array([planes[k][1] for k in active])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        scale = 1.0 + float(np.max(np.abs(x)))
        ok = True
        for a, rel, rhs in checks:
            lhs = float(a @ x)
            slack = lhs - rhs
            if rel == "=" and abs(slack) > 1e-8 * scale:
                ok = False
                break
            if rel == "<=" and slack > 1e-8 * scale:
                ok = False
                break
            if rel == ">=" and slack < -1e-8 * scale:
                ok = False
                break
        if not ok:
            continue
        val = float(c @ x)
        if best_val is None or val > best_val:
            best_val = val
            best_x = x

    if best_val is None:
        return ("infeasible",)
    if np.any(best_x > BOX - 1.0):
        return ("unbounded",)
    return ("optimal", best_val, tuple(float(v) for v in best_x))


def reference_lp(inputs, outputs, p, exclude_self):
    """DMU p's CCR multiplier LP as (c, A, relations, rhs): u then v, row
    by row; inputs (m x n) and outputs (s x n) over n DMUs."""
    (m, n), s = inputs.shape, outputs.shape[0]
    peers = [j for j in range(n) if not (exclude_self and j == p)]
    c = np.zeros(s + m)
    c[:s] = outputs[:, p]
    A = np.zeros((1 + len(peers), s + m))
    A[0, s:] = inputs[:, p]
    A[1:, :s] = outputs[:, peers].T
    A[1:, s:] = -inputs[:, peers].T
    return c, A, ("=",) + ("<=",) * len(peers), (1.0,) + (0.0,) * len(peers)


def exact_ccr(inputs, outputs, p, exclude_self):
    """DMU p's CCR multiplier LP solved exactly: ("optimal", z, u, v) as
    Fractions, or ("unbounded",).

    inputs (m x n) and outputs (s x n) are floats over n DMUs, read as the
    exact rationals they hold.  The LP is max u @ y_p subject to
    v @ x_p = 1 and u @ y_j - v @ x_j + slack_j = 0 for each peer j, with
    u, v and the slacks >= 0.  On positive data, v_0 = 1 / x_0p with the
    slacks basic is a feasible start.  Bland's rule then enters the lowest
    column whose reduced cost is positive and breaks ratio ties by the
    lowest basic column; in exact arithmetic it cannot cycle (Bland 1977).
    """
    X = [[Fraction(float(x)) for x in row] for row in inputs]
    Y = [[Fraction(float(y)) for y in row] for row in outputs]
    (m, n), s = (len(X), len(X[0])), len(Y)
    peers = [j for j in range(n) if not (exclude_self and j == p)]
    width = s + m + len(peers)  # columns u, v, one slack per peer
    zero, one = Fraction(0), Fraction(1)
    rows = [[zero] * s + [X[i][p] for i in range(m)] + [zero] * len(peers) + [one]]
    for k, j in enumerate(peers):
        slack = [one if r == k else zero for r in range(len(peers))]
        rows.append([Y[r][j] for r in range(s)] + [-X[i][j] for i in range(m)] + slack + [zero])
    cost = [Y[r][p] for r in range(s)] + [zero] * (m + len(peers))
    basis = [s] + [s + m + k for k in range(len(peers))]

    def pivot(row, col):
        rows[row] = [a / rows[row][col] for a in rows[row]]
        for r, other in enumerate(rows):
            if r != row and other[col]:
                factor = other[col]
                rows[r] = [a - factor * b for a, b in zip(other, rows[row])]
        basis[row] = col

    pivot(0, s)
    while True:
        reduced = [cost[c] - sum(cost[b] * row[c] for b, row in zip(basis, rows))
                   for c in range(width)]
        enter = next((c for c in range(width) if reduced[c] > 0), None)
        if enter is None:
            break
        ratios = [(row[-1] / row[enter], b, r)
                  for r, (b, row) in enumerate(zip(basis, rows)) if row[enter] > 0]
        if not ratios:
            return ("unbounded",)
        pivot(min(ratios)[2], enter)
    x = [zero] * width
    for b, row in zip(basis, rows):
        x[b] = row[-1]
    return "optimal", sum(c * v for c, v in zip(cost, x)), tuple(x[:s]), tuple(x[s:s + m])


def ratio_efficiency(xs, ys, p):
    """IncludeSelf CCR for one input, one output: (y_p/x_p) / max_j y_j/x_j."""
    ratios = [y / x for x, y in zip(xs, ys)]
    return ratios[p] / max(ratios)


def grid_h_star(data, p, cfg=MoConfig(), steps=1000):
    """Largest grid point h in {0, 1/steps, ..., 1} with g(h) >= 0.

    g(h) = eff_at(h)/z* - h is non-increasing, so a single ascending
    scan that stops at the first sign change finds the maximizer.  z* is
    taken at the config's alpha and alpha mode, as solve_mo takes it.
    """
    z = z_star(data, p, cfg.policy, cfg.alpha, cfg.alpha_mode)
    last = 0.0
    for i in range(steps + 1):
        h = i / steps
        g = eff_at(data, p, h, cfg) / z - h
        if g >= 0.0:
            last = h
        else:
            break
    return last


# ---------------------------------------------------------------------------
# The per-cell dataset loader


def _dataset(name, input_names, output_names, dmus) -> FuzzyDataset:
    """FuzzyDataset(...) after the dataset's rules, checked on its cells in
    the order the per-cell loader checked them."""
    if not input_names:
        raise DataError("dataset needs at least one input coordinate")
    if not output_names:
        raise DataError("dataset needs at least one output coordinate")
    if not dmus:
        raise DataError("dataset has no DMUs")
    names = [dname for dname, _, _ in dmus]
    if "" in names:
        raise DataError("DMU names must not be empty")
    if len(set(names)) != len(names):
        raise DataError("DMU names must be unique")
    for dname, inputs, outputs in dmus:
        if len(inputs) != len(input_names):
            raise DataError(
                f"DMU {dname!r}: {len(inputs)} inputs, expected {len(input_names)}"
            )
        if len(outputs) != len(output_names):
            raise DataError(
                f"DMU {dname!r}: {len(outputs)} outputs, expected {len(output_names)}"
            )
        for label, items, coord_names in (
            ("input", inputs, input_names),
            ("output", outputs, output_names),
        ):
            for coord, (lower, _, _) in zip(coord_names, items):
                if lower <= 0.0:
                    raise DataError(
                        f"DMU {dname!r} {label} {coord!r}: bounds must be "
                        f"strictly positive, got lower bound {lower}"
                    )
    return FuzzyDataset(name, input_names, output_names, dmus)


def _tri_from_cell(value, where):
    number = {int, float}
    if type(value) in number:
        value = (value, value, value)
    elif not isinstance(value, (list, tuple)):
        raise SchemaError(f"{where()}: expected a number or [l, m, u], got {value!r}")
    elif len(value) != 3 or not set(map(type, value)) <= number:
        raise SchemaError(f"{where()}: expected [l, m, u] numbers, got {value!r}")
    return _tri(value, where)


def _tri(values, where):
    """(l, m, u), the floats of three numbers or number texts, or DataError
    or ParseError naming the cell where() unless they are finite and in
    order."""
    try:
        tri = tuple(map(float, values))
    except OverflowError:
        raise DataError(f"{where()}: integer too large for a float") from None
    except ValueError:  # a text that is not a number
        for text in values:
            try:
                float(text)
            except ValueError:
                raise ParseError(f"{where()}: not a number: {text!r}") from None
    if not all(map(math.isfinite, tri)):
        raise DataError(f"{where()}: triangular bounds must be finite, got {tri}")
    if not tri[0] <= tri[1] <= tri[2]:
        raise DataError(f"{where()}: triangular bounds out of order: {tri}")
    return tri


def _dataset_from_json(raw: str) -> FuzzyDataset:
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # also an integer past int()'s digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    for key, kind in (("inputs", list), ("outputs", list), ("dmus", list)):
        if key not in doc:
            raise SchemaError(f"missing top-level key {key!r}")
        if not isinstance(doc[key], kind):
            raise SchemaError(f"{key!r} must be an array")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise SchemaError("'name' must be a string")
    for key in ("inputs", "outputs"):
        if not all(isinstance(v, str) for v in doc[key]):
            raise SchemaError(f"{key!r} must be an array of strings")

    dmus = []
    for k, entry in enumerate(doc["dmus"]):
        if not isinstance(entry, dict):
            raise SchemaError(f"dmus[{k}] must be an object")
        if "name" not in entry or not isinstance(entry["name"], str):
            raise SchemaError(f"dmus[{k}] needs a string 'name'")
        dname = entry["name"]
        cells = {}
        for key in ("inputs", "outputs"):
            if key not in entry or not isinstance(entry[key], list):
                raise SchemaError(f"dmus[{k}] ({dname!r}) needs an array {key!r}")
            cells[key] = tuple(
                _tri_from_cell(v, lambda: f"DMU {dname!r} {key}[{i}]")
                for i, v in enumerate(entry[key])
            )
        dmus.append((dname, cells["inputs"], cells["outputs"]))
    return _dataset(name, tuple(doc["inputs"]), tuple(doc["outputs"]), tuple(dmus))


def _tri_from_csv_cell(text: str, where):
    text = text.strip()
    if not text:
        raise ParseError(f"{where()}: empty cell")
    parts = text.split(";")
    if len(parts) == 1:
        parts *= 3
    elif len(parts) != 3:
        raise ParseError(f"{where()}: expected 'l;m;u' or a single number, got {text!r}")
    return _tri(parts, where)


def _dataset_from_csv(raw: str) -> FuzzyDataset:
    name = ""
    lines = raw.splitlines()
    body_start = 0
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("#"):
            comment = stripped.lstrip("#").strip()
            if comment.startswith("name="):
                name = comment[len("name=") :].strip()
            body_start += 1
        elif stripped == "":
            body_start += 1
        else:
            break
    reader = csv.reader(io.StringIO("\n".join(lines[body_start:])))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("CSV has no header row") from None
    if not header or header[0].strip() != "dmu":
        raise SchemaError("CSV header must start with a 'dmu' column")

    input_names, output_names = [], []
    for col in header[1:]:
        col = col.strip()
        if col.startswith("in:"):
            if output_names:
                raise SchemaError("input columns must precede output columns")
            input_names.append(col[3:])
        elif col.startswith("out:"):
            output_names.append(col[4:])
        else:
            raise SchemaError(f"CSV column {col!r} must be prefixed 'in:' or 'out:'")

    dmus = []
    n_cols = len(header)
    for rownum, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != n_cols:
            raise SchemaError(f"row {rownum}: {len(row)} cells, header has {n_cols}")
        dname = row[0].strip()
        if not dname:
            raise SchemaError(f"row {rownum}: empty DMU name")
        tris = [
            _tri_from_csv_cell(cell, lambda: f"row {rownum} ({dname!r}) column {col!r}")
            for col, cell in zip(header[1:], row[1:])
        ]
        k = len(input_names)
        dmus.append((dname, tuple(tris[:k]), tuple(tris[k:])))
    return _dataset(name, tuple(input_names), tuple(output_names), tuple(dmus))
