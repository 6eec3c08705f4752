"""Independent oracles used to cross-check the solvers.

The LP oracle enumerates candidate vertices directly from constraint
intersections (no simplex machinery shared with the implementation);
the h* oracle is a plain grid scan of the target function.
"""

from itertools import combinations

import numpy as np

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
