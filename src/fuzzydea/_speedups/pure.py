"""Pure-Python simplex kernel.

mo_solve is the twin of the compiled kernel's one entry in fast.c: the
same operations in the same order on IEEE doubles, so tableaus and
results are bit-identical between the two.  It solves a DMU's CCR
multiplier LPs, from their data at a level to their weights, writing
each LP's tableau itself, and runs the mo model's whole root search on
them.  pivot_loop, which has no compiled twin, serves linprog's general
simplex.
"""

import math

__all__ = ["KERNEL_API", "pivot_loop", "mo_solve"]

# mo_solve's interface; fast.c exports the same number, and a compiled
# module with another is not used.  Raised whenever mo_solve changes.
KERNEL_API = 6

# status codes shared with the compiled kernel; mo_solve reports the
# first that is not OPTIMAL, and ccr._raise turns it into an error
OPTIMAL = 0
UNBOUNDED = 1
ITER_LIMIT = 2
INFEASIBLE = 3
BAD_DATA = 4
PHASE1_UNBOUNDED = 5
PHASE1_ITER_LIMIT = 6
DEGENERATE = 7  # an ideal score z* too small for the ratio target


def _run(T, basis, nrows, ncols, tol, max_iter):
    """Bland-rule pivots on rows T[:nrows], columns [:ncols], in place.

    Row nrows - 1 is the reduced-cost row, column ncols - 1 the RHS.
    Returns (status, iterations).
    """
    m, n = nrows - 1, ncols - 1
    obj = T[m]
    iters = 0
    while iters < max_iter:
        # Bland entering rule: least column with an improving reduced cost.
        ec = 0
        while ec < n and not obj[ec] < -tol:
            ec += 1
        if ec == n:
            return OPTIMAL, iters

        # Ratio test; ties broken by least basic index (Bland leaving rule).
        lr = -1
        best = 0.0
        for i in range(m):
            a = T[i][ec]
            if not a > tol:
                continue
            r = T[i][n] / a
            if lr < 0 or r < best or (r == best and basis[i] < basis[lr]):
                lr = i
                best = r
        if lr < 0:
            return UNBOUNDED, iters

        # Pivot on row lr, column ec.
        row = T[lr]
        a = row[ec]
        for j in range(ncols):
            row[j] /= a
        row[ec] = 1.0
        for i in range(nrows):
            ri = T[i]
            if i == lr:
                continue
            a = ri[ec]
            if a == 0.0:
                continue
            for j in range(ncols):
                ri[j] -= a * row[j]
            ri[ec] = 0.0
        basis[lr] = ec
        iters += 1
    return ITER_LIMIT, iters


def pivot_loop(T_arr, basis_arr, tol, max_iter):
    """Run Bland-rule simplex pivots on a maximization tableau in place.

    T_arr: (m+1) x (n+1) float64 array; row m is the reduced-cost row,
    column n is the RHS.  basis_arr: int64 array of m basic column
    indices.  Returns (status, iterations).  Raises ValueError unless
    basis_arr has one entry per constraint row.
    """
    T = T_arr.tolist()
    basis = [int(b) for b in basis_arr]
    if len(basis) != len(T) - 1:
        raise ValueError(f"basis has {len(basis)} entries for {len(T) - 1} rows")
    status, iters = _run(T, basis, len(T), len(T[0]), tol, max_iter)
    T_arr[:] = T
    basis_arr[:] = basis
    return status, iters


def _solve_ccr(L, M, H, level, s, p, exclude, W, basis, tol, per_dim):
    """fast.c's solve_ccr on lists: (status, value, x); see mo_solve."""
    R, N = len(M), len(M[0])
    k = N - exclude
    m = k + 1
    art = R + k
    cols = art + 2
    obj = W[m + 1]
    a = 1.0 - level

    # linprog._tableau's layout, W zero to start with; see fast.c.
    W[0][art] = W[0][art + 1] = 1.0
    W[m][cols - 1] = -1.0
    for i in range(1, m):
        W[i][R - 1 + i] = 1.0
    for r in range(R):
        c = s + r if r < R - s else r - (R - s)
        # p takes low inputs and high outputs, its peers the other ends
        own, peer, Mr = (L[r], H[r], M[r]) if r < R - s else (H[r], L[r], M[r])
        for j in range(N):
            e = own[j] if j == p else peer[j]
            # toward_modal's formula: a side without spread stays modal.
            w = Mr[j] if e == Mr[j] else a * e + level * Mr[j]
            if w == 0.0 or not math.isfinite(w):
                return BAD_DATA, 0.0, None
            if j == p:
                if c < s:
                    obj[c] = w
                else:
                    W[0][c] = w
                    W[m][c] = -w
                if exclude:
                    continue
            W[j + 1 - (exclude and j > p)][c] = w if c < s else -w

    # Phase 1 from the slack basis, the artificial basic in row 0; see
    # fast.c for why no artificial is left to purge after it.
    basis[0] = art
    for i in range(1, m):
        basis[i] = R - 1 + i
    cap = per_dim * (m + 1 + cols)
    status, _ = _run(W, basis, m + 1, cols, tol, cap)
    if status != OPTIMAL:
        return (
            PHASE1_UNBOUNDED if status == UNBOUNDED else PHASE1_ITER_LIMIT,
            float(cap),
            None,
        )
    if W[m][cols - 1] < -1e2 * tol:
        return INFEASIBLE, float(cap), None
    for i in range(m):
        W[i][art] = W[i][cols - 1]

    # Phase 2's reduced costs, in row m: the objective priced out.
    cost = W[m]
    for j in range(art + 1):
        cost[j] = -obj[j] if j < R else 0.0
    for i in range(m):
        b = basis[i]
        if b >= R:
            continue
        f = cost[b]
        if f == 0.0:
            continue
        Wi = W[i]
        for j in range(art + 1):
            cost[j] -= f * Wi[j]
        cost[b] = 0.0
    cap = per_dim * (m + 1 + art + 1)
    status, _ = _run(W, basis, m + 1, art + 1, tol, cap)
    if status != OPTIMAL:
        return status, float(cap), None

    x = [0.0] * R
    for i in range(m):
        if basis[i] < R:
            x[basis[i]] = W[i][art]
    value = 0.0
    for j in range(R):
        value += obj[j] * x[j]
    return OPTIMAL, value, x


def _beta(h, alpha, rescale):
    """mofdea.beta_level's data level at satisfaction h, unchecked."""
    return alpha + (1.0 - alpha) * h if rescale else (h if h > alpha else alpha)


class _Failed(Exception):
    """mo_solve's failure, its args (status, level, value)."""


def mo_solve(
    low, modal, high, p, exclude_self, work, basis_arr, n_outputs, tol,
    iters_per_dim, max_probes, cfgs, levels,
):
    """DMU p's CCR multiplier LPs, each solved as linprog._simplex
    solves it: mofdea.solve_mo's root search under each config, then the
    LP at each of levels, in one call that solves each data level once.

    low, modal and high are m + s rows (the inputs, then the n_outputs
    outputs) by N DMUs: a FuzzyDataset's bounds, or one crisp array
    thrice.  A cell's end is low where "the row is an input" equals "the
    DMU is p", else high, as in alphacut.reduce_at.  toward_modal's
    formula blends it to a level (an end equal to modal stays exactly
    modal), and each cell must come out finite and nonzero.
    The LP has k = N - exclude_self peers: every DMU, less p itself
    when exclude_self is true.

    Each LP writes into work (k + 3 by m + s + k + 2) its starting
    tableau, entry for entry the one linprog._tableau builds (columns
    u, v, one slack per peer, the artificial, the RHS; rows v @ x_p = 1,
    one u @ y_j - v @ x_j <= 0 per peer, the phase-1 reduced costs, the
    objective), then the simplex's tableaus, and its basis into
    basis_arr (k + 1 int64 entries); both are left as the last LP left
    them.  Phase 1 runs from the slack basis with the artificial basic
    in row 0 (fast.c says why no artificial is left to purge), then
    phase 2 on the objective.  Each phase may pivot
    iters_per_dim * (rows + columns) times for its own tableau's shape.

    A config is (alpha, rescale, h_tol), rescale true in the "rescale"
    alpha mode.  After z* and the probes at h = 1 and 0, a search makes
    at most max_probes more.

    Returns (found, effs, solved, failure): per config (h*, efficiency,
    z*, u, v, iterations), u and v the output and input weights as
    tuples; per level (optimum, u, v); the level of every LP run, in
    order; and None or the first failure, which ends the call:
    (status, level, value) for an LP that did not end OPTIMAL, value the
    iteration cap of its last phase (0.0 for BAD_DATA), or (DEGENERATE,
    level, z*) for z* <= tol.  ccr._raise turns it into an error.
    Raises ValueError unless the shapes fit.
    """
    R, N = modal.shape if modal.ndim == 2 else (0, 0)
    k = N - bool(exclude_self)
    if (
        {low.shape, high.shape} != {(R, N)}
        or R < 1
        or N < 1
        or not 0 <= p < N
        or not 0 <= n_outputs <= R
        or work.shape != (k + 3, R + k + 2)
        or basis_arr.shape != (k + 1,)
    ):
        raise ValueError(
            f"no CCR LP: low {low.shape}, modal {modal.shape}, high {high.shape}, "
            f"p {p}, work {work.shape}, basis {basis_arr.shape}, n_outputs {n_outputs}"
        )
    L, M, H, exclude = low.tolist(), modal.tolist(), high.tolist(), bool(exclude_self)
    basis, W = basis_arr.tolist(), None
    cache, solved, found, effs, failure = {}, [], [], [], None

    def lp(level):
        """(optimum, u, v) at level, solved on its first request."""
        nonlocal W
        if level not in cache:
            W = [[0.0] * (R + k + 2) for _ in range(k + 3)]
            solved.append(level)
            status, value, x = _solve_ccr(
                L, M, H, level, n_outputs, p, exclude, W, basis, tol, iters_per_dim
            )
            if status != OPTIMAL:
                raise _Failed(status, level, value)
            cache[level] = value, tuple(x[:n_outputs]), tuple(x[n_outputs:])
        return cache[level]

    def search(alpha, rescale, h_tol):
        """The config's entry of found, as mofdea.solve_mo describes it."""
        ideal = alpha if rescale else 0.0
        z = lp(ideal)[0]
        if z <= tol:
            raise _Failed(DEGENERATE, ideal, z)
        probed = {ideal}  # the levels this config used

        def probe(h):
            level = _beta(h, alpha, rescale)
            probed.add(level)
            got = lp(level)
            return got, got[0] / z - h

        h = 1.0
        got, g_hi = probe(h)
        start = len(probed)
        if not g_hi >= 0.0:
            lo, hi, g_lo = 0.0, 1.0, probe(0.0)[1]
            moved = 0  # +1: lo moved last, -1: hi moved last
            for _ in range(max_probes):
                h = lo - g_lo * (hi - lo) / (g_hi - g_lo)
                if not lo < h < hi:
                    h = 0.5 * (lo + hi)
                got, g = probe(h)
                if abs(g) <= h_tol:
                    break
                if g > 0.0:
                    lo, g_lo = h, g
                    if moved > 0:
                        g_hi *= 0.5
                    moved = 1
                else:
                    hi, g_hi = h, g
                    if moved < 0:
                        g_lo *= 0.5
                    moved = -1
        value, u, v = got
        return h, value, z, u, v, len(probed) - start

    try:
        for alpha, rescale, h_tol in cfgs:
            found.append(search(float(alpha), bool(rescale), float(h_tol)))
        for level in levels:
            effs.append(lp(float(level)))
    except _Failed as exc:
        failure = exc.args
    if W is not None:
        work[:] = W
        basis_arr[:] = basis
    return tuple(found), tuple(effs), tuple(solved), failure
