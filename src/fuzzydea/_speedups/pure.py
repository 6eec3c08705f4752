"""Pure-Python simplex kernel.

Twin of the compiled kernel in fast.c: the same operations in the same
order on IEEE doubles, so tableaus and results are bit-identical
between the two.  pivot_loop serves linprog's general simplex;
ccr_solve solves one CCR multiplier LP, from its data level to its
weights, in one call.
"""

import math

__all__ = ["pivot_loop", "ccr_solve"]

# status codes shared with the compiled kernel
OPTIMAL = 0
UNBOUNDED = 1
ITER_LIMIT = 2
INFEASIBLE = 3
BAD_DATA = 4
PHASE1_UNBOUNDED = 5
PHASE1_ITER_LIMIT = 6


def _pivot(T, basis, nrows, ncols, lr, ec):
    """One pivot on row lr, column ec of rows T[:nrows], columns [:ncols]."""
    row = T[lr]
    piv = row[ec]
    for j in range(ncols):
        row[j] /= piv
    row[ec] = 1.0
    for i in range(nrows):
        ri = T[i]
        if i == lr:
            continue
        f = ri[ec]
        if f == 0.0:
            continue
        for j in range(ncols):
            ri[j] -= f * row[j]
        ri[ec] = 0.0
    basis[lr] = ec


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
        _pivot(T, basis, nrows, ncols, lr, ec)
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


def _solve_ccr(E, M, level, W, basis, rows, cols, tol, per_dim):
    """fast.c's solve_ccr on lists: (status, value, x); see ccr_solve."""
    k = rows - 3
    n = cols - k - 2
    art = n + k
    m = k + 1
    obj = W[rows - 1]
    a = 1.0 - level

    # toward_modal's formula; nz: W's nonzero entries less modal's.
    nz = bad = 0
    for i in range(rows):
        Ei, Mi, Wi = E[i], M[i], W[i]
        for j in range(cols):
            if Ei[j] == Mi[j]:
                Wi[j] = Mi[j]
            else:
                nz -= Mi[j] != 0.0
                Wi[j] = a * Ei[j] + level * Mi[j]
                nz += Wi[j] != 0.0
            bad += not math.isfinite(Wi[j])
    if nz != 0 or bad:
        return BAD_DATA, 0.0, None

    # Phase 1 from the slack basis, the artificial basic in row 0.
    basis[0] = art
    for i in range(1, m):
        basis[i] = n - 1 + i
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

    # Pivot leftover basic artificials out, or drop their rows.
    kept = 0
    for i in range(m):
        if basis[i] >= art:
            j = 0
            while j < art and not abs(W[i][j]) > tol:
                j += 1
            if j == art:
                continue
            _pivot(W, basis, m + 1, cols, i, j)
        if kept < i:
            W[kept][:] = W[i]
        basis[kept] = basis[i]
        kept += 1
    m = kept
    for i in range(m):
        W[i][art] = W[i][cols - 1]

    # Phase 2's reduced costs, in row m: the objective priced out.
    cost = W[m]
    for j in range(art + 1):
        cost[j] = -obj[j] if j < n else 0.0
    for i in range(m):
        b = basis[i]
        if b >= n:
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

    x = [0.0] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = W[i][art]
    value = 0.0
    for j in range(n):
        value += obj[j] * x[j]
    return OPTIMAL, value, x


def ccr_solve(end, modal, level, work, basis_arr, n_outputs, tol, iters_per_dim):
    """Solve a CCR multiplier LP at one data level, as linprog._simplex does.

    end and modal are the starting tableaus (ccr._multiplier_tableau's
    layout, k + 3 rows by n + k + 2 columns for k peers and n = s + m
    multipliers) of the data at level 0 and 1.  work (same shape; it may
    be end or modal itself) and basis_arr (k + 1 int64 entries) are
    overwritten: work with
    toward_modal(end, modal, level) and then the simplex's tableaus,
    basis_arr with its basis.  The data check is that work has as many
    nonzero entries as modal and none that is not finite.  Phase 1
    runs from the slack basis with the artificial basic in row 0, then
    basic artificials are pivoted out (or their rows dropped), and
    phase 2 runs on the objective, the last row; each phase may pivot
    iters_per_dim * (rows + columns) times for its own tableau's shape.

    Returns (status, value, u, v): on OPTIMAL the optimum and the
    weights of the n_outputs outputs and of the inputs, as tuples;
    otherwise u and v are None and value is the iteration cap of the
    last phase run (0.0 for BAD_DATA).  Raises ValueError unless the
    shapes fit that layout.
    """
    rows, cols = end.shape if end.ndim == 2 else (0, 0)
    n = cols - rows + 1  # less rows - 3 slacks, an artificial, the RHS
    if (
        modal.shape != (rows, cols)
        or work.shape != (rows, cols)
        or rows < 3
        or n < 1
        or not 0 <= n_outputs <= n
        or basis_arr.shape != (rows - 2,)
    ):
        raise ValueError(
            f"no CCR tableau: end {end.shape}, modal {modal.shape}, work "
            f"{work.shape}, basis {basis_arr.shape}, n_outputs {n_outputs}"
        )
    W = work.tolist()
    basis = basis_arr.tolist()
    status, value, x = _solve_ccr(
        end.tolist(), modal.tolist(), float(level), W, basis, rows, cols,
        tol, iters_per_dim,
    )
    work[:] = W
    basis_arr[:] = basis
    if x is None:
        return status, value, None, None
    return status, value, tuple(x[:n_outputs]), tuple(x[n_outputs:])
