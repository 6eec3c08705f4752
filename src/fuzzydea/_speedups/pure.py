"""Pure-Python simplex pivot kernel.

Twin of the compiled kernel in fast.c: same operations in the same
order on IEEE doubles, so results are bit-identical between the two.
"""

__all__ = ["pivot_loop"]

# status codes shared with the compiled kernel
OPTIMAL = 0
UNBOUNDED = 1
ITER_LIMIT = 2


def pivot_loop(T_arr, basis_arr, tol, max_iter):
    """Run Bland-rule simplex pivots on a maximization tableau in place.

    T_arr: (m+1) x (n+1) float64 array; row m is the reduced-cost row,
    column n is the RHS.  basis_arr: int64 array of m basic column
    indices.  Returns (status, iterations).  Raises ValueError unless
    basis_arr has one entry per constraint row.
    """
    T = T_arr.tolist()
    basis = [int(b) for b in basis_arr]
    nrows = len(T)
    m = nrows - 1
    if len(basis) != m:
        raise ValueError(f"basis has {len(basis)} entries for {m} rows")
    ncols = len(T[0])
    n = ncols - 1
    obj = T[m]

    iters = 0
    status = ITER_LIMIT
    while iters < max_iter:
        # Bland entering rule: least column with an improving reduced cost.
        ec = -1
        for j in range(n):
            if obj[j] < -tol:
                ec = j
                break
        if ec < 0:
            status = OPTIMAL
            break

        # Ratio test; ties broken by least basic index (Bland leaving rule).
        lr = -1
        best = 0.0
        for i in range(m):
            a = T[i][ec]
            if a > tol:
                r = T[i][n] / a
                if lr < 0 or r < best or (r == best and basis[i] < basis[lr]):
                    lr = i
                    best = r
        if lr < 0:
            status = UNBOUNDED
            break

        row = T[lr]
        piv = row[ec]
        for j in range(ncols):
            row[j] /= piv
        row[ec] = 1.0
        for i in range(nrows):
            if i == lr:
                continue
            ri = T[i]
            f = ri[ec]
            if f != 0.0:
                for j in range(ncols):
                    ri[j] -= f * row[j]
                ri[ec] = 0.0
        basis[lr] = ec
        iters += 1

    T_arr[:] = T
    basis_arr[:] = basis
    return status, iters
