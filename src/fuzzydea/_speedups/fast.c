/* Compiled simplex kernel: module fuzzydea._speedups.fast.
 *
 * Twin of pure.py: the same operations in the same order on IEEE
 * doubles, so the two give bit-identical tableaus and results.  Build
 * it with -ffp-contract=off (setup.py does), or the compiler may fuse
 * f * row[j] and the subtraction into one rounding.  The arrays come in
 * through the buffer protocol, so no numpy headers are needed.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>

enum { OPTIMAL, UNBOUNDED, ITER_LIMIT, INFEASIBLE, BAD_DATA, /* as pure.py */
       PHASE1_UNBOUNDED, PHASE1_ITER_LIMIT };

/* A C-contiguous buffer: 2-D doubles if `tableau`, else 1-D int64.
 * Returns 0, or -1 with an exception set and no buffer held. */
static int
get_array(PyObject *obj, Py_buffer *view, int flags, int tableau,
          const char *name)
{
    const char *fmt;
    int ndim = tableau ? 2 : 1;

    if (PyObject_GetBuffer(obj, view,
                           flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    fmt = view->format + (view->format[0] == '@');
    if (view->ndim != ndim || view->itemsize != 8 || fmt[0] == '\0' ||
        fmt[1] != '\0' || strchr(tableau ? "d" : "lq", fmt[0]) == NULL) {
        PyErr_Format(PyExc_ValueError,
                     "%s must be a %d-D array of %s, got %d-D '%s' with "
                     "%zd-byte items", name, ndim,
                     tableau ? "float64" : "int64", view->ndim, view->format,
                     view->itemsize);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* One pivot on row lr, column ec of the first nrows rows and ncols
 * columns of T, whose rows lie `stride` doubles apart. */
static void
pivot(double *T, int64_t *basis, Py_ssize_t nrows, Py_ssize_t ncols,
      Py_ssize_t stride, Py_ssize_t lr, Py_ssize_t ec)
{
    double *row = T + lr * stride, *ri, piv = row[ec], f;
    Py_ssize_t i, j;

    for (j = 0; j < ncols; j++)
        row[j] /= piv;
    row[ec] = 1.0;
    for (i = 0; i < nrows; i++) {
        ri = T + i * stride;
        if (i == lr || (f = ri[ec]) == 0.0)
            continue;
        for (j = 0; j < ncols; j++)
            ri[j] -= f * row[j];
        ri[ec] = 0.0;
    }
    basis[lr] = ec;
}

/* Bland-rule pivots in place on T's first nrows rows (the last: reduced
 * costs) and ncols columns (the last: RHS); *iters counts the pivots. */
static int
run(double *T, int64_t *basis, Py_ssize_t nrows, Py_ssize_t ncols,
    Py_ssize_t stride, double tol, long long max_iter, long long *iters)
{
    Py_ssize_t m = nrows - 1, n = ncols - 1, ec, lr, i;
    double *obj = T + m * stride, a, r, best;

    while (*iters < max_iter) {
        /* Bland entering rule: least column with an improving reduced cost. */
        for (ec = 0; ec < n && !(obj[ec] < -tol); ec++)
            ;
        if (ec == n)
            return OPTIMAL;

        /* Ratio test; ties broken by least basic index (Bland leaving rule). */
        for (lr = -1, best = 0.0, i = 0; i < m; i++) {
            if (!((a = T[i * stride + ec]) > tol))
                continue;
            r = T[i * stride + n] / a;
            if (lr < 0 || r < best || (r == best && basis[i] < basis[lr])) {
                lr = i;
                best = r;
            }
        }
        if (lr < 0)
            return UNBOUNDED;
        pivot(T, basis, nrows, ncols, stride, lr, ec);
        (*iters)++;
    }
    return ITER_LIMIT;
}

/* The CCR LP at `level` in W, solved as linprog._simplex solves it; see
 * pure.ccr_solve.  Phase 2 keeps phase 1's row stride: the RHS moves into
 * the artificial's column and dropped rows move up.  Fills x[0..n) and
 * *value on OPTIMAL, else *value is the cap of the last phase run. */
static int
solve_ccr(const double *E, const double *M, double level, double *W,
          int64_t *basis, Py_ssize_t rows, Py_ssize_t cols, double tol,
          long long per_dim, double *value, double *x)
{
    Py_ssize_t k = rows - 3, n = cols - k - 2, art = n + k, m = k + 1;
    Py_ssize_t nz = 0, bad = 0, kept, i, j;
    const double *obj = W + (rows - 1) * cols;
    double a = 1.0 - level, f, *cost;
    long long iters1 = 0, iters2 = 0, cap;
    int status;

    /* toward_modal's formula; nz: W's nonzero entries less modal's */
    for (i = 0; i < rows * cols; i++) {
        if (E[i] == M[i])
            W[i] = M[i];
        else {
            nz -= M[i] != 0.0;  /* before W[i] is written: work may be modal */
            W[i] = a * E[i] + level * M[i];
            nz += W[i] != 0.0;
        }
        bad += !isfinite(W[i]);
    }
    if (nz != 0 || bad)
        return BAD_DATA;

    /* Phase 1 from the slack basis, the artificial basic in row 0. */
    basis[0] = art;
    for (i = 1; i < m; i++)
        basis[i] = n - 1 + i;
    cap = per_dim * (m + 1 + cols);
    status = run(W, basis, m + 1, cols, cols, tol, cap, &iters1);
    *value = (double)cap;
    if (status != OPTIMAL)
        return status == UNBOUNDED ? PHASE1_UNBOUNDED : PHASE1_ITER_LIMIT;
    if (W[m * cols + cols - 1] < -1e2 * tol)
        return INFEASIBLE;

    /* Pivot leftover basic artificials out, or drop their rows. */
    kept = 0;
    for (i = 0; i < m; i++) {
        if (basis[i] >= art) {
            for (j = 0; j < art; j++)
                if (fabs(W[i * cols + j]) > tol)
                    break;
            if (j == art)
                continue;
            pivot(W, basis, m + 1, cols, cols, i, j);
        }
        if (kept < i)
            memcpy(W + kept * cols, W + i * cols, cols * sizeof(double));
        basis[kept++] = basis[i];
    }
    m = kept;
    for (i = 0; i < m; i++)
        W[i * cols + art] = W[i * cols + cols - 1];

    /* Phase 2's reduced costs, in row m: the objective priced out. */
    cost = W + m * cols;
    for (j = 0; j <= art; j++)
        cost[j] = j < n ? -obj[j] : 0.0;
    for (i = 0; i < m; i++) {
        if (basis[i] >= n || (f = cost[basis[i]]) == 0.0)
            continue;
        for (j = 0; j <= art; j++)
            cost[j] -= f * W[i * cols + j];
        cost[basis[i]] = 0.0;
    }
    cap = per_dim * (m + 1 + art + 1);
    status = run(W, basis, m + 1, art + 1, cols, tol, cap, &iters2);
    *value = (double)cap;
    if (status != OPTIMAL)
        return status;
    memset(x, 0, n * sizeof(double));
    for (i = 0; i < m; i++)
        if (basis[i] < n)
            x[basis[i]] = W[i * cols + art];
    *value = 0.0;
    for (j = 0; j < n; j++)
        *value += obj[j] * x[j];
    return OPTIMAL;
}

PyDoc_STRVAR(pivot_loop_doc, "pivot_loop(T, basis, tol, max_iter) -> "
"(status, iterations)\n\nBland-rule pivots in place; see pure.pivot_loop.");

static PyObject *
pivot_loop(PyObject *self, PyObject *args)
{
    PyObject *T_obj, *basis_obj, *out = NULL;
    Py_buffer T, basis;
    double tol;
    long long max_iter, iters = 0;
    int status;

    if (!PyArg_ParseTuple(args, "OOdL:pivot_loop", &T_obj, &basis_obj, &tol,
                          &max_iter) ||
        get_array(T_obj, &T, PyBUF_WRITABLE, 1, "T") < 0)
        return NULL;
    if (get_array(basis_obj, &basis, PyBUF_WRITABLE, 0, "basis") < 0) {
        PyBuffer_Release(&T);
        return NULL;
    }
    if (basis.shape[0] != T.shape[0] - 1)
        PyErr_Format(PyExc_ValueError, "basis has %zd entries for %zd rows",
                     basis.shape[0], T.shape[0] - 1);
    else {
        status = run(T.buf, basis.buf, T.shape[0], T.shape[1], T.shape[1],
                     tol, max_iter, &iters);
        out = Py_BuildValue("iL", status, iters);
    }
    PyBuffer_Release(&basis);
    PyBuffer_Release(&T);
    return out;
}

PyDoc_STRVAR(ccr_solve_doc,
"ccr_solve(end, modal, level, work, basis, n_outputs, tol, iters_per_dim)\n"
"    -> (status, value, u, v)\n\n"
"One CCR multiplier LP at one data level; see pure.ccr_solve.");

static PyObject *
ccr_solve(PyObject *self, PyObject *args)
{
    static const char *names[4] = {"end", "modal", "work", "basis"};
    PyObject *obj[4], *out = NULL, *u = NULL, *v = NULL, *xj;
    Py_buffer buf[4];
    Py_ssize_t rows, cols, n, s, j;
    double level, tol, value = 0.0, *x = NULL;
    long long per_dim;
    int status, got;

    if (!PyArg_ParseTuple(args, "OOdOOndL:ccr_solve", &obj[0], &obj[1],
                          &level, &obj[2], &obj[3], &s, &tol, &per_dim))
        return NULL;
    for (got = 0; got < 4; got++)
        if (get_array(obj[got], &buf[got], got < 2 ? 0 : PyBUF_WRITABLE,
                      got < 3, names[got]) < 0)
            goto done;
    rows = buf[0].shape[0];
    cols = buf[0].shape[1];
    n = cols - rows + 1;  /* less rows - 3 slacks, an artificial, the RHS */
    if (buf[1].shape[0] != rows || buf[1].shape[1] != cols ||
        buf[2].shape[0] != rows || buf[2].shape[1] != cols || rows < 3 ||
        n < 1 || s < 0 || s > n || buf[3].shape[0] != rows - 2) {
        PyErr_Format(PyExc_ValueError, "no CCR tableau: end %zdx%zd, "
                     "modal %zdx%zd, work %zdx%zd, basis %zd, n_outputs %zd",
                     rows, cols, buf[1].shape[0], buf[1].shape[1],
                     buf[2].shape[0], buf[2].shape[1], buf[3].shape[0], s);
        goto done;
    }
    if ((x = PyMem_Malloc(n * sizeof(double))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    status = solve_ccr(buf[0].buf, buf[1].buf, level, buf[2].buf, buf[3].buf,
                       rows, cols, tol, per_dim, &value, x);
    if (status != OPTIMAL)
        out = Py_BuildValue("idOO", status, value, Py_None, Py_None);
    if (status != OPTIMAL || (u = PyTuple_New(s)) == NULL ||
        (v = PyTuple_New(n - s)) == NULL)
        goto done;
    for (j = 0; j < n; j++) {
        if ((xj = PyFloat_FromDouble(x[j])) == NULL)
            goto done;
        PyTuple_SET_ITEM(j < s ? u : v, j < s ? j : j - s, xj);
    }
    out = Py_BuildValue("idOO", status, value, u, v);
done:
    Py_XDECREF(u);
    Py_XDECREF(v);
    PyMem_Free(x);
    while (got-- > 0)
        PyBuffer_Release(&buf[got]);
    return out;
}

static PyMethodDef methods[] = {
    {"pivot_loop", pivot_loop, METH_VARARGS, pivot_loop_doc},
    {"ccr_solve", ccr_solve, METH_VARARGS, ccr_solve_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "fuzzydea._speedups.fast",
    "Compiled simplex kernel; twin of fuzzydea._speedups.pure.", -1, methods,
};

PyMODINIT_FUNC
PyInit_fast(void)
{
    return PyModule_Create(&module);
}
