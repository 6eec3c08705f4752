/* Compiled simplex kernel: module fuzzydea._speedups.fast.
 *
 * Twin of pure.py's mo_solve: the same operations in the same order on
 * IEEE doubles, so the two give bit-identical tableaus and results.
 * Build it with -ffp-contract=off (setup.py does), or the compiler may
 * fuse f * row[j] and the subtraction into one rounding.  The arrays
 * come in through the buffer protocol, so no numpy headers are needed.
 * mo_solve, the one entry, reads a dataset's low, modal and high arrays as
 * they are, blends each CCR LP cell to a level from the end its DMU takes,
 * writes and solves the LP's tableau, and runs one DMU's mo root searches
 * on those LPs, or solves the LPs at a list of levels.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>

enum { OPTIMAL, UNBOUNDED, ITER_LIMIT, INFEASIBLE, BAD_DATA, /* as pure.py */
       PHASE1_UNBOUNDED, PHASE1_ITER_LIMIT, DEGENERATE };
#define KERNEL_API 6             /* as pure.py */

/* A C-contiguous buffer: 2-D doubles if `matrix`, else 1-D int64.
 * Returns 0, or -1 with an exception set and no buffer held. */
static int
get_array(PyObject *obj, Py_buffer *view, int flags, int matrix,
          const char *name)
{
    const char *fmt;
    int ndim = matrix ? 2 : 1;

    if (PyObject_GetBuffer(obj, view,
                           flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    fmt = view->format + (view->format[0] == '@');
    if (view->ndim != ndim || view->itemsize != 8 || fmt[0] == '\0' ||
        fmt[1] != '\0' || strchr(matrix ? "d" : "lq", fmt[0]) == NULL) {
        PyErr_Format(PyExc_ValueError,
                     "%s must be a %d-D array of %s, got %d-D '%s' with "
                     "%zd-byte items", name, ndim,
                     matrix ? "float64" : "int64", view->ndim, view->format,
                     view->itemsize);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* Bland-rule pivots in place on T's first nrows rows (the last: reduced
 * costs) and ncols columns (the last: RHS); *iters counts the pivots. */
static int
run(double *T, int64_t *basis, Py_ssize_t nrows, Py_ssize_t ncols,
    Py_ssize_t stride, double tol, long long max_iter, long long *iters)
{
    Py_ssize_t m = nrows - 1, n = ncols - 1, ec, lr, i, j;
    double *obj = T + m * stride, *row, *ri, a, r, best;

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

        /* Pivot on row lr, column ec. */
        row = T + lr * stride;
        for (a = row[ec], j = 0; j < ncols; j++)
            row[j] /= a;
        row[ec] = 1.0;
        for (i = 0; i < nrows; i++) {
            ri = T + i * stride;
            if (i == lr || (a = ri[ec]) == 0.0)
                continue;
            for (j = 0; j < ncols; j++)
                ri[j] -= a * row[j];
            ri[ec] = 0.0;
        }
        basis[lr] = ec;
        (*iters)++;
    }
    return ITER_LIMIT;
}

/* DMU p's CCR LP on the data at `level`, written into W and solved as
 * linprog._simplex solves it; see pure.mo_solve.  Lo, M and Hi, the low,
 * modal and high data, are R rows (the inputs, then s outputs) by N DMUs.
 * Phase 2 keeps phase 1's row stride, its RHS in the artificial's
 * column.  Fills x[0..R) and *value on OPTIMAL, else *value is the cap
 * of the last phase run. */
static int
solve_ccr(const double *Lo, const double *M, const double *Hi, double level,
          Py_ssize_t R, Py_ssize_t N, Py_ssize_t s, Py_ssize_t p, int exclude,
          double *W, int64_t *basis, double tol, long long per_dim,
          double *value, double *x)
{
    Py_ssize_t k = N - exclude, m = k + 1, art = R + k, cols = art + 2;
    Py_ssize_t i, j, r, c;
    double a = 1.0 - level, e, w, f, *cost, *obj = W + (m + 1) * cols;
    long long iters = 0, cap;
    int status;

    /* linprog._tableau's layout.  Columns: u, v, one slack per peer, the
     * artificial, the RHS.  Rows: v @ x_p = 1, u @ y_j - v @ x_j <= 0 per
     * peer j, phase 1's costs (minus row 0 bar the artificial), the
     * objective. */
    memset(W, 0, (m + 2) * cols * sizeof(double));
    W[art] = W[art + 1] = 1.0;
    W[m * cols + cols - 1] = -1.0;
    for (i = 1; i < m; i++)
        W[i * cols + R - 1 + i] = 1.0;
    for (r = 0; r < R; r++) {
        c = r < R - s ? s + r : r - (R - s);
        for (j = 0; j < N; j++) {
            /* p's own end is low for an input, high for an output; its
             * peers' the other.  toward_modal's formula: a side without
             * spread stays modal. */
            i = r * N + j;
            e = ((r < R - s) == (j == p) ? Lo : Hi)[i];
            w = e == M[i] ? M[i] : a * e + level * M[i];
            if (w == 0.0 || !isfinite(w))
                return BAD_DATA;
            if (j == p) {
                if (c < s)
                    obj[c] = w;
                else {
                    W[c] = w;
                    W[m * cols + c] = -w;
                }
                if (exclude)
                    continue;
            }
            W[(j + 1 - (exclude && j > p)) * cols + c] = c < s ? w : -w;
        }
    }

    /* Phase 1 from the slack basis, the artificial basic in row 0.  While
     * it is basic, row 0's RHS stays 1 and the costs minus row 0, so it
     * leaves or phase 1 ends at -1: no artificial is left to purge.  Past
     * that, costs are rounding residue; one above tol with no pivot row
     * (p's inputs past ~5e6 and 1e9 apart) ends phase 1 unbounded. */
    basis[0] = art;
    for (i = 1; i < m; i++)
        basis[i] = R - 1 + i;
    cap = per_dim * (m + 1 + cols);
    *value = (double)cap;
    status = run(W, basis, m + 1, cols, cols, tol, cap, &iters);
    if (status != OPTIMAL)
        return status == UNBOUNDED ? PHASE1_UNBOUNDED : PHASE1_ITER_LIMIT;
    if (W[m * cols + cols - 1] < -1e2 * tol)
        return INFEASIBLE;
    for (i = 0; i < m; i++)
        W[i * cols + art] = W[i * cols + cols - 1];

    /* Phase 2's reduced costs, in row m: the objective priced out. */
    cost = W + m * cols;
    for (j = 0; j <= art; j++)
        cost[j] = j < R ? -obj[j] : 0.0;
    for (i = 0; i < m; i++) {
        if (basis[i] >= R || (f = cost[basis[i]]) == 0.0)
            continue;
        for (j = 0; j <= art; j++)
            cost[j] -= f * W[i * cols + j];
        cost[basis[i]] = 0.0;
    }
    cap = per_dim * (m + 1 + art + 1);
    iters = 0;
    status = run(W, basis, m + 1, art + 1, cols, tol, cap, &iters);
    *value = (double)cap;
    if (status != OPTIMAL)
        return status;
    memset(x, 0, R * sizeof(double));
    for (i = 0; i < m; i++)
        if (basis[i] < R)
            x[basis[i]] = W[i * cols + art];
    *value = 0.0;
    for (j = 0; j < R; j++)
        *value += obj[j] * x[j];
    return OPTIMAL;
}

/* low, modal, high, work and basis of DMU p's LP, checked as
 * pure.mo_solve does.  Returns 0, or -1 with an exception set and no
 * buffer held. */
static int
get_lp(PyObject **obj, Py_buffer *buf, Py_ssize_t p, int exclude,
       Py_ssize_t s)
{
    static const char *names[5] = {"low", "modal", "high", "work", "basis"};
    Py_ssize_t R, N, k;
    int got;

    for (got = 0; got < 5; got++)
        if (get_array(obj[got], &buf[got], got < 3 ? 0 : PyBUF_WRITABLE,
                      got < 4, names[got]) < 0)
            goto fail;
    R = buf[1].shape[0];
    N = buf[1].shape[1];
    k = N - exclude;  /* peers */
    if (buf[0].shape[0] == R && buf[0].shape[1] == N && buf[2].shape[0] == R &&
        buf[2].shape[1] == N && R >= 1 && N >= 1 && p >= 0 && p < N &&
        s >= 0 && s <= R && buf[3].shape[0] == k + 3 &&
        buf[3].shape[1] == R + k + 2 && buf[4].shape[0] == k + 1)
        return 0;
    PyErr_Format(PyExc_ValueError, "no CCR LP: low %zdx%zd, modal %zdx%zd, "
                 "high %zdx%zd, p %zd, work %zdx%zd, basis %zd, n_outputs %zd",
                 buf[0].shape[0], buf[0].shape[1], R, N, buf[2].shape[0],
                 buf[2].shape[1], p, buf[3].shape[0], buf[3].shape[1],
                 buf[4].shape[0], s);
fail:
    while (got-- > 0)
        PyBuffer_Release(&buf[got]);
    return -1;
}

/* A tuple of the n doubles at x. */
static PyObject *
floats(const double *x, Py_ssize_t n)
{
    PyObject *t = PyTuple_New(n), *f;
    Py_ssize_t j;

    for (j = 0; t != NULL && j < n; j++) {
        if ((f = PyFloat_FromDouble(x[j])) == NULL)
            Py_CLEAR(t);
        else
            PyTuple_SET_ITEM(t, j, f);
    }
    return t;
}

/* One DMU's LPs for mo_solve: the solved levels, each kept as an entry
 * of R + 3 doubles (the level, the optimum, the last config to probe
 * it, then the weights x), and the first failure: its status, level
 * and value, as pure.mo_solve reports them. */
typedef struct {
    const double *Lo, *M, *Hi;
    double *W, tol, *cache;
    int64_t *basis;
    Py_ssize_t R, N, s, p, n, room;
    int exclude, status;        /* OPTIMAL until a failure */
    long long per_dim;
    double at, value;           /* the failure's level and value */
} Lps;

#define ENTRY(L, i) ((L)->cache + (i) * ((L)->R + 3))

/* The index of the LP at `level`, solved on its first request; the
 * config c that probes it counts it in *probed once.  -1 after a
 * failure, -2 with an exception set. */
static Py_ssize_t
lp_at(Lps *L, double level, double c, Py_ssize_t *probed)
{
    Py_ssize_t i;
    double value = 0.0, *e, *grown;
    int status;

    for (i = 0; i < L->n && ENTRY(L, i)[0] != level; i++)
        ;
    if (i == L->n) {
        if (i == L->room) {
            L->room = L->room ? 2 * L->room : 16;
            grown = PyMem_Realloc(L->cache,
                                  L->room * (L->R + 3) * sizeof(double));
            if (grown == NULL) {
                PyErr_NoMemory();
                return -2;
            }
            L->cache = grown;
        }
        e = ENTRY(L, i);
        status = solve_ccr(L->Lo, L->M, L->Hi, level, L->R, L->N, L->s, L->p,
                           L->exclude, L->W, L->basis, L->tol, L->per_dim,
                           &value, e + 3);
        if (status != OPTIMAL) {
            L->status = status;
            L->at = level;
            L->value = value;
            return -1;
        }
        e[0] = level;
        e[1] = value;
        e[2] = -1.0;
        L->n++;
    }
    if (ENTRY(L, i)[2] != c) {
        ENTRY(L, i)[2] = c;
        (*probed)++;
    }
    return i;
}

static double
beta(double h, double alpha, int rescale)
{
    if (rescale)
        return alpha + (1.0 - alpha) * h;
    return h > alpha ? h : alpha;
}

/* Config c's root search, as pure.mo_solve's search: the index of its
 * last LP, with *h, *z and *iters set, or lp_at's -1 or -2. */
static Py_ssize_t
search(Lps *L, double c, double alpha, int rescale, double h_tol,
       long long max_probes, double *h, double *z, Py_ssize_t *iters)
{
    Py_ssize_t i, j, probed = 0, start;
    double ideal = rescale ? alpha : 0.0, lo, hi, g, g_lo, g_hi;
    long long t;
    int moved;

    if ((i = lp_at(L, ideal, c, &probed)) < 0)
        return i;
    *z = ENTRY(L, i)[1];
    if (*z <= L->tol) {
        L->status = DEGENERATE;
        L->at = ideal;
        L->value = *z;
        return -1;
    }
    *h = 1.0;
    if ((i = lp_at(L, beta(*h, alpha, rescale), c, &probed)) < 0)
        return i;
    g_hi = ENTRY(L, i)[1] / *z - *h;
    start = probed;
    if (!(g_hi >= 0.0)) {
        lo = 0.0;
        hi = 1.0;
        if ((j = lp_at(L, beta(lo, alpha, rescale), c, &probed)) < 0)
            return j;
        g_lo = ENTRY(L, j)[1] / *z - lo;
        moved = 0;  /* +1: lo moved last, -1: hi moved last */
        for (t = 0; t < max_probes; t++) {
            *h = lo - g_lo * (hi - lo) / (g_hi - g_lo);
            if (!(lo < *h && *h < hi))
                *h = 0.5 * (lo + hi);
            if ((i = lp_at(L, beta(*h, alpha, rescale), c, &probed)) < 0)
                return i;
            g = ENTRY(L, i)[1] / *z - *h;
            if (fabs(g) <= h_tol)
                break;
            if (g > 0.0) {
                lo = *h;
                g_lo = g;
                if (moved > 0)
                    g_hi *= 0.5;
                moved = 1;
            } else {
                hi = *h;
                g_hi = g;
                if (moved < 0)
                    g_lo *= 0.5;
                moved = -1;
            }
        }
    }
    *iters = probed - start;
    return i;
}

PyDoc_STRVAR(mo_solve_doc,
"mo_solve(low, modal, high, p, exclude_self, work, basis, n_outputs, tol,\n"
"         iters_per_dim, max_probes, cfgs, levels)\n"
"    -> (found, effs, solved, failure)\n\n"
"DMU p's mo-model root searches and its LPs at levels; see pure.mo_solve.");

static PyObject *
mo_solve(PyObject *self, PyObject *args)
{
    PyObject *obj[5], *cfgs, *levels, *seq[2] = {NULL, NULL}, *found = NULL,
             *effs = NULL, *solved = NULL, *item, *out = NULL;
    Py_buffer buf[5];
    Lps L = {0};
    Py_ssize_t c, i, n, iters = 0;
    double alpha, h_tol, h = 0.0, z = 0.0, *e;
    long long max_probes;
    int rescale;

    if (!PyArg_ParseTuple(args, "OOOnpOOndLLOO:mo_solve", &obj[0], &obj[1],
                          &obj[2], &L.p, &L.exclude, &obj[3], &obj[4], &L.s,
                          &L.tol, &L.per_dim, &max_probes, &cfgs, &levels) ||
        get_lp(obj, buf, L.p, L.exclude, L.s) < 0)
        return NULL;
    L.Lo = buf[0].buf;
    L.M = buf[1].buf;
    L.Hi = buf[2].buf;
    L.W = buf[3].buf;
    L.basis = buf[4].buf;
    L.R = buf[1].shape[0];
    L.N = buf[1].shape[1];
    if ((seq[0] = PySequence_Fast(cfgs, "cfgs must be a sequence")) == NULL ||
        (seq[1] = PySequence_Fast(levels, "levels must be a sequence")) ==
            NULL ||
        (found = PyList_New(0)) == NULL || (effs = PyList_New(0)) == NULL)
        goto done;
    n = PySequence_Fast_GET_SIZE(seq[0]);
    for (c = 0; c < n && L.status == OPTIMAL; c++) {
        if (!PyArg_ParseTuple(PySequence_Fast_GET_ITEM(seq[0], c),
                              "dpd:mo_solve config", &alpha, &rescale, &h_tol))
            goto done;
        i = search(&L, (double)c, alpha, rescale, h_tol, max_probes, &h, &z,
                   &iters);
        if (i == -2)
            goto done;
        if (i < 0)
            break;
        e = ENTRY(&L, i);
        item = Py_BuildValue("dddNNn", h, e[1], z, floats(e + 3, L.s),
                             floats(e + 3 + L.s, L.R - L.s), iters);
        if (item == NULL || PyList_Append(found, item) < 0) {
            Py_XDECREF(item);
            goto done;
        }
        Py_DECREF(item);
    }
    n = PySequence_Fast_GET_SIZE(seq[1]);
    for (c = 0; c < n && L.status == OPTIMAL; c++) {
        alpha = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(seq[1], c));
        if (alpha == -1.0 && PyErr_Occurred())
            goto done;
        if ((i = lp_at(&L, alpha, -1.0, &iters)) == -2)
            goto done;
        if (i < 0)
            break;
        e = ENTRY(&L, i);
        item = Py_BuildValue("dNN", e[1], floats(e + 3, L.s),
                             floats(e + 3 + L.s, L.R - L.s));
        if (item == NULL || PyList_Append(effs, item) < 0) {
            Py_XDECREF(item);
            goto done;
        }
        Py_DECREF(item);
    }
    /* a failed LP's level too; a degenerate z*'s LP is solved and kept */
    n = L.n + (L.status != OPTIMAL && L.status != DEGENERATE);
    if ((solved = PyTuple_New(n)) == NULL)
        goto done;
    for (i = 0; i < n; i++) {
        item = PyFloat_FromDouble(i < L.n ? ENTRY(&L, i)[0] : L.at);
        if (item == NULL)
            goto done;
        PyTuple_SET_ITEM(solved, i, item);
    }
    if (L.status == OPTIMAL)
        out = Py_BuildValue("NNOO", PyList_AsTuple(found),
                            PyList_AsTuple(effs), solved, Py_None);
    else
        out = Py_BuildValue("NNO(idd)", PyList_AsTuple(found),
                            PyList_AsTuple(effs), solved, L.status, L.at,
                            L.value);
done:
    Py_XDECREF(solved);
    Py_XDECREF(effs);
    Py_XDECREF(found);
    Py_XDECREF(seq[1]);
    Py_XDECREF(seq[0]);
    PyMem_Free(L.cache);
    for (i = 0; i < 5; i++)
        PyBuffer_Release(&buf[i]);
    return out;
}

static PyMethodDef methods[] = {
    {"mo_solve", mo_solve, METH_VARARGS, mo_solve_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "fuzzydea._speedups.fast",
    "Compiled simplex kernel; twin of fuzzydea._speedups.pure.", -1, methods,
};

PyMODINIT_FUNC
PyInit_fast(void)
{
    PyObject *m = PyModule_Create(&module);

    if (m != NULL && PyModule_AddIntConstant(m, "KERNEL_API", KERNEL_API) < 0)
        Py_CLEAR(m);
    return m;
}
