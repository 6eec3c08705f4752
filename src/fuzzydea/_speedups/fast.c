/* Compiled simplex pivot kernel: module fuzzydea._speedups.fast.
 *
 * Twin of pure.pivot_loop: the same operations in the same order on IEEE
 * doubles, so the two give bit-identical tableaus.  Build it with
 * -ffp-contract=off (setup.py does), or the compiler may fuse
 * f * row[j] and the subtraction into one rounding.
 *
 * The arrays come in through the buffer protocol, so no numpy headers
 * are needed: T is a C-contiguous 2-D array of doubles, basis a
 * C-contiguous 1-D array of 8-byte integers (numpy's int64).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

/* status codes shared with the pure kernel */
enum { OPTIMAL = 0, UNBOUNDED = 1, ITER_LIMIT = 2 };

/* Get a writable C-contiguous buffer of ndim dimensions whose 8-byte
 * items have one of the struct codes in `codes` (`what` names them in
 * the error).  Returns 0, or -1 with an exception set and no buffer
 * held. */
static int
get_array(PyObject *obj, Py_buffer *view, int ndim, const char *codes,
          const char *name, const char *what)
{
    const char *fmt;

    if (PyObject_GetBuffer(obj, view,
                           PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    fmt = view->format;
    if (fmt[0] == '@')
        fmt++;
    if (view->ndim != ndim || view->itemsize != 8 || fmt[0] == '\0' ||
        fmt[1] != '\0' || strchr(codes, fmt[0]) == NULL) {
        PyErr_Format(PyExc_ValueError,
                     "%s must be a %d-D array of %s, got %d-D '%s' with "
                     "%zd-byte items",
                     name, ndim, what, view->ndim, view->format,
                     view->itemsize);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* Bland-rule pivots on T (row m the reduced-cost row, column n the RHS),
 * in place.  Returns the status; *iters counts the pivots made. */
static int
run(double *T, int64_t *basis, Py_ssize_t nrows, Py_ssize_t ncols,
    double tol, long long max_iter, long long *iters)
{
    Py_ssize_t m = nrows - 1, n = ncols - 1;
    double *obj = T + m * ncols;
    double *row, *ri;
    double a, r, best, piv, f;
    Py_ssize_t ec, lr, i, j;

    while (*iters < max_iter) {
        /* Bland entering rule: least column with an improving reduced cost. */
        ec = -1;
        for (j = 0; j < n; j++) {
            if (obj[j] < -tol) {
                ec = j;
                break;
            }
        }
        if (ec < 0)
            return OPTIMAL;

        /* Ratio test; ties broken by least basic index (Bland leaving rule). */
        lr = -1;
        best = 0.0;
        for (i = 0; i < m; i++) {
            a = T[i * ncols + ec];
            if (a > tol) {
                r = T[i * ncols + n] / a;
                if (lr < 0 || r < best || (r == best && basis[i] < basis[lr])) {
                    lr = i;
                    best = r;
                }
            }
        }
        if (lr < 0)
            return UNBOUNDED;

        row = T + lr * ncols;
        piv = row[ec];
        for (j = 0; j < ncols; j++)
            row[j] /= piv;
        row[ec] = 1.0;
        for (i = 0; i < nrows; i++) {
            if (i == lr)
                continue;
            ri = T + i * ncols;
            f = ri[ec];
            if (f != 0.0) {
                for (j = 0; j < ncols; j++)
                    ri[j] -= f * row[j];
                ri[ec] = 0.0;
            }
        }
        basis[lr] = ec;
        (*iters)++;
    }
    return ITER_LIMIT;
}

PyDoc_STRVAR(pivot_loop_doc,
"pivot_loop(T, basis, tol, max_iter) -> (status, iterations)\n\n"
"Run Bland-rule simplex pivots on a maximization tableau in place.\n\n"
"Same contract as the pure kernel: row m is the reduced-cost row,\n"
"column n the RHS, basis holds the m basic column indices.");

static PyObject *
pivot_loop(PyObject *self, PyObject *args)
{
    PyObject *T_obj, *basis_obj;
    Py_buffer T, basis;
    double tol;
    long long max_iter, iters = 0;
    int status;

    if (!PyArg_ParseTuple(args, "OOdL:pivot_loop", &T_obj, &basis_obj, &tol,
                          &max_iter))
        return NULL;
    if (get_array(T_obj, &T, 2, "d", "T", "float64") < 0)
        return NULL;
    if (get_array(basis_obj, &basis, 1, "lq", "basis", "int64") < 0) {
        PyBuffer_Release(&T);
        return NULL;
    }
    if (basis.shape[0] != T.shape[0] - 1) {
        PyErr_Format(PyExc_ValueError,
                     "basis has %zd entries for %zd rows",
                     basis.shape[0], T.shape[0] - 1);
        PyBuffer_Release(&basis);
        PyBuffer_Release(&T);
        return NULL;
    }
    status = run((double *)T.buf, (int64_t *)basis.buf, T.shape[0],
                 T.shape[1], tol, max_iter, &iters);
    PyBuffer_Release(&basis);
    PyBuffer_Release(&T);
    return Py_BuildValue("iL", status, iters);
}

static PyMethodDef methods[] = {
    {"pivot_loop", pivot_loop, METH_VARARGS, pivot_loop_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "fuzzydea._speedups.fast",
    "Compiled simplex pivot kernel; twin of fuzzydea._speedups.pure.", -1,
    methods,
};

PyMODINIT_FUNC
PyInit_fast(void)
{
    return PyModule_Create(&module);
}
