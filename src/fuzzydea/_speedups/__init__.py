"""Kernel selection.

Prefers the compiled kernel when the extension built; set FUZZYDEA_PURE=1
to force the pure-Python twin.  Both produce bit-identical results.  One
switch picks both entries, pivot_loop (linprog's general simplex) and
ccr_solve (one whole CCR multiplier LP), from the same backend: a
compiled module that lacks either, such as a stale in-place build of an
older fast.c, is not used at all.  linprog.default_pivot_loop and
ccr.default_ccr_solve are looked up at each call, so rebinding them is
the only other way to choose a kernel.
"""

import os

from .pure import ccr_solve as pure_ccr_solve
from .pure import pivot_loop as pure_pivot_loop

__all__ = [
    "BACKEND",
    "default_pivot_loop",
    "default_ccr_solve",
    "pure_pivot_loop",
    "pure_ccr_solve",
    "fast_pivot_loop",
    "fast_ccr_solve",
]

fast_pivot_loop = fast_ccr_solve = None
if not os.environ.get("FUZZYDEA_PURE"):
    try:
        from .fast import ccr_solve as fast_ccr_solve
        from .fast import pivot_loop as fast_pivot_loop
    except ImportError:
        fast_pivot_loop = fast_ccr_solve = None

if fast_pivot_loop is not None:
    default_pivot_loop, default_ccr_solve = fast_pivot_loop, fast_ccr_solve
    BACKEND = "fast"
else:
    default_pivot_loop, default_ccr_solve = pure_pivot_loop, pure_ccr_solve
    BACKEND = "pure"
