"""Pivot kernel selection.

Prefers the compiled kernel when the extension built; set FUZZYDEA_PURE=1
to force the pure-Python twin.  Both produce bit-identical tableaus.  The
simplex calls linprog.default_pivot_loop, looked up at each call, so
rebinding that name is the only other way to choose a kernel.
"""

import os

from .pure import pivot_loop as pure_pivot_loop

__all__ = ["BACKEND", "default_pivot_loop", "pure_pivot_loop", "fast_pivot_loop"]

fast_pivot_loop = None
if not os.environ.get("FUZZYDEA_PURE"):
    try:
        from .fast import pivot_loop as fast_pivot_loop
    except ImportError:
        fast_pivot_loop = None

if fast_pivot_loop is not None:
    default_pivot_loop = fast_pivot_loop
    BACKEND = "fast"
else:
    default_pivot_loop = pure_pivot_loop
    BACKEND = "pure"
