"""Kernel selection.

Prefers the compiled kernel when the extension built; set FUZZYDEA_PURE=1
to force the pure-Python twin.  Both produce bit-identical results.  One
switch picks all three entries from the same backend: pivot_loop
(linprog's general simplex), ccr_solve (one whole CCR multiplier LP)
and mo_solve (one DMU's whole mo-model root search).  A compiled module
whose KERNEL_API is not pure.KERNEL_API, such as a stale in-place build
of an older fast.c, is not used at all.  linprog.default_pivot_loop,
ccr.default_ccr_solve and mofdea.default_mo_solve are looked up at each
call, so rebinding them is the only other way to choose a kernel.
"""

import os

from . import pure
from .pure import ccr_solve as pure_ccr_solve
from .pure import mo_solve as pure_mo_solve
from .pure import pivot_loop as pure_pivot_loop

__all__ = [
    "BACKEND",
    "default_pivot_loop",
    "default_ccr_solve",
    "default_mo_solve",
    "pure_pivot_loop",
    "pure_ccr_solve",
    "pure_mo_solve",
    "fast_pivot_loop",
    "fast_ccr_solve",
    "fast_mo_solve",
]

fast_pivot_loop = fast_ccr_solve = fast_mo_solve = None
_kernel = pure
if not os.environ.get("FUZZYDEA_PURE"):
    try:
        from . import fast
    except ImportError:
        fast = None
    if getattr(fast, "KERNEL_API", None) == pure.KERNEL_API:
        _kernel = fast
        fast_pivot_loop, fast_ccr_solve = fast.pivot_loop, fast.ccr_solve
        fast_mo_solve = fast.mo_solve
BACKEND = "pure" if _kernel is pure else "fast"
default_pivot_loop, default_ccr_solve = _kernel.pivot_loop, _kernel.ccr_solve
default_mo_solve = _kernel.mo_solve
