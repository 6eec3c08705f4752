"""Kernel selection.

The kernel has one entry, mo_solve, which solves every CCR LP of the
models.  The compiled one is used when the extension built; set
FUZZYDEA_PURE=1 to force the pure-Python twin.  Both produce
bit-identical results.  A compiled module whose KERNEL_API is not
pure.KERNEL_API, such as a stale in-place build of an older fast.c, is
not used at all.  Every model calls the kernel in ccr._search alone, which
looks ccr.default_mo_solve up at each call, so rebinding that name is the
only other way to choose one.  linprog pivots with pure.pivot_loop alone.
"""

import os

from . import pure
from .pure import mo_solve as pure_mo_solve

__all__ = ["BACKEND", "default_mo_solve", "pure_mo_solve", "fast_mo_solve"]

fast_mo_solve = None
if not os.environ.get("FUZZYDEA_PURE"):
    try:
        from . import fast
    except ImportError:
        fast = None
    if getattr(fast, "KERNEL_API", None) == pure.KERNEL_API:
        fast_mo_solve = fast.mo_solve
BACKEND = "pure" if fast_mo_solve is None else "fast"
default_mo_solve = fast_mo_solve or pure_mo_solve
