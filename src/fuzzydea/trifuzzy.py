"""Triangular cells, lower, modal and upper as a dataset's bounds holds
them: the one reduction formula and the checks of a level."""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import AlphaOutOfRange


def toward_modal(end, modal, level):
    """(1 - level) * end + level * modal, entrywise on floats or arrays.

    The package's one reduction formula: alpha-cuts, the mo model's beta
    level and modal data all move support ends toward modal with it, and
    the kernel's mo_solve applies it cell by cell.  An end without spread stays
    exactly at modal; the convex combination of two equal values can
    miss them by one ulp.
    """
    return np.where(end == modal, modal, (1.0 - level) * end + level * modal)


def is_finite_real(x) -> bool:
    """True for a finite int, float or numpy real scalar; a bool is not one.

    An int too large for a float is not one either: math.isfinite
    would raise OverflowError on it.
    """
    if type(x) is not float and (not isinstance(x, numbers.Real) or isinstance(x, bool)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def check_alpha(alpha) -> float:
    """alpha as a float, or AlphaOutOfRange unless it is a number in [0, 1].

    Numpy real scalars pass and come back as a Python float, so float32
    arithmetic never reaches the data.
    """
    if not is_finite_real(alpha):
        raise AlphaOutOfRange(f"alpha must be a finite number, got {alpha!r}")
    if alpha < 0.0 or alpha > 1.0:
        raise AlphaOutOfRange(f"alpha must lie in [0, 1], got {alpha}")
    return float(alpha)
