"""Triangular fuzzy numbers and their alpha-cuts."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import AlphaOutOfRange, OrderingViolation

__all__ = ["TriFuzzy", "Interval"]


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


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise OrderingViolation(f"interval bounds must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise OrderingViolation(f"interval bounds out of order: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True, slots=True)
class TriFuzzy:
    """Triangular fuzzy number with support [lower, upper] and peak at modal."""

    lower: float
    modal: float
    upper: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lower, self.modal, self.upper))):
            raise OrderingViolation(f"triangular bounds must be finite, got {self!r}")
        if not (self.lower <= self.modal <= self.upper):
            raise OrderingViolation(
                f"triangular bounds out of order: ({self.lower}, {self.modal}, {self.upper})"
            )

    @property
    def is_crisp(self) -> bool:
        return self.lower == self.upper

    def membership(self, x: float) -> float:
        """Hat-shaped membership degree of x, in [0, 1].

        Degenerate sides (zero spread) behave as indicator steps, so a
        crisp number has membership 1 exactly at its value.
        """
        if x < self.lower or x > self.upper:
            return 0.0
        if x == self.modal:
            return 1.0
        if x < self.modal:
            return (x - self.lower) / (self.modal - self.lower)
        return (self.upper - x) / (self.upper - self.modal)

    def alpha_interval(self, alpha: float) -> Interval:
        """Alpha-cut [lower + a*(modal-lower), upper - a*(upper-modal)].

        Raises AlphaOutOfRange unless 0 <= alpha <= 1.
        """
        alpha = check_alpha(alpha)
        # Convex-combination form: exact at alpha 0/1 and lo <= hi holds
        # under rounding (the offset form can cross by one ulp at alpha=1).
        return Interval(
            float(toward_modal(self.lower, self.modal, alpha)),
            float(toward_modal(self.upper, self.modal, alpha)),
        )
