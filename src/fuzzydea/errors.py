"""Exception hierarchy for fuzzydea.

Everything raised on purpose derives from FuzzyDeaError so callers can
catch one type at the boundary.  Value-level problems also subclass
ValueError to stay friendly to generic handling.
"""


class FuzzyDeaError(Exception):
    """Base class for all fuzzydea errors."""


class RangeError(FuzzyDeaError, ValueError):
    """A parameter lies outside its range or set: a level (alpha or h)
    outside [0, 1], a bad h_tol, an unknown alpha mode or self policy."""


class AlphaOutOfRange(RangeError):
    """An alpha level lies outside [0, 1]."""


class DataError(FuzzyDeaError, ValueError):
    """Dataset values are unusable (non-positive, non-finite, mis-shaped)."""


class ParseError(FuzzyDeaError, ValueError):
    """Raw input bytes could not be parsed at all."""


class SchemaError(FuzzyDeaError, ValueError):
    """Parsed input does not have the expected structure."""


class SolverFailure(FuzzyDeaError):
    """An efficiency model's LP came back infeasible or unbounded."""

    def __init__(self, message, status=None):
        super().__init__(message)
        self.status = status


class DegenerateZStar(SolverFailure):
    """The ideal score z* is non-positive, so the ratio target is undefined."""


class NumericalBreakdown(FuzzyDeaError):
    """The simplex iteration limit was hit; the tableau is not trustworthy."""
