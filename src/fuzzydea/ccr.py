"""CCR efficiency via the multiplier form.

For DMU p: maximize u @ y_p subject to v @ x_p = 1 and
u @ y_j - v @ x_j <= 0 over the peer set, u, v >= 0.  With ExcludeSelf
the constraint for p itself is dropped (super-efficiency), so scores
may exceed 1.  The data are a FuzzyDataset's: crisp CCR scores its
modal values, and a crisp cell's modal value is the cell itself.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ._speedups import default_mo_solve
from ._speedups.pure import (
    BAD_DATA, DEGENERATE, INFEASIBLE, ITER_LIMIT, PHASE1_ITER_LIMIT, PHASE1_UNBOUNDED, UNBOUNDED,
)
from .dataio import FuzzyDataset
from .errors import DataError, DegenerateZStar, RangeError, SolverFailure
from .linprog import ITERS_PER_DIM, LP_TOL, LpStatus, _breakdown
# Unused here; perfbench/tracing.py rebinds them by name in this module.
from .linprog import LpProblem, solve  # noqa: F401

__all__ = [
    "SelfPolicy",
    "CcrResult",
    "DataLps",
    "ccr_efficiency",
    "ccr_scores",
]


class SelfPolicy(enum.Enum):
    """Whether DMU p's own ratio constraint stays in its evaluation."""

    INCLUDE_SELF = "include-self"
    EXCLUDE_SELF = "exclude-self"


@dataclass(frozen=True)
class CcrResult:
    """DMU dmu's CCR efficiency and optimal weights under policy."""

    dmu: str
    efficiency: float
    u: Tuple[float, ...]
    v: Tuple[float, ...]
    policy: SelfPolicy


def _check_index(data, p: int) -> int:
    """p as an int, or DataError unless it is an integer DMU index of data.

    Numpy integers pass; a float is refused, not truncated, and so is a
    bool, though Python counts it an int.
    """
    try:
        if isinstance(p, bool):
            raise TypeError
        p = operator.index(p)
    except TypeError:
        raise DataError(f"DMU index must be an integer, got {p!r}") from None
    if not 0 <= p < data.n_dmus:
        raise DataError(f"DMU index {p} out of range for {data.n_dmus} DMUs")
    return p


def _check_policy(policy) -> SelfPolicy:
    """policy, or RangeError unless it is a SelfPolicy member.

    Its string value is refused: a string is never EXCLUDE_SELF, so it
    would be scored as include-self.
    """
    if not isinstance(policy, SelfPolicy):
        raise RangeError(
            f"self policy must be one of {', '.join(map(str, SelfPolicy))}, "
            f"got {policy!r}"
        )
    return policy


# Cap on root-search probes per score.  On random 3-8 DMU sets the
# Illinois search stops after about 2 at the default h_tol.
MAX_BISECT = 60


class DataLps:
    """Every DMU's multiplier LP on one dataset under one self policy and
    favor_p, at any data level, in one work tableau and basis.

    It keeps the dataset's bounds as they are, low and high swapped
    without favor_p.  The kernel takes each DMU's ends from them: DMU p's
    LP at a level is ccr_efficiency on alphacut.reduce_at(data, p, level,
    favor_p) bit for bit.
    """

    def __init__(self, data, policy: SelfPolicy, favor_p: bool = True):
        self.policy = _check_policy(policy)
        self.n_dmus, self.n_outputs, self.names = data.n_dmus, data.n_outputs, data.dmu_names
        self.low, self.modal, self.high = data.bounds if favor_p else data.bounds[::-1]
        k = self.n_dmus - (policy is SelfPolicy.EXCLUDE_SELF)  # peers
        work = np.empty((k + 3, len(self.modal) + k + 2))
        self.buffers = work, np.empty(k + 1, dtype=np.int64)

    def solve(self, p, level: float) -> CcrResult:
        """DMU p's LP result at data level `level`, or _raise's error."""
        p = _check_index(self, p)
        _, effs, _, failure = _search(self, p, (), (level,))
        if failure is None:
            return CcrResult(self.names[p], *effs[0], self.policy)
        _raise(self.names[p], failure[0], level, failure[2])  # level as the caller gave it


def _search(lps: DataLps, p: int, cfgs, levels=()):
    """mo_solve's (found, effs, solved, failure) for DMU p of lps: the root
    search under each of cfgs, (alpha, rescale, h_tol) triples, then the
    LP at each of levels.  The one kernel call of every model, looked up
    at each call, so a rebinding sees every LP."""
    return default_mo_solve(
        lps.low, lps.modal, lps.high, p, lps.policy is SelfPolicy.EXCLUDE_SELF,
        *lps.buffers, lps.n_outputs, LP_TOL, ITERS_PER_DIM, MAX_BISECT, cfgs, levels,
    )


def _check_z(name: str, value: float) -> float:
    """value, DMU name's ideal score z*; DegenerateZStar unless it is
    positive, as the ratio target eff / z* needs."""
    if value <= LP_TOL:
        raise DegenerateZStar(
            f"ideal score for DMU {name!r} is {value}; "
            "the ratio target is undefined"
        )
    return value


def _raise(name: str, status: int, level: float, value: float):
    """Raise the error of the kernel's failure (status, level, value) for
    the DMU called name; the one place a kernel status becomes an error.
    DataError when a data cell at level is 0 or not finite (positive
    data reach neither at a level in [0, 1]); DegenerateZStar for an
    ideal score z* = value too small; NumericalBreakdown when phase 1
    reports an unbounded tableau or a phase hits its iteration cap, the
    value; SolverFailure when the LP is infeasible or unbounded."""
    if status == BAD_DATA:
        raise DataError(
            f"data at level {level} for DMU {name!r} "
            "must be finite and strictly positive"
        )
    if status == DEGENERATE:
        _check_z(name, value)  # the kernel saw z* <= LP_TOL, so this raises
    if status == PHASE1_UNBOUNDED:
        raise _breakdown("phase 1")
    if status in (PHASE1_ITER_LIMIT, ITER_LIMIT):
        raise _breakdown("phase 1" if status == PHASE1_ITER_LIMIT else "phase 2", int(value))
    lp_status = {INFEASIBLE: LpStatus.INFEASIBLE, UNBOUNDED: LpStatus.UNBOUNDED}[status]
    raise SolverFailure(
        f"CCR multiplier model for DMU {name!r} is {lp_status.value}",
        status=lp_status,
    )


def ccr_efficiency(
    data: FuzzyDataset,
    p: int,
    policy: SelfPolicy = SelfPolicy.INCLUDE_SELF,
) -> CcrResult:
    """CCR multiplier efficiency of DMU p on data's modal values under the
    given self policy; on crisp data, on the data themselves.

    Raises SolverFailure when the multiplier LP is infeasible or
    unbounded (e.g. ExcludeSelf with no peer left).
    """
    p = _check_index(data, p)
    return DataLps(data, policy).solve(p, 1.0)  # level 1: every cell at modal


def ccr_scores(
    data: FuzzyDataset,
    policy: SelfPolicy = SelfPolicy.INCLUDE_SELF,
) -> Tuple[CcrResult, ...]:
    """ccr_efficiency for every DMU, in dataset order, from one store."""
    lps = DataLps(data, policy)
    return tuple(lps.solve(p, 1.0) for p in range(data.n_dmus))
