"""Crisp CCR efficiency via the multiplier form.

For DMU p: maximize u @ y_p subject to v @ x_p = 1 and
u @ y_j - v @ x_j <= 0 over the peer set, u, v >= 0.  With ExcludeSelf
the constraint for p itself is dropped (super-efficiency), so scores
may exceed 1.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ._speedups import default_mo_solve
from ._speedups.pure import BAD_DATA
from .errors import DataError, RangeError, SolverFailure
from .linprog import ITERS_PER_DIM, LP_TOL, _lp_status
# Unused here; perfbench/tracing.py rebinds them by name in this module.
from .linprog import LpProblem, solve  # noqa: F401

__all__ = [
    "SelfPolicy",
    "CrispDataset",
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
class CrispDataset:
    """Positive crisp data: inputs (m x n) and outputs (s x n) over n DMUs."""

    names: Tuple[str, ...]
    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        names = tuple(str(x) for x in self.names)
        inputs = np.asarray(self.inputs, dtype=np.float64)
        outputs = np.asarray(self.outputs, dtype=np.float64)
        n = len(names)
        if n == 0:
            raise DataError("dataset has no DMUs")
        if len(set(names)) != n:
            raise DataError("DMU names must be unique")
        for label, mat in (("inputs", inputs), ("outputs", outputs)):
            if mat.ndim != 2 or mat.shape[1] != n:
                raise DataError(
                    f"{label} must be a 2-D matrix with one column per DMU, "
                    f"got shape {mat.shape} for {n} DMUs"
                )
            if mat.shape[0] == 0:
                raise DataError(f"{label} must have at least one row")
            if not np.all(np.isfinite(mat)):
                raise DataError(f"{label} contain non-finite values")
            if np.any(mat <= 0.0):
                bad = np.argwhere(mat <= 0.0)[0]
                raise DataError(
                    f"{label} must be strictly positive; "
                    f"{label}[{bad[0]}] of DMU {names[bad[1]]!r} is {mat[tuple(bad)]}"
                )
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)

    @property
    def n_dmus(self) -> int:
        return len(self.names)

    @property
    def n_inputs(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.outputs.shape[0]


@dataclass(frozen=True)
class CcrResult:
    dmu: str
    efficiency: float
    u: Tuple[float, ...]
    v: Tuple[float, ...]
    policy: SelfPolicy


def _check_index(data, p: int) -> int:
    """p as an int, or DataError unless it is an integer DMU index of data.

    Numpy integers pass; a float is refused, not truncated.
    """
    try:
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

    It keeps a FuzzyDataset's bounds as they are, low and high swapped
    without favor_p, or a CrispDataset's data as all three.  The kernel
    takes each DMU's ends from them: DMU p's LP at a level is
    ccr_efficiency on alphacut.reduce_at(data, p, level, favor_p) bit for bit.
    """

    def __init__(self, data, policy: SelfPolicy, favor_p: bool = True):
        self.policy = _check_policy(policy)
        self.n_dmus, self.n_outputs = data.n_dmus, data.n_outputs
        if isinstance(data, CrispDataset):
            crisp = np.concatenate((data.inputs, data.outputs))
            self.names, bounds = data.names, (crisp, crisp, crisp)
        else:
            self.names, bounds = data.dmu_names, data.bounds
        self.low, self.modal, self.high = bounds if favor_p else bounds[::-1]
        k = self.n_dmus - (policy is SelfPolicy.EXCLUDE_SELF)  # peers
        work = np.empty((k + 3, len(self.modal) + k + 2))
        self.buffers = work, np.empty(k + 1, dtype=np.int64)

    def solve(self, p, level: float) -> CcrResult:
        """DMU p's LP result at data level `level`, or _raise's error."""
        p = _check_index(self, p)
        _, effs, _, failure = _search(self, p, (), (level,))
        if failure is None:
            return CcrResult(self.names[p], *effs[0], self.policy)
        _raise(failure[1], failure[3], level, self.names[p])


def _search(lps: DataLps, p: int, cfgs, levels=()):
    """mo_solve's (found, effs, solved, failure) for DMU p of lps: the root
    search under each of cfgs, (alpha, rescale, h_tol) triples, then the
    LP at each of levels.  The one kernel call of every model, looked up
    at each call, so a rebinding sees every LP."""
    return default_mo_solve(
        lps.low, lps.modal, lps.high, p, lps.policy is SelfPolicy.EXCLUDE_SELF,
        *lps.buffers, lps.n_outputs, LP_TOL, ITERS_PER_DIM, MAX_BISECT, cfgs, levels,
    )


def _raise(status: int, value: float, level: float, name: str):
    """Raise the error of the kernel's status and value other than
    OPTIMAL for the DMU called name's LP at level: DataError when a data
    cell at level is 0 or not finite (positive data reach neither at a
    level in [0, 1]), SolverFailure when the LP is infeasible or
    unbounded, NumericalBreakdown when a phase hits its iteration cap."""
    if status == BAD_DATA:
        raise DataError(
            f"data at level {level} for DMU {name!r} "
            "must be finite and strictly positive"
        )
    lp_status = _lp_status(status, value)  # raises NumericalBreakdown
    raise SolverFailure(
        f"CCR multiplier model for DMU {name!r} is {lp_status.value}",
        status=lp_status,
    )


def ccr_efficiency(
    data: CrispDataset,
    p: int,
    policy: SelfPolicy = SelfPolicy.INCLUDE_SELF,
) -> CcrResult:
    """CCR multiplier efficiency of DMU p under the given self policy.

    Raises SolverFailure when the multiplier LP is infeasible or
    unbounded (e.g. ExcludeSelf with no peer left).
    """
    p = _check_index(data, p)
    return DataLps(data, policy).solve(p, 1.0)  # crisp: every level gives the data


def ccr_scores(
    data: CrispDataset,
    policy: SelfPolicy = SelfPolicy.INCLUDE_SELF,
) -> Tuple[CcrResult, ...]:
    """ccr_efficiency for every DMU, in dataset order, from one store."""
    lps = DataLps(data, policy)
    return tuple(lps.solve(p, 1.0) for p in range(data.n_dmus))
