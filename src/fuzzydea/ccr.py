"""Crisp CCR efficiency via the multiplier form.

For DMU p: maximize u @ y_p subject to v @ x_p = 1 and
u @ y_j - v @ x_j <= 0 over the peer set, u, v >= 0.  With ExcludeSelf
the constraint for p itself is dropped (super-efficiency), so scores
may exceed 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DataError, SolverFailure
from .linprog import LpProblem, LpStatus, _simplex, _tableau, solve
from .trifuzzy import toward_modal

__all__ = [
    "SelfPolicy",
    "CrispDataset",
    "CcrResult",
    "CcrTemplate",
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

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DataError(f"unknown DMU {name!r}") from None


@dataclass(frozen=True)
class CcrResult:
    dmu: str
    efficiency: float
    u: Tuple[float, ...]
    v: Tuple[float, ...]
    policy: SelfPolicy


def _check_index(data, p: int) -> int:
    """p as an int, or DataError unless it indexes one of data's DMUs."""
    p = int(p)
    if not 0 <= p < data.n_dmus:
        raise DataError(f"DMU index {p} out of range for {data.n_dmus} DMUs")
    return p


def _multiplier_lp(data: CrispDataset, p: int, policy: SelfPolicy):
    """Objective, rows, relations and right-hand sides of DMU p's LP.

    Variables are u (one per output) then v (one per input).
    """
    s, m = data.n_outputs, data.n_inputs
    peers = [
        j for j in range(data.n_dmus)
        if not (policy is SelfPolicy.EXCLUDE_SELF and j == p)
    ]
    c = np.zeros(s + m)
    c[:s] = data.outputs[:, p]
    A = np.zeros((1 + len(peers), s + m))
    A[0, s:] = data.inputs[:, p]
    A[1:, :s] = data.outputs[:, peers].T
    A[1:, s:] = -data.inputs[:, peers].T
    return c, A, ("=",) + ("<=",) * len(peers), (1.0,) + (0.0,) * len(peers)


def _result(names, p: int, policy: SelfPolicy, s: int, outcome) -> CcrResult:
    if outcome.status is not LpStatus.OPTIMAL:
        raise SolverFailure(
            f"CCR multiplier model for DMU {names[p]!r} is "
            f"{outcome.status.value}",
            status=outcome.status,
        )
    sol = outcome.solution
    return CcrResult(
        dmu=names[p],
        efficiency=float(outcome.value),
        u=sol[:s],
        v=sol[s:],
        policy=policy,
    )


def ccr_efficiency(
    data: CrispDataset,
    p: int,
    policy: SelfPolicy = SelfPolicy.INCLUDE_SELF,
    tol: float = 1e-9,
) -> CcrResult:
    """CCR multiplier efficiency of DMU p under the given self policy.

    Raises SolverFailure when the multiplier LP is infeasible or
    unbounded (e.g. ExcludeSelf with no peer left).
    """
    p = _check_index(data, p)
    c, A, rels, b = _multiplier_lp(data, p, policy)
    problem = LpProblem(tuple(c.tolist()), tuple(zip(A.tolist(), rels, b)))
    return _result(data.names, p, policy, data.n_outputs, solve(problem, tol=tol))


class CcrTemplate:
    """DMU p's multiplier LP on the data between two crisp datasets.

    solve(level) scores p on toward_modal(end, modal, level), the data a
    fraction level of the way from end to modal.  It does not assemble
    that LP: it applies toward_modal to the two starting tableaus, entry
    by entry.  Every tableau entry is a data value, its negation or a
    constant, and negation commutes exactly with the formula, so this is
    the tableau ccr_efficiency would build, bit for bit.
    """

    def __init__(
        self,
        end: CrispDataset,
        modal: CrispDataset,
        p: int,
        policy: SelfPolicy = SelfPolicy.INCLUDE_SELF,
        tol: float = 1e-9,
    ):
        p = _check_index(end, p)
        c_end, A_end, rels, b = _multiplier_lp(end, p, policy)
        c_modal, A_modal, _, _ = _multiplier_lp(modal, p, policy)
        T_end, self._basis, self._n_slack, self._n_art = _tableau(c_end, A_end, rels, b)
        T_modal = _tableau(c_modal, A_modal, rels, b)[0]
        # The objective rides along as one extra row, so each probe
        # reduces, and checks, a single array.
        self._end = self._stack(T_end, c_end)
        self._modal = self._stack(T_modal, c_modal)
        # Data entries are nonzero at both ends, so a level at which one
        # reaches 0 shows as fewer nonzero entries.
        self._nonzero = np.count_nonzero(self._modal)
        self._names, self._p, self._policy, self._tol = end.names, p, policy, tol
        self._s, self._n = end.n_outputs, len(c_end)

    @staticmethod
    def _stack(T: np.ndarray, c: np.ndarray) -> np.ndarray:
        out = np.zeros((T.shape[0] + 1, T.shape[1]))
        out[:-1] = T
        out[-1, : len(c)] = c
        return out

    def solve(self, level: float) -> CcrResult:
        """ccr_efficiency of p on the data at level (0: end, 1: modal)."""
        X = toward_modal(self._end, self._modal, level)
        if (
            np.count_nonzero(X) != self._nonzero
            or np.count_nonzero(np.isfinite(X)) != X.size
        ):
            raise DataError(
                f"data at level {level} for DMU {self._names[self._p]!r} "
                "must be finite and strictly positive"
            )
        objective = X[-1, : self._n].tolist()
        outcome = _simplex(
            X[:-1], self._basis.copy(), objective, self._n_slack, self._n_art, self._tol
        )
        return _result(self._names, self._p, self._policy, self._s, outcome)


def ccr_scores(
    data: CrispDataset,
    policy: SelfPolicy = SelfPolicy.INCLUDE_SELF,
    tol: float = 1e-9,
) -> Tuple[CcrResult, ...]:
    """ccr_efficiency for every DMU, in dataset order."""
    return tuple(
        ccr_efficiency(data, p, policy=policy, tol=tol) for p in range(data.n_dmus)
    )
