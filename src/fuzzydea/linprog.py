"""Dense two-phase simplex for small linear programs.

Problems are stated as: maximize c @ x subject to rows of the form
(coefficients, relation, rhs) with relation one of "<=", "=", ">=",
and x >= 0.  Bland's least-index rule makes the pivot sequence cycle-free
and fully deterministic; the hot pivot loop lives in _speedups.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ._speedups import BACKEND, default_pivot_loop, pure_pivot_loop
from .errors import NumericalBreakdown

__all__ = [
    "LpProblem",
    "LpStatus",
    "LpOutcome",
    "solve",
    "BACKEND",
]

RELATIONS = ("<=", "=", ">=")

# kernel status codes (see _speedups.pure)
_OPTIMAL = 0
_UNBOUNDED = 1


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """maximize objective @ x s.t. rows, x >= 0."""

    objective: Tuple[float, ...]
    rows: Tuple[Tuple[Tuple[float, ...], str, float], ...]

    def __post_init__(self):
        obj = tuple(float(c) for c in self.objective)
        if not obj:
            raise ValueError("objective must have at least one variable")
        if not all(math.isfinite(c) for c in obj):
            raise ValueError("objective coefficients must be finite")
        rows = []
        for k, row in enumerate(self.rows):
            try:
                coeffs, rel, rhs = row
            except (TypeError, ValueError):
                raise ValueError(f"row {k}: expected (coefficients, relation, rhs)")
            coeffs = tuple(float(c) for c in coeffs)
            if len(coeffs) != len(obj):
                raise ValueError(
                    f"row {k}: {len(coeffs)} coefficients for {len(obj)} variables"
                )
            if rel not in RELATIONS:
                raise ValueError(f"row {k}: unknown relation {rel!r}")
            rhs = float(rhs)
            if not all(math.isfinite(c) for c in coeffs) or not math.isfinite(rhs):
                raise ValueError(f"row {k}: coefficients and rhs must be finite")
            rows.append((coeffs, rel, rhs))
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    value: Optional[float] = None
    solution: Optional[Tuple[float, ...]] = None


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """One in-place pivot, used by the driver when purging artificials."""
    T[row] /= T[row, col]
    T[row, col] = 1.0
    for i in range(T.shape[0]):
        if i == row:
            continue
        f = T[i, col]
        if f != 0.0:
            T[i] -= f * T[row]
            T[i, col] = 0.0
    basis[row] = col


def _run(kernel, T: np.ndarray, basis: np.ndarray, tol: float, phase: str):
    max_iter = 50 * (T.shape[0] + T.shape[1])
    status, _ = kernel(T, basis, tol, max_iter)
    if status not in (_OPTIMAL, _UNBOUNDED):
        raise NumericalBreakdown(
            f"simplex hit the iteration cap ({max_iter}) in {phase}"
        )
    return status


def _tableau(objective, A: np.ndarray, rels: Sequence[str], b: Sequence[float]):
    """Starting tableau of maximize objective @ x s.t. A x (rels) b, x >= 0.

    Rows with a negative right-hand side are negated first.  Returns the
    tableau, its basis and the numbers of slack and artificial columns.
    With artificials the last row holds the phase-1 reduced costs,
    without them the phase-2 ones.
    """
    m, n = A.shape
    rels, rhs = list(rels), list(b)
    # Normalize to nonnegative right-hand sides.
    flipped = [i for i in range(m) if rhs[i] < 0.0]
    for i in flipped:
        rhs[i] = -rhs[i]
        rels[i] = {"<=": ">=", ">=": "<=", "=": "="}[rels[i]]

    n_slack = sum(1 for rel in rels if rel != "=")
    art_rows = [i for i, rel in enumerate(rels) if rel != "<="]
    n_art = len(art_rows)
    T = np.zeros((m + 1, n + n_slack + n_art + 1), dtype=np.float64)
    T[:m, :n] = A
    for i in flipped:
        T[i, :n] = -T[i, :n]
    T[:m, -1] = rhs
    basis = np.zeros(m, dtype=np.int64)
    slack_at = n
    art_at = n + n_slack
    for i, rel in enumerate(rels):
        if rel != "=":
            T[i, slack_at] = 1.0 if rel == "<=" else -1.0
            if rel == "<=":
                basis[i] = slack_at
            slack_at += 1
        if rel != "<=":
            T[i, art_at] = 1.0
            basis[i] = art_at
            art_at += 1

    if n_art:
        # Phase 1: maximize minus the artificial sum, priced out so the
        # reduced-cost row is consistent with the starting basis.
        for i in art_rows:
            T[m, :] -= T[i, :]
        T[m, n + n_slack : n + n_slack + n_art] = 0.0
    else:
        # All-slack start: reduced costs are just the negated objective.
        T[m, :n] = [-c for c in objective]
    return T, basis, n_slack, n_art


def _simplex(
    T: np.ndarray,
    basis: np.ndarray,
    objective: Sequence[float],
    n_slack: int,
    n_art: int,
    tol: float,
    kernel: Optional[Callable] = None,
) -> LpOutcome:
    """Both simplex phases on a starting tableau from _tableau, in place.

    The kernel defaults to default_pivot_loop, looked up at call time.
    """
    if kernel is None:
        kernel = default_pivot_loop
    n = len(objective)
    m = len(basis)

    if n_art:
        if _run(kernel, T, basis, tol, "phase 1") == _UNBOUNDED:
            # The phase-1 objective is bounded above by 0; treat as breakdown.
            raise NumericalBreakdown("phase 1 reported an unbounded tableau")
        if T[m, -1] < -max(1e2 * tol, 1e-8):
            return LpOutcome(LpStatus.INFEASIBLE)

        # Purge leftover basic artificials (degenerate at zero).
        n_real = n + n_slack
        keep = []
        for i, b in enumerate(basis.tolist()):
            if b < n_real:
                keep.append(i)
                continue
            piv_col = -1
            for j in range(n_real):
                if abs(T[i, j]) > tol:
                    piv_col = j
                    break
            if piv_col >= 0:
                _pivot(T, basis, i, piv_col)
                keep.append(i)
            # else: redundant constraint, drop the row

        T = np.concatenate((T[:, :n_real], T[:, -1:]), axis=1)
        if len(keep) < m:
            T = T[keep + [m]]
            basis = basis[keep]
            m = len(keep)

        # Rebuild the reduced-cost row for the real objective.
        T[m, :] = 0.0
        T[m, :n] = [-c for c in objective]
        for i, b in enumerate(basis.tolist()):
            if b < n:
                f = T[m, b]
                if f != 0.0:
                    T[m] -= f * T[i]
                    T[m, b] = 0.0

    status = _run(kernel, T, basis, tol, "phase 2")
    if status == _UNBOUNDED:
        return LpOutcome(LpStatus.UNBOUNDED)

    x = [0.0] * n
    rhs = T[:, -1].tolist()
    for i, b in enumerate(basis.tolist()):
        if b < n:
            x[b] = rhs[i]
    value = 0.0
    for c, xi in zip(objective, x):
        value += c * xi
    return LpOutcome(LpStatus.OPTIMAL, value=value, solution=tuple(x))


def solve(
    problem: LpProblem,
    tol: float = 1e-9,
    kernel: Optional[Callable] = None,
) -> LpOutcome:
    """Solve an LpProblem; returns LpOutcome, raises NumericalBreakdown.

    The kernel argument picks the pivot implementation (defaults to the
    backend chosen at import); pass _speedups.pure_pivot_loop to force
    the interpreter twin.
    """
    rows = problem.rows
    A = np.array([coeffs for coeffs, _, _ in rows], dtype=np.float64)
    T, basis, n_slack, n_art = _tableau(
        problem.objective,
        A.reshape(len(rows), problem.n_vars),
        [rel for _, rel, _ in rows],
        [rhs for _, _, rhs in rows],
    )
    return _simplex(T, basis, problem.objective, n_slack, n_art, tol, kernel)
