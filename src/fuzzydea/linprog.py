"""Dense two-phase simplex for small linear programs.

Problems are stated as: maximize c @ x subject to rows of the form
(coefficients, relation, rhs) with relation one of "<=", "=", ">=",
and x >= 0.  Bland's least-index rule makes the pivot sequence cycle-free
and fully deterministic.

The simplex reads all it needs from its starting tableau and uses one
tolerance, LP_TOL.  Its pivot loop is default_pivot_loop, the
pure-Python _speedups.pure.pivot_loop whatever the build, looked up in
this module at each call, so rebinding linprog.default_pivot_loop swaps
it.  This simplex serves LpProblem/solve; the models' CCR LPs are solved
whole by the kernel's mo_solve (see ccr._search), which mirrors _simplex
step for step.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ._speedups.pure import OPTIMAL, UNBOUNDED, pivot_loop as default_pivot_loop
from .errors import NumericalBreakdown

__all__ = [
    "LpProblem",
    "LpStatus",
    "LpOutcome",
    "solve",
]

RELATIONS = ("<=", "=", ">=")

# Absolute pivot and feasibility tolerance of every LP the package solves.
LP_TOL = 1e-9
# Each simplex phase may pivot this many times per row and column of its
# tableau before NumericalBreakdown.
ITERS_PER_DIM = 50


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
    """An LP's status, and its optimal value and solution when OPTIMAL."""

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


def _breakdown(phase: str, cap: Optional[int] = None) -> NumericalBreakdown:
    """The error of a simplex phase that hit its iteration cap or, with
    no cap, of a phase 1 that reported an unbounded tableau (its
    objective is bounded above by 0)."""
    if cap is None:
        return NumericalBreakdown(f"{phase} reported an unbounded tableau")
    return NumericalBreakdown(f"simplex hit the iteration cap ({cap}) in {phase}")


def _run(T: np.ndarray, basis: np.ndarray, phase: str):
    max_iter = ITERS_PER_DIM * (T.shape[0] + T.shape[1])
    status, _ = default_pivot_loop(T, basis, LP_TOL, max_iter)
    if status not in (OPTIMAL, UNBOUNDED):
        raise _breakdown(phase, max_iter)
    return status


def _tableau(objective, A: np.ndarray, rels: Sequence[str], b: Sequence[float]):
    """Starting tableau of maximize objective @ x s.t. A x (rels) b, x >= 0.

    Rows with a negative right-hand side are negated first.  Columns: x,
    one slack per inequality, one artificial per ">=" or "=" row, the
    right-hand side.  Rows: the constraints, the reduced costs (phase 1's
    with artificials, else phase 2's), the objective.  Returns the
    tableau, its basis and the number of artificial columns.
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
    T = np.zeros((m + 2, n + n_slack + n_art + 1), dtype=np.float64)
    T[:m, :n] = A
    for i in flipped:
        T[i, :n] = -T[i, :n]
    T[:m, -1] = rhs
    T[m + 1, :n] = objective
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
        T[m, n + n_slack : -1] = 0.0
    else:
        # All-slack start: reduced costs are just the negated objective.
        T[m, :n] = -T[m + 1, :n]
    return T, basis, n_art


def _simplex(T: np.ndarray, basis: np.ndarray, n: int, n_art: int) -> LpOutcome:
    """Both simplex phases on a starting tableau in _tableau's layout.

    n is the number of structural variables and n_art the number of
    artificial columns; the last row, the objective, is read and not
    pivoted.  The rows above it are solved in place.  It serves solve;
    the kernel's mo_solve makes the same steps for each CCR LP, and the
    kernel tests hold the two to the same bits.
    """
    objective = T[-1, :n].tolist()
    T = T[:-1]
    m = len(basis)

    if n_art:
        if _run(T, basis, "phase 1") == UNBOUNDED:
            raise _breakdown("phase 1")
        if T[m, -1] < -1e2 * LP_TOL:
            return LpOutcome(LpStatus.INFEASIBLE)

        # Purge leftover basic artificials (degenerate at zero).
        n_real = T.shape[1] - 1 - n_art
        keep = []
        for i, b in enumerate(basis.tolist()):
            if b < n_real:
                keep.append(i)
                continue
            piv_col = -1
            for j in range(n_real):
                if abs(T[i, j]) > LP_TOL:
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

    if _run(T, basis, "phase 2") == UNBOUNDED:
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


def solve(problem: LpProblem) -> LpOutcome:
    """Solve an LpProblem; returns LpOutcome, raises NumericalBreakdown."""
    rows = problem.rows
    A = np.array([coeffs for coeffs, _, _ in rows], dtype=np.float64)
    T, basis, n_art = _tableau(
        problem.objective,
        A.reshape(len(rows), problem.n_vars),
        [rel for _, rel, _ in rows],
        [rhs for _, _, rhs in rows],
    )
    return _simplex(T, basis, problem.n_vars, n_art)
