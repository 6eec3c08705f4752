"""Alpha-cut fuzzy CCR scores via extreme-value reduction, and the one
per-DMU LP store that every model scores through.

At level alpha each triangular value collapses to its alpha-cut interval
and the evaluated DMU takes the favorable endpoints (low inputs, high
outputs) while every peer takes the unfavorable ones.  The resulting
crisp CCR optimum is the optimistic score; the pessimistic variant swaps
the roles.  Normalization fixes the evaluated DMU's weighted input at 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import ccr
from .ccr import CrispDataset, SelfPolicy, _check_index, _check_policy, _lp_buffers
from .dataio import FuzzyDataset
from .trifuzzy import check_alpha, toward_modal
# Unused here; perfbench/tracing.py rebinds it by name in this module.
from .ccr import ccr_efficiency  # noqa: F401

__all__ = [
    "AlphaScore",
    "DmuLps",
    "alphacut_reduce",
    "pessimistic_reduce",
    "modal_reduce",
    "alphacut_scores",
    "pessimistic_scores",
]


@dataclass(frozen=True)
class AlphaScore:
    dmu: str
    alpha: float
    score: float
    policy: SelfPolicy


def _ends(data: FuzzyDataset, p: int, favor_p: bool = True):
    """DMU p's data at level 0, and the read-only modal data; each is
    (inputs + outputs) x DMUs.  p must be a valid index."""
    lower, modal, upper = data.bounds
    m = data.n_inputs
    good = np.concatenate((lower[:m], upper[m:]))
    bad = np.concatenate((upper[:m], lower[m:]))
    if not favor_p:
        good, bad = bad, good
    bad[:, p] = good[:, p]
    return bad, modal


def reduce_at(
    data: FuzzyDataset, p: int, level: float, favor_p: bool = True
) -> CrispDataset:
    """Crisp data at membership level `level` as seen from DMU p.

    Every value moves from a support end toward modal by toward_modal.
    With favor_p, p starts from its favorable ends (low inputs, high
    outputs) and its peers from the unfavorable ones; without, the roles
    swap.  The alpha-cut, the mo model's beta level and the modal data
    are all this one reduction.  No model scores through it: DmuLps
    blends the same ends in the kernel, and its LP at a level is
    ccr_efficiency on this data bit for bit.
    """
    p = _check_index(data, p)
    level = check_alpha(level)
    crisp = toward_modal(*_ends(data, p, favor_p), level)
    m = data.n_inputs
    return CrispDataset(data.dmu_names, crisp[:m], crisp[m:])


def alphacut_reduce(data: FuzzyDataset, p: int, alpha: float) -> CrispDataset:
    """Optimistic crisp reduction at level alpha for evaluated DMU p."""
    return reduce_at(data, p, alpha)


def pessimistic_reduce(data: FuzzyDataset, p: int, alpha: float) -> CrispDataset:
    """Role-swapped reduction: p at its worst endpoints, peers at their best."""
    return reduce_at(data, p, alpha, favor_p=False)


def modal_reduce(data: FuzzyDataset) -> CrispDataset:
    """Crisp dataset of modal values (the alpha = 1 cut, any viewpoint)."""
    return reduce_at(data, 0, 1.0)


class DmuLps:
    """DMU p's multiplier LP under one self policy, at any data level.

    It keeps _ends(data, p, favor_p)'s two arrays, and solve(level) hands
    them to the kernel, which blends them to the level by toward_modal's
    formula and writes the LP's tableau itself; the result is
    ccr_efficiency on reduce_at(data, p, level, favor_p) bit for bit.
    Every model scores through it: the alpha-cuts at alpha and crisp
    CCR at 1 by solve, the mo model's z* and probes by the kernel's
    mo_solve on the same ends and buffers (see mofdea._search).  The ends
    do not depend on the level, so one DmuLps serves all of p's LPs
    under its policy and favor_p, in one work tableau and basis.
    """

    def __init__(
        self, data: FuzzyDataset, p: int, policy: SelfPolicy, favor_p: bool = True
    ):
        p = _check_index(data, p)
        self.p, self.policy = p, _check_policy(policy)
        self.name, self._n_outputs = data.dmus[p].name, data.n_outputs
        self._ends = _ends(data, p, favor_p)
        self._buffers = _lp_buffers(self._ends[0], policy)

    def solve(self, level: float) -> ccr.CcrResult:
        """The LP result at data level `level`."""
        X = (*self._ends, level, self.p, *self._buffers)
        # Looked up on ccr at each call, so a rebinding sees every LP.
        return ccr._solve(X, self._n_outputs, self.name, self.policy)


def _scores(data: FuzzyDataset, alpha: float, policy: SelfPolicy, favor_p: bool):
    alpha = check_alpha(alpha)
    solved = [DmuLps(data, p, policy, favor_p).solve(alpha) for p in range(data.n_dmus)]
    return tuple(AlphaScore(r.dmu, alpha, r.efficiency, policy) for r in solved)


def alphacut_scores(
    data: FuzzyDataset, alpha: float, policy: SelfPolicy = SelfPolicy.EXCLUDE_SELF
) -> Tuple[AlphaScore, ...]:
    """Optimistic alpha-cut score of every DMU at one alpha level."""
    return _scores(data, alpha, policy, True)


def pessimistic_scores(
    data: FuzzyDataset, alpha: float, policy: SelfPolicy = SelfPolicy.EXCLUDE_SELF
) -> Tuple[AlphaScore, ...]:
    """Pessimistic counterpart of alphacut_scores."""
    return _scores(data, alpha, policy, False)
