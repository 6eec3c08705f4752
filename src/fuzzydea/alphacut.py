"""Alpha-cut fuzzy CCR scores via extreme-value reduction.

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

from .ccr import CrispDataset, SelfPolicy, _check_index, ccr_efficiency
from .dataio import FuzzyDataset
from .trifuzzy import check_alpha, toward_modal

__all__ = [
    "AlphaScore",
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


def reduce_at(
    data: FuzzyDataset, p: int, level: float, favor_p: bool = True
) -> CrispDataset:
    """Crisp data at membership level `level` as seen from DMU p.

    Every value moves from a support end toward modal by toward_modal.
    With favor_p, p starts from its favorable ends (low inputs, high
    outputs) and its peers from the unfavorable ones; without, the roles
    swap.  The alpha-cut, the mo model's beta level and the modal data
    are all this one reduction.
    """
    p = _check_index(data, p)
    check_alpha(level)
    lower, modal, upper = data.bounds
    m = data.n_inputs
    good = np.concatenate((lower[:m], upper[m:]))
    bad = np.concatenate((upper[:m], lower[m:]))
    if not favor_p:
        good, bad = bad, good
    bad[:, p] = good[:, p]
    crisp = toward_modal(bad, modal, level)
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


def alphacut_scores(
    data: FuzzyDataset,
    alpha: float,
    policy: SelfPolicy = SelfPolicy.EXCLUDE_SELF,
    tol: float = 1e-9,
) -> Tuple[AlphaScore, ...]:
    """Optimistic alpha-cut score of every DMU at one alpha level."""
    out = []
    for p in range(data.n_dmus):
        res = ccr_efficiency(alphacut_reduce(data, p, alpha), p, policy=policy, tol=tol)
        out.append(AlphaScore(res.dmu, alpha, res.efficiency, policy))
    return tuple(out)


def pessimistic_scores(
    data: FuzzyDataset,
    alpha: float,
    policy: SelfPolicy = SelfPolicy.EXCLUDE_SELF,
    tol: float = 1e-9,
) -> Tuple[AlphaScore, ...]:
    """Pessimistic counterpart of alphacut_scores."""
    out = []
    for p in range(data.n_dmus):
        res = ccr_efficiency(
            pessimistic_reduce(data, p, alpha), p, policy=policy, tol=tol
        )
        out.append(AlphaScore(res.dmu, alpha, res.efficiency, policy))
    return tuple(out)
