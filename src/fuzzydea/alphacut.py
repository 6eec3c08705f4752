"""Alpha-cut fuzzy CCR scores via extreme-value reduction.

At level alpha each triangular value collapses to its alpha-cut interval
and the evaluated DMU takes the favorable endpoints (low inputs, high
outputs) while every peer takes the unfavorable ones.  The resulting
CCR optimum is the optimistic score; the pessimistic variant swaps the
roles.  Normalization fixes the evaluated DMU's weighted input at 1.
The reductions return that data as a crisp FuzzyDataset, each cell's
three values equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .ccr import DataLps, SelfPolicy, _check_index
from .dataio import FuzzyDataset, _fill
from .trifuzzy import check_alpha, toward_modal
# Unused here; perfbench/tracing.py rebinds it by name in this module.
from .ccr import ccr_efficiency  # noqa: F401

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
    """DMU dmu's alpha-cut score at level alpha under policy."""

    dmu: str
    alpha: float
    score: float
    policy: SelfPolicy


def _ends(data: FuzzyDataset, favor_p: bool = True):
    """(own, other, modal): every DMU's data at level 0 as the evaluated
    DMU and as a peer, and the read-only modal data; each (inputs +
    outputs) x DMUs.  own is the favorable ends with favor_p, else other."""
    lower, modal, upper = data.bounds
    m = data.n_inputs
    good = np.concatenate((lower[:m], upper[m:]))
    bad = np.concatenate((upper[:m], lower[m:]))
    return (good, bad, modal) if favor_p else (bad, good, modal)


def reduce_at(
    data: FuzzyDataset, p: int, level: float, favor_p: bool = True
) -> FuzzyDataset:
    """Crisp data at membership level `level` as seen from DMU p.

    Every value moves from a support end toward modal by toward_modal.
    With favor_p, p starts from its favorable ends (low inputs, high
    outputs) and its peers from the unfavorable ones; without, the roles
    swap.  The alpha-cut, the mo model's beta level and the modal data
    are all this one reduction.  The result keeps data's names, and its
    bounds hold the reduced values three times.  No model scores through
    it: the kernel blends the same ends from a ccr.DataLps's arrays, and
    its LP at a level is ccr_efficiency on this data bit for bit.
    """
    p = _check_index(data, p)
    level = check_alpha(level)
    own, end, modal = _ends(data, favor_p)
    end[:, p] = own[:, p]
    cells = np.repeat(toward_modal(end, modal, level).T, 3)  # DMU by DMU, each cell thrice
    return _fill(object.__new__(FuzzyDataset), data.name, data.input_names, data.output_names,
                 data.dmu_names, [(data.n_inputs, data.n_outputs)] * data.n_dmus, cells)


def alphacut_reduce(data: FuzzyDataset, p: int, alpha: float) -> FuzzyDataset:
    """Optimistic crisp reduction at level alpha for evaluated DMU p."""
    return reduce_at(data, p, alpha)


def pessimistic_reduce(data: FuzzyDataset, p: int, alpha: float) -> FuzzyDataset:
    """Role-swapped reduction: p at its worst endpoints, peers at their best."""
    return reduce_at(data, p, alpha, favor_p=False)


def modal_reduce(data: FuzzyDataset) -> FuzzyDataset:
    """Crisp dataset of modal values (the alpha = 1 cut, any viewpoint)."""
    return reduce_at(data, 0, 1.0)


def _scores(data: FuzzyDataset, alpha: float, policy: SelfPolicy, favor_p: bool):
    alpha, lps = check_alpha(alpha), DataLps(data, policy, favor_p)
    return tuple(AlphaScore(name, alpha, lps.solve(p, alpha).efficiency, policy)
                 for p, name in enumerate(data.dmu_names))


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
