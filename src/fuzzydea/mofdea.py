"""Multi-objective fuzzy CCR: joint satisfaction level h and efficiency.

The model asks for the largest common membership level h such that the
evaluated DMU, with every value pinned inside its triangular support at
level h, still reaches the fraction h of its ideal score z*.  Both the
objective and the constraints are fuzzy goals in Zimmermann's max-min
sense: h is also the objective's membership, the fraction of z* reached.
z* is the plain CCR optimum on the most favorable data the model may
use (evaluated DMU at low inputs / high outputs, peers at the opposite
extremes); which data that is depends on the alpha mode, see below.

Because the crisp score at level h is non-increasing in h, the target
function g(h) = eff(h) / z* - h is strictly decreasing and the optimal
h* is its root (or 1 when g(1) >= 0), found by bisection.

Two ways of combining h with an alpha level are supported:

* "rescale" (default): beta = alpha + (1 - alpha) * h.  Memberships are
  re-normalized over the alpha-cut box, so the data keeps moving for
  every h in [0, 1].  z* is the score on the alpha-cut's favorable
  endpoints (the optimistic alpha-cut score, eff at h = 0), so h = 0
  and h = 1 are the ends of the box the model searches.
* "floor": beta = max(alpha, h).  The alpha-cut box simply clips the
  membership constraints, so scores plateau once h <= alpha.  h stays
  on the absolute membership scale, and so does z*: it is taken on the
  full support (beta = 0) at every alpha.

Both coincide at alpha = 0 (beta = h, z* on the full support) and agree
on the efficiency at alpha = 1 (crisp modal data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from .alphacut import reduce_at
from .ccr import CcrTemplate, CrispDataset, SelfPolicy, _check_index, ccr_efficiency
from .dataio import FuzzyDataset
from .errors import AlphaOutOfRange, DataError, DegenerateZStar, RangeError

__all__ = [
    "ALPHA_MODES",
    "DEFAULT_ALPHA_MODE",
    "MoConfig",
    "MoResult",
    "beta_level",
    "reduced_data",
    "z_star",
    "eff_at",
    "solve_mo",
    "evaluate_all",
]

ALPHA_MODES = ("floor", "rescale")
DEFAULT_ALPHA_MODE = "rescale"


def beta_level(h: float, alpha: float, mode: str = DEFAULT_ALPHA_MODE) -> float:
    """Effective membership level at satisfaction h under an alpha level."""
    if not (isinstance(h, (int, float)) and math.isfinite(h)) or not 0.0 <= h <= 1.0:
        raise RangeError(f"h must lie in [0, 1], got {h!r}")
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha)) or not 0.0 <= alpha <= 1.0:
        raise AlphaOutOfRange(f"alpha must lie in [0, 1], got {alpha!r}")
    if mode == "rescale":
        return alpha + (1.0 - alpha) * h
    if mode == "floor":
        return h if h > alpha else alpha
    raise RangeError(f"unknown alpha mode {mode!r}; use one of {ALPHA_MODES}")


@dataclass(frozen=True)
class MoConfig:
    """Knobs for solve_mo / evaluate_all."""

    alpha: float = 0.0
    policy: SelfPolicy = SelfPolicy.EXCLUDE_SELF
    h_tol: float = 1e-6
    lp_tol: float = 1e-9
    alpha_mode: str = DEFAULT_ALPHA_MODE
    max_bisect: int = 60

    def __post_init__(self):
        if self.alpha_mode not in ALPHA_MODES:
            raise RangeError(
                f"unknown alpha mode {self.alpha_mode!r}; use one of {ALPHA_MODES}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise AlphaOutOfRange(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.h_tol <= 0.0 or self.lp_tol <= 0.0:
            raise RangeError("tolerances must be positive")
        if self.max_bisect < 1:
            raise RangeError("max_bisect must be at least 1")


@dataclass(frozen=True)
class MoResult:
    dmu: str
    h_star: float
    efficiency: float
    z_star: float
    u: Tuple[float, ...]
    v: Tuple[float, ...]
    reduced: CrispDataset
    iterations: int
    alpha: float
    policy: SelfPolicy
    rank: Optional[int] = None


def reduced_data(
    data: FuzzyDataset,
    p: int,
    h: float,
    alpha: float = 0.0,
    mode: str = DEFAULT_ALPHA_MODE,
) -> CrispDataset:
    """Crisp data at satisfaction level h (and alpha level) for DMU p.

    The evaluated DMU moves from its favorable support endpoints toward
    the modal values as the effective level rises; peers move in from
    the unfavorable endpoints.  At level 1 everything is modal.
    """
    p = _check_index(data, p)
    return reduce_at(data, p, beta_level(h, alpha, mode))


def _ideal_level(alpha: float, mode: str) -> float:
    """Data level of the ideal z*: the alpha-cut under rescale, else 0."""
    beta_level(0.0, alpha, mode)  # validates alpha and mode
    return alpha if mode == "rescale" else 0.0


def _checked_ideal(value: float, tol: float, name: str) -> float:
    if value <= tol:
        raise DegenerateZStar(
            f"ideal score for DMU {name!r} is {value}; "
            "the ratio target is undefined"
        )
    return value


def z_star(
    data: FuzzyDataset,
    p: int,
    policy: SelfPolicy = SelfPolicy.EXCLUDE_SELF,
    tol: float = 1e-9,
    alpha: float = 0.0,
    mode: str = DEFAULT_ALPHA_MODE,
) -> float:
    """Ideal score of DMU p: CCR optimum on its most favorable usable data.

    Under "rescale" that is the alpha-cut's favorable endpoints, i.e. the
    optimistic alpha-cut score at this alpha (eff at h = 0).  Under
    "floor" it is the full support (beta = 0) whatever alpha is.  At
    alpha = 0 both modes give the full-support ideal.
    """
    level = _ideal_level(alpha, mode)
    value = ccr_efficiency(
        reduced_data(data, p, level), int(p), policy=policy, tol=tol
    ).efficiency
    return _checked_ideal(value, tol, data.dmus[int(p)].name)


def eff_at(data: FuzzyDataset, p: int, h: float, cfg: MoConfig = MoConfig()) -> float:
    """Crisp CCR score of DMU p on reduced_data at satisfaction level h."""
    reduced = reduced_data(data, p, h, cfg.alpha, cfg.alpha_mode)
    return ccr_efficiency(reduced, int(p), policy=cfg.policy, tol=cfg.lp_tol).efficiency


def solve_mo(data: FuzzyDataset, p: int, cfg: MoConfig = MoConfig()) -> MoResult:
    """Maximal satisfaction level h* and the efficiency attained there.

    Bisects g(h) = eff(h)/z* - h on [0, 1]; g(0) > 0 always, so h* = 1
    exactly when g(1) >= 0.  The returned h_star is the last evaluated
    midpoint, so |efficiency / z_star - h_star| stays within a few h_tol.
    Every LP, z* included, is solved from one CcrTemplate between p's
    data at level 0 and at level 1; the scores equal z_star and eff_at
    bit for bit.
    """
    p = int(p)
    template = CcrTemplate(
        reduced_data(data, p, 0.0), reduced_data(data, p, 1.0), p, cfg.policy, cfg.lp_tol
    )
    name = data.dmus[p].name
    z = _checked_ideal(
        template.solve(_ideal_level(cfg.alpha, cfg.alpha_mode)).efficiency,
        cfg.lp_tol,
        name,
    )

    def crisp_at(h):
        return template.solve(beta_level(h, cfg.alpha, cfg.alpha_mode))

    mid, res = 1.0, crisp_at(1.0)
    iterations = 0
    if not res.efficiency / z - 1.0 >= 0.0:
        lo, hi = 0.0, 1.0
        for _ in range(cfg.max_bisect):
            mid = 0.5 * (lo + hi)
            res = crisp_at(mid)
            g = res.efficiency / z - mid
            iterations += 1
            if g >= 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= cfg.h_tol and abs(g) <= 5.0 * cfg.h_tol:
                break
    return MoResult(
        dmu=name,
        h_star=mid,
        efficiency=res.efficiency,
        z_star=z,
        u=res.u,
        v=res.v,
        reduced=reduced_data(data, p, mid, cfg.alpha, cfg.alpha_mode),
        iterations=iterations,
        alpha=cfg.alpha,
        policy=cfg.policy,
    )


def evaluate_all(data: FuzzyDataset, cfg: MoConfig = MoConfig()) -> Tuple[MoResult, ...]:
    """solve_mo for every DMU, returned in rank order (rank 1 first).

    Ranking sorts by efficiency, then h*, then dataset order; ranks are
    1-based positions in that ordering.
    """
    if data.n_dmus < 2:
        raise DataError("ranking needs at least two DMUs")
    results = [solve_mo(data, p, cfg) for p in range(data.n_dmus)]
    order = sorted(
        range(len(results)),
        key=lambda j: (-results[j].efficiency, -results[j].h_star, j),
    )
    return tuple(
        replace(results[j], rank=pos + 1) for pos, j in enumerate(order)
    )
