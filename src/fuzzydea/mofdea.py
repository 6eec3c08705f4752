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
h* is its root (or 1 when g(1) >= 0), found by the Illinois variant of
regula falsi with a midpoint safeguard (see solve_mo).

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

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

from . import ccr
from ._speedups.pure import _beta
from .alphacut import reduce_at
from .ccr import MAX_BISECT, DataLps, SelfPolicy
from .ccr import _check_index, _check_policy, _check_z, _raise
from .dataio import FuzzyDataset
from .errors import DataError, RangeError
from .trifuzzy import check_alpha, is_finite_real
# Unused here; perfbench/tracing.py rebinds it by name in this module.
from .ccr import ccr_efficiency  # noqa: F401

__all__ = [
    "ALPHA_MODES",
    "DEFAULT_ALPHA_MODE",
    "MAX_BISECT",
    "MoConfig",
    "MoResult",
    "beta_level",
    "reduced_data",
    "z_star",
    "eff_at",
    "solve_mo",
    "evaluate_all",
    "compare_all",
]

ALPHA_MODES = ("floor", "rescale")
DEFAULT_ALPHA_MODE = "rescale"


def _rescale(mode) -> bool:
    """Whether mode is "rescale"; RangeError unless it is in ALPHA_MODES."""
    if mode not in ALPHA_MODES:
        raise RangeError(f"unknown alpha mode {mode!r}; use one of {ALPHA_MODES}")
    return mode == "rescale"


def beta_level(h: float, alpha: float, mode: str = DEFAULT_ALPHA_MODE) -> float:
    """Effective membership level at satisfaction h under an alpha level."""
    if not is_finite_real(h) or not 0.0 <= h <= 1.0:
        raise RangeError(f"h must lie in [0, 1], got {h!r}")
    alpha = check_alpha(alpha)
    return _beta(float(h), alpha, _rescale(mode))


@dataclass(frozen=True)
class MoConfig:
    """Knobs for solve_mo / evaluate_all; alpha and h_tol are kept as floats."""

    alpha: float = 0.0
    policy: SelfPolicy = SelfPolicy.EXCLUDE_SELF
    h_tol: float = 1e-6
    alpha_mode: str = DEFAULT_ALPHA_MODE

    def __post_init__(self):
        _rescale(self.alpha_mode)
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        _check_policy(self.policy)
        h_tol = self.h_tol
        if not is_finite_real(h_tol) or h_tol <= 0.0:
            raise RangeError(f"h_tol must be finite and positive, got {h_tol!r}")
        object.__setattr__(self, "h_tol", float(h_tol))


class MoResult(NamedTuple):
    """h* and the efficiency there.

    iterations counts the distinct data levels this score's own root
    search probed beyond those of z* and the h = 1 probe (0 when
    h* = 1).  The kernel solves each level once per call: under
    evaluate_all a level that another alpha of the same DMU already
    solved is not solved again, but still counts here.
    """

    dmu: str
    h_star: float
    efficiency: float
    z_star: float
    u: Tuple[float, ...]
    v: Tuple[float, ...]
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
) -> FuzzyDataset:
    """Crisp data at satisfaction level h (and alpha level) for DMU p.

    The evaluated DMU moves from its favorable support endpoints toward
    the modal values as the effective level rises; peers move in from
    the unfavorable endpoints.  At level 1 everything is modal.
    """
    p = _check_index(data, p)
    return reduce_at(data, p, beta_level(h, alpha, mode))


def z_star(
    data: FuzzyDataset,
    p: int,
    policy: SelfPolicy = SelfPolicy.EXCLUDE_SELF,
    alpha: float = 0.0,
    mode: str = DEFAULT_ALPHA_MODE,
) -> float:
    """Ideal score of DMU p: CCR optimum on its most favorable usable data.

    Under "rescale" that is the alpha-cut's favorable endpoints, i.e. the
    optimistic alpha-cut score at this alpha (eff at h = 0).  Under
    "floor" it is the full support (beta = 0) whatever alpha is.  At
    alpha = 0 both modes give the full-support ideal.
    """
    beta_level(0.0, alpha, mode)  # validates alpha and mode
    p = _check_index(data, p)
    level = float(alpha) if mode == "rescale" else 0.0
    return _check_z(data.dmu_names[p], DataLps(data, policy).solve(p, level).efficiency)


def eff_at(data: FuzzyDataset, p: int, h: float, cfg: MoConfig = MoConfig()) -> float:
    """Crisp CCR score of DMU p on reduced_data at satisfaction level h.

    A cfg that is not a MoConfig raises TypeError before any LP."""
    if not isinstance(cfg, MoConfig):
        raise TypeError(f"eff_at takes a MoConfig, got {cfg!r}")
    p = _check_index(data, p)
    lps = DataLps(data, cfg.policy)
    return lps.solve(p, beta_level(h, cfg.alpha, cfg.alpha_mode)).efficiency


def _triple(cfg: MoConfig):
    """cfg as mo_solve takes it: (alpha, rescale, h_tol)."""
    return cfg.alpha, cfg.alpha_mode == "rescale", cfg.h_tol


def solve_mo(data: FuzzyDataset, p: int, cfg: MoConfig = MoConfig()) -> MoResult:
    """Maximal satisfaction level h* and the efficiency attained there.

    g(h) = eff(h)/z* - h is strictly decreasing and g(0) > 0, so h* = 1
    exactly when g(1) >= 0.  Otherwise h* is the root of g in (0, 1),
    found by the Illinois variant of regula falsi (Dowell & Jarratt
    1971) on a bracket [lo, hi] with g(lo) > 0 > g(hi): each probe is
    the secant point of the bracket, or its midpoint when the secant
    point is not strictly inside; when the same end moves twice in a
    row, the g stored for the other end is halved.  The search stops at
    the first probe with |g| <= h_tol, after at most MAX_BISECT probes,
    and returns that probe's h, efficiency and weights.  eff/z* never
    increases in h, so |g(h)| >= |h - h*| and the returned h_star is
    within h_tol of the root.

    The whole search, z* included, is one call of the kernel's mo_solve
    on a DataLps under cfg.policy, which solves each data level once;
    the scores equal z_star and eff_at bit for bit.  A cfg that is not
    a MoConfig raises TypeError before any LP.
    """
    if not isinstance(cfg, MoConfig):
        raise TypeError(f"solve_mo takes a MoConfig, got {cfg!r}")
    p = _check_index(data, p)
    found, _, _, failure = ccr._search(DataLps(data, cfg.policy), p, (_triple(cfg),))
    name = data.dmu_names[p]
    if failure is not None:
        _raise(name, *failure)
    return MoResult(name, *found[0], cfg.alpha, cfg.policy)


def _by_dmu(data: FuzzyDataset, cfgs: Sequence[MoConfig], entry: str, cuts: bool = False):
    """Check cfgs for entry, the public function called, then score the
    DMUs one at a time: one ccr._search per DMU on one DataLps under the
    cfgs' shared self policy.  Returns cfgs as a tuple and, per DMU, the
    search's (found, effs): its mo_solve entry under each cfg and, with
    cuts, its (optimum, u, v) at each cfg's alpha.  The kernel runs the
    cfgs in order, then the cuts, and stops at the first failure, so the
    error is the one that scoring each cfg alone in order, then taking
    the cuts, would raise."""
    if data.n_dmus < 2:
        raise DataError("ranking needs at least two DMUs")
    cfgs = tuple(cfgs)
    for cfg in cfgs:
        if not isinstance(cfg, MoConfig):
            raise TypeError(f"{entry} takes MoConfig items, got {cfg!r}")
    for cfg in cfgs:
        if cfg.policy is not cfgs[0].policy:
            raise RangeError(f"{entry} takes MoConfig items of one self policy, "
                             f"got {cfgs[0].policy} and {cfg.policy}")
    if not cfgs:
        return cfgs, ()
    lps = DataLps(data, cfgs[0].policy)
    triples = tuple(map(_triple, cfgs))
    levels = tuple(cfg.alpha for cfg in cfgs) if cuts else ()
    rows = []
    for p in range(data.n_dmus):
        found, effs, _, failure = ccr._search(lps, p, triples, levels)
        if failure is not None:
            _raise(data.dmu_names[p], *failure)
        rows.append((found, effs))
    return cfgs, rows


def evaluate_all(
    data: FuzzyDataset, cfgs: Sequence[MoConfig]
) -> Tuple[Tuple[MoResult, ...], ...]:
    """solve_mo for every DMU under each config: one ranking per config.

    Rankings come in the order of cfgs, each in rank order (rank 1
    first).  Ranking sorts by efficiency, then h*, then dataset order;
    ranks are 1-based positions in that ordering.

    Every item is checked to be a MoConfig, which checks its own fields,
    before any LP is solved, and the configs must share one self policy
    (RangeError otherwise; make one call per policy).  The DMUs are then
    scored one at a time from one DataLps: one kernel search per DMU,
    over all the configs, so a data level that several alpha levels
    probe (h = 1 always, z* under floor) is solved once per DMU.  The
    results equal standalone solve_mo calls bit for bit.
    """
    cfgs, rows = _by_dmu(data, cfgs, "evaluate_all")
    names = data.dmu_names
    rankings = []
    for i, cfg in enumerate(cfgs):  # a list per config: a zip(*...) transpose lifts peak RSS
        outs = [found[i] for found, _ in rows]
        order = sorted(range(len(outs)), key=lambda j: (-outs[j][1], -outs[j][0], j))
        rankings.append(tuple(MoResult(names[j], *outs[j], cfg.alpha, cfg.policy, rank)
                              for rank, j in enumerate(order, 1)))
    return tuple(rankings)


def compare_all(data: FuzzyDataset, cfgs: Sequence[MoConfig]):
    """Per config, each DMU's (alpha-cut score, solve_mo result), in
    dataset order.  The configs are checked as evaluate_all checks them,
    one self policy for all.  The cut is the LP at data level alpha in
    the kernel search the mo score ran in, and equals alphacut_scores'
    bit for bit."""
    cfgs, rows = _by_dmu(data, cfgs, "compare_all", cuts=True)
    return tuple(
        tuple(
            (effs[i][0], MoResult(name, *found[i], cfg.alpha, cfg.policy))
            for name, (found, effs) in zip(data.dmu_names, rows)
        )
        for i, cfg in enumerate(cfgs)
    )

