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
from typing import Optional, Sequence, Tuple

from .alphacut import DmuLps, reduce_at
from .ccr import CrispDataset, SelfPolicy, _check_index, _check_policy
from .dataio import FuzzyDataset
from .errors import DataError, DegenerateZStar, RangeError
from .linprog import LP_TOL
from .trifuzzy import check_alpha, is_finite_real
# Unused here; perfbench/tracing.py rebinds it by name in this module.
from .ccr import ccr_efficiency  # noqa: F401

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
    "compare_all",
]

ALPHA_MODES = ("floor", "rescale")
DEFAULT_ALPHA_MODE = "rescale"
# Cap on root-search probes per score.  On random 3-8 DMU sets the
# Illinois search stops after about 2 at the default h_tol.
MAX_BISECT = 60


def beta_level(h: float, alpha: float, mode: str = DEFAULT_ALPHA_MODE) -> float:
    """Effective membership level at satisfaction h under an alpha level."""
    if not is_finite_real(h) or not 0.0 <= h <= 1.0:
        raise RangeError(f"h must lie in [0, 1], got {h!r}")
    return _beta(float(h), check_alpha(alpha), mode)


def _beta(h: float, alpha: float, mode: str) -> float:
    """beta_level without its checks of h and alpha, for a float h and
    alpha in [0, 1]; solve_mo's probes use it, as MoConfig has checked
    alpha."""
    if mode == "rescale":
        return alpha + (1.0 - alpha) * h
    if mode == "floor":
        return h if h > alpha else alpha
    raise RangeError(f"unknown alpha mode {mode!r}; use one of {ALPHA_MODES}")


@dataclass(frozen=True)
class MoConfig:
    """Knobs for solve_mo / evaluate_all; alpha and h_tol are kept as floats."""

    alpha: float = 0.0
    policy: SelfPolicy = SelfPolicy.EXCLUDE_SELF
    h_tol: float = 1e-6
    alpha_mode: str = DEFAULT_ALPHA_MODE

    def __post_init__(self):
        if self.alpha_mode not in ALPHA_MODES:
            raise RangeError(
                f"unknown alpha mode {self.alpha_mode!r}; use one of {ALPHA_MODES}"
            )
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        _check_policy(self.policy)
        h_tol = self.h_tol
        if not is_finite_real(h_tol) or h_tol <= 0.0:
            raise RangeError(f"h_tol must be finite and positive, got {h_tol!r}")
        object.__setattr__(self, "h_tol", float(h_tol))


@dataclass(frozen=True)
class MoResult:
    """h* and the efficiency there.

    iterations counts the distinct data levels this score's own root
    search probed beyond those of z* and the h = 1 probe (0 when
    h* = 1).  Standalone, solve_mo solves one LP per level; under
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
) -> CrispDataset:
    """Crisp data at satisfaction level h (and alpha level) for DMU p.

    The evaluated DMU moves from its favorable support endpoints toward
    the modal values as the effective level rises; peers move in from
    the unfavorable endpoints.  At level 1 everything is modal.
    """
    p = _check_index(data, p)
    return reduce_at(data, p, beta_level(h, alpha, mode))


def _ideal_level(alpha: float, mode: str) -> float:
    """Data level of the ideal z*: the alpha-cut under rescale, else 0.

    Unchecked; solve_mo's cfg has checked alpha and mode.
    """
    return alpha if mode == "rescale" else 0.0


def _z_star(lps: DmuLps, level: float) -> float:
    """lps's score at data level `level`, the ideal z*; DegenerateZStar
    unless it is positive, as the ratio target eff / z* needs."""
    value = lps.solve(level).efficiency
    if value <= LP_TOL:
        raise DegenerateZStar(
            f"ideal score for DMU {lps.name!r} is {value}; "
            "the ratio target is undefined"
        )
    return value


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
    return _z_star(DmuLps(data, p, policy), _ideal_level(float(alpha), mode))


def eff_at(data: FuzzyDataset, p: int, h: float, cfg: MoConfig = MoConfig()) -> float:
    """Crisp CCR score of DMU p on reduced_data at satisfaction level h."""
    lps = DmuLps(data, p, cfg.policy)
    return lps.solve(beta_level(h, cfg.alpha, cfg.alpha_mode)).efficiency


def solve_mo(
    data: FuzzyDataset,
    p: int,
    cfg: MoConfig = MoConfig(),
    lps: Optional[DmuLps] = None,
) -> MoResult:
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

    Every LP, z* included, is solved by lps, p's DmuLps under
    cfg.policy, at most once per data level beta; the scores equal
    z_star and eff_at bit for bit.  Without lps, solve_mo builds its
    own; evaluate_all passes one DmuLps to all scores of a DMU, so they
    share its LPs.  An lps of another dataset, DMU or policy, or one
    built with favor_p=False (the pessimistic ends), raises RangeError,
    and a cfg that is not a MoConfig raises TypeError; both before any
    LP.
    """
    if not isinstance(cfg, MoConfig):
        raise TypeError(f"solve_mo takes a MoConfig, got {cfg!r}")
    p = _check_index(data, p)
    if lps is None:
        lps = DmuLps(data, p, cfg.policy)
    elif lps.data is not data:
        raise RangeError("lps holds the LPs of another dataset")
    elif (lps.p, lps.policy) != (p, cfg.policy):
        raise RangeError(
            f"lps holds the LPs of DMU {lps.p} under {lps.policy}, "
            f"not of DMU {p} under {cfg.policy}"
        )
    elif not lps.favor_p:
        raise RangeError("lps holds the pessimistic LPs, built with favor_p=False")
    ideal = _ideal_level(cfg.alpha, cfg.alpha_mode)
    z = _z_star(lps, ideal)
    probed = {ideal}  # the data levels this score used

    def probe(h):
        """The LP result at satisfaction level h, and g(h)."""
        beta = _beta(h, cfg.alpha, cfg.alpha_mode)
        probed.add(beta)
        res = lps.solve(beta)
        return res, res.efficiency / z - h

    res, g_hi = probe(1.0)
    h, start = 1.0, len(probed)
    if not g_hi >= 0.0:
        lo, hi, g_lo = 0.0, 1.0, probe(0.0)[1]
        moved = 0  # +1: lo moved last, -1: hi moved last
        for _ in range(MAX_BISECT):
            h = lo - g_lo * (hi - lo) / (g_hi - g_lo)
            if not lo < h < hi:
                h = 0.5 * (lo + hi)
            res, g = probe(h)
            if abs(g) <= cfg.h_tol:
                break
            if g > 0.0:
                lo, g_lo = h, g
                if moved > 0:
                    g_hi *= 0.5
                moved = 1
            else:
                hi, g_hi = h, g
                if moved < 0:
                    g_lo *= 0.5
                moved = -1
    return MoResult(
        dmu=lps.name,
        h_star=h,
        efficiency=res.efficiency,
        z_star=z,
        u=res.u,
        v=res.v,
        iterations=len(probed) - start,
        alpha=cfg.alpha,
        policy=cfg.policy,
    )


def _by_dmu(data: FuzzyDataset, cfgs: Sequence[MoConfig]):
    """Check cfgs, then yield, DMU by DMU, p's DmuLps by policy and its
    solve_mo result under each cfg."""
    if data.n_dmus < 2:
        raise DataError("ranking needs at least two DMUs")
    cfgs = tuple(cfgs)
    for cfg in cfgs:
        if not isinstance(cfg, MoConfig):
            raise TypeError(f"evaluate_all takes MoConfig items, got {cfg!r}")
    for p in range(data.n_dmus):
        shared = {}  # policy -> p's DmuLps; one DMU's LPs at a time
        scores = []
        for cfg in cfgs:
            if cfg.policy not in shared:
                shared[cfg.policy] = DmuLps(data, p, cfg.policy)
            scores.append(solve_mo(data, p, cfg, shared[cfg.policy]))
        yield shared, scores


def evaluate_all(
    data: FuzzyDataset, cfgs: Sequence[MoConfig]
) -> Tuple[Tuple[MoResult, ...], ...]:
    """solve_mo for every DMU under each config: one ranking per config.

    Rankings come in the order of cfgs, each in rank order (rank 1
    first).  Ranking sorts by efficiency, then h*, then dataset order;
    ranks are 1-based positions in that ordering.

    Every item is checked to be a MoConfig, which checks its own fields,
    before any LP is solved.  The DMUs are then scored one at a time:
    each builds one DmuLps per self policy used, and all its scores
    under that policy share it, so a data level that several alpha
    levels probe (h = 1 always, z* under floor) is solved once per DMU.
    The results equal standalone solve_mo calls bit for bit.
    """
    per_dmu = [scores for _, scores in _by_dmu(data, cfgs)]
    return tuple(_ranked(scores) for scores in zip(*per_dmu))


def compare_all(data: FuzzyDataset, cfgs: Sequence[MoConfig]):
    """Per config, each DMU's (alpha-cut score, solve_mo result), in
    dataset order: the cut is the LP at data level alpha of the DmuLps
    the mo score used, and equals alphacut_scores' bit for bit."""
    per_dmu = [
        [(shared[r.policy].solve(r.alpha).efficiency, r) for r in scores]
        for shared, scores in _by_dmu(data, cfgs)
    ]
    return tuple(zip(*per_dmu))


def _ranked(results) -> Tuple[MoResult, ...]:
    """results in rank order, each with its rank set."""
    order = sorted(
        range(len(results)),
        key=lambda j: (-results[j].efficiency, -results[j].h_star, j),
    )
    # The constructor takes about half the time of dataclasses.replace.
    return tuple(
        MoResult(r.dmu, r.h_star, r.efficiency, r.z_star, r.u, r.v,
                 r.iterations, r.alpha, r.policy, pos + 1)
        for pos, r in enumerate(results[j] for j in order)
    )
