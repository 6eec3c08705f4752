"""fuzzydea: fuzzy data envelopment analysis with triangular data.

Three efficiency models over the same datasets:

* crisp CCR multiplier scores (ccr),
* alpha-cut scores with extreme-value reduction (alphacut),
* a multi-objective model that trades a joint membership level h
  against the fraction of the ideal score achieved (mofdea).

A small deterministic two-phase simplex kernel (_speedups.mo_solve,
compiled when available) solves all of their LPs.
"""

from . import errors
from ._speedups import BACKEND
from .alphacut import (
    AlphaScore,
    alphacut_reduce,
    alphacut_scores,
    modal_reduce,
    pessimistic_reduce,
    pessimistic_scores,
)
from .ccr import CcrResult, SelfPolicy, ccr_efficiency, ccr_scores
from .dataio import (
    FuzzyDataset,
    Report,
    ReportRow,
    fixture_path,
    list_fixtures,
    load_dataset,
    load_dataset_path,
    load_fixture,
    read_report,
    write_dataset,
    write_report,
)
from .linprog import LpOutcome, LpProblem, LpStatus, solve
from .mofdea import (
    ALPHA_MODES,
    DEFAULT_ALPHA_MODE,
    MoConfig,
    MoResult,
    beta_level,
    eff_at,
    evaluate_all,
    reduced_data,
    solve_mo,
    z_star,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BACKEND",
    "errors",
    # linprog
    "LpProblem",
    "LpOutcome",
    "LpStatus",
    "solve",
    # ccr
    "SelfPolicy",
    "CcrResult",
    "ccr_efficiency",
    "ccr_scores",
    # alphacut
    "AlphaScore",
    "alphacut_reduce",
    "pessimistic_reduce",
    "modal_reduce",
    "alphacut_scores",
    "pessimistic_scores",
    # mofdea
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
    # dataio
    "FuzzyDataset",
    "load_dataset",
    "load_dataset_path",
    "write_dataset",
    "fixture_path",
    "load_fixture",
    "list_fixtures",
    "Report",
    "ReportRow",
    "write_report",
    "read_report",
]
