"""Batch command line: evaluate fuzzy DEA models over dataset files.

Subcommands:
  eval     score every DMU under --model ccr | alpha | mo
  zstar    full-support ideal scores (the mo model's ratio target at
           alpha = 0 and under --alpha-mode floor)
  compare  alpha-cut vs mo efficiency side by side

Exit codes: 0 success, 1 data/validation problem, 2 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import List, Optional, Sequence

from .alphacut import alphacut_scores, modal_reduce
from .ccr import SelfPolicy, ccr_efficiency
from .dataio import (
    REPORT_FORMATS,
    FuzzyDataset,
    Report,
    ReportRow,
    fixture_path,
    load_dataset_path,
    write_report,
)
from .errors import FuzzyDeaError, NumericalBreakdown, SolverFailure
from .mofdea import ALPHA_MODES, DEFAULT_ALPHA_MODE, MoConfig, evaluate_all, z_star

__all__ = ["main"]

DEFAULT_ALPHAS = "0,0.5,0.75,1"


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; we reserve 2 for solver failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub: argparse.ArgumentParser, with_alpha: bool = True) -> None:
    sub.add_argument(
        "--data",
        required=True,
        help="dataset file (.json or .csv), or fixture:<name> for a bundled one",
    )
    sub.add_argument(
        "--include-self",
        action="store_true",
        help="keep the evaluated DMU's own ratio constraint (default: exclude it)",
    )
    sub.add_argument(
        "--format",
        choices=REPORT_FORMATS,
        default="md",
        help="report format (default: md)",
    )
    if with_alpha:
        sub.add_argument(
            "--alpha",
            default=DEFAULT_ALPHAS,
            help=f"comma-separated alpha levels (default: {DEFAULT_ALPHAS})",
        )
        sub.add_argument(
            "--tol-h",
            type=float,
            default=1e-6,
            help="bisection tolerance on the satisfaction level h (default: 1e-6)",
        )
        sub.add_argument(
            "--alpha-mode",
            choices=ALPHA_MODES,
            default=DEFAULT_ALPHA_MODE,
            help="how alpha combines with h in the mo model: rescale takes the "
            "ideal z* on the alpha-cut, floor on the full support "
            f"(default: {DEFAULT_ALPHA_MODE})",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fuzzydea", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ev = subs.add_parser("eval", help="score every DMU under one model")
    ev.add_argument(
        "--model",
        required=True,
        choices=("ccr", "alpha", "mo"),
        help="ccr: crisp modal; alpha: alpha-cut; mo: multi-objective",
    )
    _add_common(ev)

    zs = subs.add_parser(
        "zstar",
        help="full-support ideal scores per DMU: the mo model's z* at alpha 0 "
        "and under --alpha-mode floor (under rescale at alpha > 0, z* is the "
        "alpha model's score)",
    )
    _add_common(zs, with_alpha=False)
    zs.add_argument("--dmu", help="restrict to one DMU by name")

    cp = subs.add_parser("compare", help="alpha-cut vs mo efficiency per DMU")
    _add_common(cp)

    return parser


@functools.lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process; parse_args leaves it unchanged.

    A parser is a web of reference cycles.  Built afresh on each call it
    outlives the young-generation collections that run during the call,
    and about 180 objects per call then wait for a full collection.
    """
    return build_parser()


def _parse_alphas(text: str) -> List[float]:
    alphas = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            alphas.append(float(part))
        except ValueError:
            raise FuzzyDeaError(f"bad alpha value {part!r} in --alpha") from None
    if not alphas:
        raise FuzzyDeaError("--alpha needs at least one level")
    return alphas


def _load(ref: str) -> FuzzyDataset:
    if ref.startswith("fixture:"):
        return load_dataset_path(fixture_path(ref[len("fixture:") :]))
    return load_dataset_path(ref)


def _policy(args) -> SelfPolicy:
    return SelfPolicy.INCLUDE_SELF if args.include_self else SelfPolicy.EXCLUDE_SELF


def _eval_report(args) -> Report:
    data = _load(args.data)
    policy = _policy(args)

    if args.model == "ccr":
        crisp = modal_reduce(data)
        rows = tuple(
            ReportRow(name, 1.0, ccr_efficiency(crisp, p, policy=policy).efficiency)
            for p, name in enumerate(crisp.names)
        )
        return Report("ccr", policy.value, (1.0,), rows)

    alphas = _parse_alphas(args.alpha)
    rows = []
    if args.model == "alpha":
        for a in alphas:
            for sc in alphacut_scores(data, a, policy=policy):
                rows.append(ReportRow(sc.dmu, a, sc.score))
        return Report("alpha", policy.value, tuple(alphas), tuple(rows))

    for a in alphas:
        cfg = MoConfig(
            alpha=a, policy=policy, h_tol=args.tol_h, alpha_mode=args.alpha_mode
        )
        ranked = evaluate_all(data, cfg)
        by_name = {r.dmu: r for r in ranked}
        for name in data.dmu_names:
            r = by_name[name]
            rows.append(
                ReportRow(
                    name, a, r.efficiency, h_star=r.h_star, z_star=r.z_star, rank=r.rank
                )
            )
    return Report("mo", policy.value, tuple(alphas), tuple(rows))


def _zstar_report(args) -> Report:
    data = _load(args.data)
    policy = _policy(args)
    if args.dmu is not None:
        indices = [data.index_of(args.dmu)]
    else:
        indices = list(range(data.n_dmus))
    rows = tuple(
        ReportRow(data.dmus[p].name, 0.0, z_star(data, p, policy=policy))
        for p in indices
    )
    return Report("zstar", policy.value, (0.0,), rows)


def _compare_report(args) -> Report:
    data = _load(args.data)
    policy = _policy(args)
    alphas = _parse_alphas(args.alpha)
    rows = []
    for a in alphas:
        cfg = MoConfig(
            alpha=a, policy=policy, h_tol=args.tol_h, alpha_mode=args.alpha_mode
        )
        cut = alphacut_scores(data, a, policy=policy)
        mo = {r.dmu: r for r in evaluate_all(data, cfg)}
        for sc in cut:
            rows.append(
                ReportRow(sc.dmu, a, sc.score, mo_score=mo[sc.dmu].efficiency)
            )
    return Report("compare", policy.value, tuple(alphas), tuple(rows))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "eval":
            report = _eval_report(args)
        elif args.command == "zstar":
            report = _zstar_report(args)
        else:
            report = _compare_report(args)
    except (SolverFailure, NumericalBreakdown) as exc:
        print(f"fuzzydea: solver error: {exc}", file=sys.stderr)
        return 2
    except (FuzzyDeaError, ValueError) as exc:
        print(f"fuzzydea: error: {exc}", file=sys.stderr)
        return 1

    sys.stdout.write(write_report(report, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
