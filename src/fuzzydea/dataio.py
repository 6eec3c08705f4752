"""Datasets of triangular-fuzzy DMUs, serialization, and result reports.

Formats:
  JSON  {"name": ..., "inputs": [...], "outputs": [...], "dmus":
         [{"name": ..., "inputs": [[l,m,u] | x, ...], "outputs": [...]}]}
  CSV   header ``dmu,in:<name>,...,out:<name>,...``; fuzzy cells are
        ``l;m;u``, crisp cells plain numbers.  Optional leading
        ``# name=<dataset name>`` comment.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DataError, OrderingViolation, ParseError, SchemaError
from .trifuzzy import TriFuzzy

__all__ = [
    "FuzzyDmu",
    "FuzzyDataset",
    "load_dataset",
    "load_dataset_path",
    "write_dataset",
    "fixture_path",
    "load_fixture",
    "list_fixtures",
    "Deviation",
    "ReportRow",
    "Report",
    "write_report",
    "read_report",
]

DATASET_FORMATS = ("json", "csv")
REPORT_FORMATS = ("md", "csv", "json")


@dataclass(frozen=True)
class FuzzyDmu:
    name: str
    inputs: Tuple[TriFuzzy, ...]
    outputs: Tuple[TriFuzzy, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))


@dataclass(frozen=True)
class FuzzyDataset:
    """Named collection of DMUs sharing input/output coordinates."""

    name: str
    input_names: Tuple[str, ...]
    output_names: Tuple[str, ...]
    dmus: Tuple[FuzzyDmu, ...]

    def __post_init__(self):
        object.__setattr__(self, "input_names", tuple(self.input_names))
        object.__setattr__(self, "output_names", tuple(self.output_names))
        object.__setattr__(self, "dmus", tuple(self.dmus))
        if not self.input_names:
            raise DataError("dataset needs at least one input coordinate")
        if not self.output_names:
            raise DataError("dataset needs at least one output coordinate")
        if not self.dmus:
            raise DataError("dataset has no DMUs")
        names = [d.name for d in self.dmus]
        if len(set(names)) != len(names):
            raise DataError("DMU names must be unique")
        for d in self.dmus:
            if len(d.inputs) != len(self.input_names):
                raise DataError(
                    f"DMU {d.name!r}: {len(d.inputs)} inputs, "
                    f"expected {len(self.input_names)}"
                )
            if len(d.outputs) != len(self.output_names):
                raise DataError(
                    f"DMU {d.name!r}: {len(d.outputs)} outputs, "
                    f"expected {len(self.output_names)}"
                )
            for label, items, coord_names in (
                ("input", d.inputs, self.input_names),
                ("output", d.outputs, self.output_names),
            ):
                for coord, tri in zip(coord_names, items):
                    if tri.lower <= 0.0:
                        raise DataError(
                            f"DMU {d.name!r} {label} {coord!r}: bounds must be "
                            f"strictly positive, got lower bound {tri.lower}"
                        )

    @property
    def n_dmus(self) -> int:
        return len(self.dmus)

    @property
    def n_inputs(self) -> int:
        return len(self.input_names)

    @property
    def n_outputs(self) -> int:
        return len(self.output_names)

    @property
    def dmu_names(self) -> Tuple[str, ...]:
        return tuple(d.name for d in self.dmus)

    def index_of(self, name: str) -> int:
        for j, d in enumerate(self.dmus):
            if d.name == name:
                return j
        raise DataError(f"unknown DMU {name!r}")

    @cached_property
    def bounds(self) -> np.ndarray:
        """Read-only lower, modal and upper values: (3, inputs + outputs, DMUs)."""
        cells = [
            [(t.lower, t.modal, t.upper) for t in d.inputs + d.outputs]
            for d in self.dmus
        ]
        arr = np.ascontiguousarray(np.array(cells, dtype=np.float64).transpose(2, 1, 0))
        arr.flags.writeable = False
        return arr


def _tri_from_cell(value, where: str) -> TriFuzzy:
    if isinstance(value, bool):
        raise SchemaError(f"{where}: expected a number or [l, m, u], got {value!r}")
    if isinstance(value, (int, float)):
        return TriFuzzy(float(value), float(value), float(value))
    if isinstance(value, (list, tuple)):
        if len(value) != 3 or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in value
        ):
            raise SchemaError(f"{where}: expected [l, m, u] numbers, got {value!r}")
        try:
            return TriFuzzy(float(value[0]), float(value[1]), float(value[2]))
        except OrderingViolation as exc:
            raise DataError(f"{where}: {exc}") from None
    raise SchemaError(f"{where}: expected a number or [l, m, u], got {value!r}")


def _dataset_from_json(raw: str) -> FuzzyDataset:
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    for key, kind in (("inputs", list), ("outputs", list), ("dmus", list)):
        if key not in doc:
            raise SchemaError(f"missing top-level key {key!r}")
        if not isinstance(doc[key], kind):
            raise SchemaError(f"{key!r} must be an array")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise SchemaError("'name' must be a string")
    for key in ("inputs", "outputs"):
        if not all(isinstance(v, str) for v in doc[key]):
            raise SchemaError(f"{key!r} must be an array of strings")

    dmus = []
    for k, entry in enumerate(doc["dmus"]):
        if not isinstance(entry, dict):
            raise SchemaError(f"dmus[{k}] must be an object")
        if "name" not in entry or not isinstance(entry["name"], str):
            raise SchemaError(f"dmus[{k}] needs a string 'name'")
        dname = entry["name"]
        cells = {}
        for key in ("inputs", "outputs"):
            if key not in entry or not isinstance(entry[key], list):
                raise SchemaError(f"dmus[{k}] ({dname!r}) needs an array {key!r}")
            cells[key] = tuple(
                _tri_from_cell(v, f"DMU {dname!r} {key}[{i}]")
                for i, v in enumerate(entry[key])
            )
        dmus.append(FuzzyDmu(dname, cells["inputs"], cells["outputs"]))

    return FuzzyDataset(
        name=name,
        input_names=tuple(doc["inputs"]),
        output_names=tuple(doc["outputs"]),
        dmus=tuple(dmus),
    )


def _parse_number(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{where}: not a number: {text!r}") from None


def _tri_from_csv_cell(text: str, where: str) -> TriFuzzy:
    text = text.strip()
    if not text:
        raise ParseError(f"{where}: empty cell")
    parts = text.split(";")
    if len(parts) == 1:
        v = _parse_number(parts[0], where)
        return TriFuzzy(v, v, v)
    if len(parts) != 3:
        raise ParseError(f"{where}: expected 'l;m;u' or a single number, got {text!r}")
    l, m, u = (_parse_number(p, where) for p in parts)
    try:
        return TriFuzzy(l, m, u)
    except OrderingViolation as exc:
        raise DataError(f"{where}: {exc}") from None


def _dataset_from_csv(raw: str) -> FuzzyDataset:
    name = ""
    lines = raw.splitlines()
    body_start = 0
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("#"):
            comment = stripped.lstrip("#").strip()
            if comment.startswith("name="):
                name = comment[len("name=") :].strip()
            body_start += 1
        elif stripped == "":
            body_start += 1
        else:
            break
    reader = csv.reader(io.StringIO("\n".join(lines[body_start:])))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("CSV has no header row") from None
    if not header or header[0].strip() != "dmu":
        raise SchemaError("CSV header must start with a 'dmu' column")

    input_names, output_names = [], []
    for col in header[1:]:
        col = col.strip()
        if col.startswith("in:"):
            if output_names:
                raise SchemaError("input columns must precede output columns")
            input_names.append(col[3:])
        elif col.startswith("out:"):
            output_names.append(col[4:])
        else:
            raise SchemaError(f"CSV column {col!r} must be prefixed 'in:' or 'out:'")

    dmus = []
    n_cols = len(header)
    for rownum, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != n_cols:
            raise SchemaError(
                f"row {rownum}: {len(row)} cells, header has {n_cols}"
            )
        dname = row[0].strip()
        if not dname:
            raise SchemaError(f"row {rownum}: empty DMU name")
        tris = [
            _tri_from_csv_cell(cell, f"row {rownum} ({dname!r}) column {header[1 + i]!r}")
            for i, cell in enumerate(row[1:])
        ]
        k = len(input_names)
        dmus.append(FuzzyDmu(dname, tuple(tris[:k]), tuple(tris[k:])))

    return FuzzyDataset(
        name=name,
        input_names=tuple(input_names),
        output_names=tuple(output_names),
        dmus=tuple(dmus),
    )


def load_dataset(raw: Union[str, bytes], format: str) -> FuzzyDataset:
    """Parse dataset text in the given format ("json" or "csv")."""
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from None
    if format == "json":
        return _dataset_from_json(raw)
    if format == "csv":
        return _dataset_from_csv(raw)
    raise ParseError(f"unknown dataset format {format!r}; use one of {DATASET_FORMATS}")


def load_dataset_path(path: Union[str, Path]) -> FuzzyDataset:
    """Load a dataset file, inferring the format from its suffix."""
    path = Path(path)
    suffix = path.suffix.lower().lstrip(".")
    if suffix not in DATASET_FORMATS:
        raise ParseError(
            f"cannot infer format from {path.name!r}; expected a .json or .csv file"
        )
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return load_dataset(raw, suffix)


def _cell_json(tri: TriFuzzy):
    if tri.is_crisp:
        return tri.modal
    return [tri.lower, tri.modal, tri.upper]


def _cell_csv(tri: TriFuzzy) -> str:
    if tri.is_crisp:
        return repr(tri.modal)
    return f"{tri.lower!r};{tri.modal!r};{tri.upper!r}"


def write_dataset(data: FuzzyDataset, format: str = "json") -> str:
    """Serialize a dataset; load_dataset(write_dataset(d), fmt) == d."""
    if format == "json":
        doc = {
            "name": data.name,
            "inputs": list(data.input_names),
            "outputs": list(data.output_names),
            "dmus": [
                {
                    "name": d.name,
                    "inputs": [_cell_json(t) for t in d.inputs],
                    "outputs": [_cell_json(t) for t in d.outputs],
                }
                for d in data.dmus
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    if format == "csv":
        out = io.StringIO()
        if data.name:
            out.write(f"# name={data.name}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["dmu"]
            + [f"in:{c}" for c in data.input_names]
            + [f"out:{c}" for c in data.output_names]
        )
        for d in data.dmus:
            writer.writerow(
                [d.name]
                + [_cell_csv(t) for t in d.inputs]
                + [_cell_csv(t) for t in d.outputs]
            )
        return out.getvalue()
    raise ParseError(f"unknown dataset format {format!r}; use one of {DATASET_FORMATS}")


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture dataset (e.g. "guo_tanaka")."""
    base = resources.files(__package__) / "fixtures" / f"{name}.json"
    with resources.as_file(base) as p:
        if not p.exists():
            raise DataError(
                f"unknown fixture {name!r}; available: {', '.join(list_fixtures())}"
            )
        return Path(p)


def list_fixtures() -> Tuple[str, ...]:
    folder = resources.files(__package__) / "fixtures"
    return tuple(
        sorted(p.name[: -len(".json")] for p in folder.iterdir() if p.name.endswith(".json"))
    )


def load_fixture(name: str) -> FuzzyDataset:
    return load_dataset_path(fixture_path(name))


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class Deviation:
    """A computed value that disagrees with a published reference value."""

    expected: float
    computed: float
    citation: str


@dataclass(frozen=True)
class ReportRow:
    dmu: str
    alpha: float
    score: float
    h_star: Optional[float] = None
    z_star: Optional[float] = None
    mo_score: Optional[float] = None
    rank: Optional[int] = None


@dataclass(frozen=True)
class Report:
    """Model evaluation results: one row per (DMU, alpha) pair."""

    model: str
    policy: str
    alphas: Tuple[float, ...]
    rows: Tuple[ReportRow, ...]
    deviations: Tuple[Deviation, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(self.alphas))
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "deviations", tuple(self.deviations))
        dmus = {r.dmu for r in self.rows}
        if self.rows and len(self.rows) != len(dmus) * len(self.alphas):
            raise DataError(
                f"report shape mismatch: {len(self.rows)} rows for "
                f"{len(dmus)} DMUs x {len(self.alphas)} alpha levels"
            )

    def row_for(self, dmu: str, alpha: float) -> ReportRow:
        for r in self.rows:
            if r.dmu == dmu and r.alpha == alpha:
                return r
        raise DataError(f"no report row for DMU {dmu!r} at alpha={alpha}")


def _fmt(x: Optional[float], places: int = 4) -> str:
    return "" if x is None else f"{x:.{places}f}"


def _md_table(headers, rows) -> str:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines) + "\n"


def _report_md(report: Report) -> str:
    out = [f"# {report.model} report", ""]
    out.append(f"policy: {report.policy}")
    out.append("")
    dmu_order = []
    for r in report.rows:
        if r.dmu not in dmu_order:
            dmu_order.append(r.dmu)

    if report.model == "compare":
        headers = ["alpha", "dmu", "alpha-cut", "mo", "gap"]
        rows = [
            (
                f"{r.alpha:g}",
                r.dmu,
                _fmt(r.score),
                _fmt(r.mo_score),
                _fmt(None if r.mo_score is None else r.score - r.mo_score),
            )
            for r in report.rows
        ]
        out.append(_md_table(headers, rows))
    elif report.model == "zstar":
        out.append(_md_table(["dmu", "z*"], [(r.dmu, _fmt(r.score)) for r in report.rows]))
    elif report.model == "mo" and len(report.alphas) == 1:
        headers = ["dmu", "h*", "efficiency", "z*", "rank"]
        rows = [
            (r.dmu, _fmt(r.h_star), _fmt(r.score), _fmt(r.z_star), r.rank or "")
            for r in report.rows
        ]
        out.append(_md_table(headers, rows))
    elif report.model == "ccr":
        out.append(
            _md_table(["dmu", "efficiency"], [(r.dmu, _fmt(r.score)) for r in report.rows])
        )
    else:
        # score matrix: one row per alpha level, one column per DMU
        headers = ["alpha"] + list(dmu_order)
        rows = []
        if dmu_order:
            for a in report.alphas:
                cells = [f"{a:g}"]
                for dmu in dmu_order:
                    cells.append(_fmt(report.row_for(dmu, a).score))
                rows.append(cells)
        out.append(_md_table(headers, rows))

    if report.deviations:
        out.append("## deviations")
        out.append("")
        out.append(
            _md_table(
                ["expected", "computed", "citation"],
                [
                    (_fmt(d.expected), _fmt(d.computed), d.citation)
                    for d in report.deviations
                ],
            )
        )
    return "\n".join(out)


def _report_csv(report: Report) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["model", "policy", "dmu", "alpha", "score", "h_star", "z_star", "mo_score", "rank"]
    )
    for r in report.rows:
        writer.writerow(
            [
                report.model,
                report.policy,
                r.dmu,
                repr(r.alpha),
                repr(r.score),
                "" if r.h_star is None else repr(r.h_star),
                "" if r.z_star is None else repr(r.z_star),
                "" if r.mo_score is None else repr(r.mo_score),
                "" if r.rank is None else r.rank,
            ]
        )
    if report.deviations:
        writer.writerow([])
        writer.writerow(["expected", "computed", "citation"])
        for d in report.deviations:
            writer.writerow([repr(d.expected), repr(d.computed), d.citation])
    return out.getvalue()


def _row_dict(r: ReportRow) -> dict:
    doc = {"dmu": r.dmu, "alpha": r.alpha, "score": r.score}
    if r.h_star is not None:
        doc["h_star"] = r.h_star
    if r.z_star is not None:
        doc["z_star"] = r.z_star
    if r.mo_score is not None:
        doc["mo_score"] = r.mo_score
    if r.rank is not None:
        doc["rank"] = r.rank
    return doc


def _report_json(report: Report) -> str:
    doc = {
        "model": report.model,
        "policy": report.policy,
        "alphas": list(report.alphas),
        "rows": [_row_dict(r) for r in report.rows],
        "deviations": [
            {"expected": d.expected, "computed": d.computed, "citation": d.citation}
            for d in report.deviations
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def write_report(report: Report, format: str = "md") -> str:
    """Render a report deterministically as markdown, CSV, or JSON."""
    if format == "md":
        return _report_md(report)
    if format == "csv":
        return _report_csv(report)
    if format == "json":
        return _report_json(report)
    raise ParseError(f"unknown report format {format!r}; use one of {REPORT_FORMATS}")


def read_report(raw: Union[str, bytes]) -> Report:
    """Parse a JSON report produced by write_report(..., "json")."""
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON report: {exc}") from None
    try:
        rows = tuple(
            ReportRow(
                dmu=r["dmu"],
                alpha=float(r["alpha"]),
                score=float(r["score"]),
                h_star=r.get("h_star"),
                z_star=r.get("z_star"),
                mo_score=r.get("mo_score"),
                rank=r.get("rank"),
            )
            for r in doc["rows"]
        )
        deviations = tuple(
            Deviation(float(d["expected"]), float(d["computed"]), str(d["citation"]))
            for d in doc.get("deviations", ())
        )
        return Report(
            model=doc["model"],
            policy=doc["policy"],
            alphas=tuple(float(a) for a in doc["alphas"]),
            rows=rows,
            deviations=deviations,
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed report document: {exc}") from None
