"""Datasets of triangular-fuzzy DMUs, serialization, and result reports.

A dataset is its names and `bounds`, one buffer of every cell's lower,
modal and upper value; the loaders and its constructor fill it.

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
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import DataError, ParseError, SchemaError

__all__ = [
    "FuzzyDataset",
    "load_dataset",
    "load_dataset_path",
    "write_dataset",
    "fixture_path",
    "load_fixture",
    "list_fixtures",
    "ReportRow",
    "Report",
    "write_report",
    "read_report",
]

DATASET_FORMATS = ("json", "csv")
REPORT_FORMATS = ("md", "csv", "json")
_FIXTURES = Path(__file__).parent / "fixtures"


class FuzzyDataset:
    """Named collection of DMUs sharing input/output coordinates.

    FuzzyDataset(name, input_names, output_names, units) takes each unit
    as (name, inputs, outputs), a cell as the JSON format holds it: an int
    or a float, or an (l, m, u) list or tuple.  It checks them as the JSON
    loader does, with its messages.  The cells are one buffer of doubles,
    `bounds`: the read-only, C-contiguous lower, modal and upper values,
    shaped (3, inputs + outputs, DMUs).  `dmu_names` holds the DMUs' names
    in order.  Two datasets are equal when their names and cells are.
    """

    def __init__(self, name, input_names, output_names, units):
        if not isinstance(name, str):
            raise SchemaError("'name' must be a string")
        for key, columns in (("inputs", input_names), ("outputs", output_names)):
            if not isinstance(columns, _ARRAY):
                raise SchemaError(f"{key!r} must be an array")
            if not all(isinstance(v, str) for v in columns):
                raise SchemaError(f"{key!r} must be an array of strings")
        names, shapes, cells = [], [], []
        for k, (dname, inputs, outputs) in enumerate(units):
            if not isinstance(dname, str):
                raise SchemaError(f"dmus[{k}] needs a string 'name'")
            for key, row in (("inputs", inputs), ("outputs", outputs)):
                if not isinstance(row, _ARRAY):
                    raise SchemaError(f"dmus[{k}] ({dname!r}) needs an array {key!r}")
                _json_cells(row, dname, key, cells)
            names.append(dname)
            shapes.append((len(inputs), len(outputs)))
        _fill(self, name, input_names, output_names, names, shapes, cells)

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r}")

    def __setstate__(self, state):
        # pickle and copy.deepcopy rebuild bounds as a writeable array.
        vars(self).update(state)
        self.bounds.flags.writeable = False

    def __repr__(self):
        return (f"<FuzzyDataset {self.name!r}: DMUs {self.dmu_names!r}, inputs "
                f"{self.input_names!r}, outputs {self.output_names!r}>")

    def _key(self):
        # Every cell is finite and > 0, so equal bytes are equal floats.
        return (self.name, self.input_names, self.output_names, self.dmu_names,
                self.bounds.tobytes())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def n_dmus(self) -> int:
        return len(self.dmu_names)

    @property
    def n_inputs(self) -> int:
        return len(self.input_names)

    @property
    def n_outputs(self) -> int:
        return len(self.output_names)

    def index_of(self, name: str) -> int:
        try:
            return self.dmu_names.index(name)
        except ValueError:
            raise DataError(f"unknown DMU {name!r}") from None


def _fill(data: FuzzyDataset, name, input_names, output_names, names, shapes, cells):
    """data with its names and bounds set, from the DMUs called names,
    their (inputs, outputs) counts shapes and cells, every cell's lower,
    modal and upper value in order, DMU by DMU.  The cells are checked
    already; the dataset's rules are checked here, in order.  The CSV
    loader and reduce_at pass a bare object.__new__(FuzzyDataset)."""
    vars(data).update(name=name, input_names=tuple(input_names),
                      output_names=tuple(output_names))
    m, s = data.n_inputs, data.n_outputs
    for fault, message in ((not m, "dataset needs at least one input coordinate"),
                           (not s, "dataset needs at least one output coordinate"),
                           (not names, "dataset has no DMUs"),
                           ("" in names, "DMU names must not be empty"),
                           (len(set(names)) != len(names), "DMU names must be unique")):
        if fault:
            raise DataError(message)
    lows = cells[0::3]
    if shapes.count((m, s)) != len(shapes) or min(lows) <= 0.0:
        coords = [("input", c) for c in data.input_names] + [
            ("output", c) for c in data.output_names]
        for j, (name, shape) in enumerate(zip(names, shapes)):
            for label, count, expected in zip(("inputs", "outputs"), shape, (m, s)):
                if count != expected:
                    raise DataError(f"DMU {name!r}: {count} {label}, expected {expected}")
            for (label, coord), low in zip(coords, lows[j * (m + s):]):
                if low <= 0.0:
                    raise DataError(f"DMU {name!r} {label} {coord!r}: bounds must be "
                                    f"strictly positive, got lower bound {low}")
    bounds = np.array(cells, dtype=np.float64).reshape(len(names), m + s, 3).T.copy()
    bounds.flags.writeable = False
    vars(data).update(dmu_names=tuple(names), bounds=bounds)
    return data


_NUMBER = {int, float}
_ARRAY = (list, tuple)
_INF = float("inf")


def _floats(values, where):
    """Three numbers or number texts as floats, lower, modal and upper;
    a DataError or ParseError naming the cell where() unless they are
    finite and in order."""
    try:
        low, mid, up = map(float, values)
    except OverflowError:
        raise DataError(f"{where()}: integer too large for a float") from None
    except ValueError:
        raise _not_a_number(values, where) from None
    if not -_INF < low <= mid <= up < _INF:
        fault = ("out of order:" if all(-_INF < x < _INF for x in (low, mid, up))
                 else "must be finite, got")
        raise DataError(f"{where()}: triangular bounds {fault} ({low}, {mid}, {up})")
    return low, mid, up


def _not_a_number(texts, where) -> ParseError:
    """The ParseError of the first of texts that is not a number.  float()
    reads '1_5' as 15; a JSON number cannot hold a '_', nor can a CSV cell."""
    for text in texts:
        try:
            float(text.replace("_", "x"))  # no float text holds an "x"
        except ValueError:
            return ParseError(f"{where()}: not a number: {text!r}")


def _json_cells(row, dname, key, cells) -> None:
    """Append the checked values of row, DMU dname's key cells, each a
    number or an [l, m, u] list or tuple, to cells."""
    for i, value in enumerate(row):
        cell = [value] * 3 if type(value) in _NUMBER else value
        if isinstance(cell, _ARRAY) and len(cell) == 3:
            low, mid, up = cell
            if type(low) is type(mid) is type(up) is float and -_INF < low <= mid <= up < _INF:
                cells += cell
                continue
            if set(map(type, cell)) <= _NUMBER:
                cells += _floats(cell, lambda: f"DMU {dname!r} {key}[{i}]")
                continue
        got = "[l, m, u] numbers" if isinstance(value, _ARRAY) else "a number or [l, m, u]"
        raise SchemaError(f"DMU {dname!r} {key}[{i}]: expected {got}, got {value!r}")


def _dataset_from_json(raw: str) -> FuzzyDataset:
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # also an integer past int()'s digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    for key, kind in (("inputs", list), ("outputs", list), ("dmus", list)):
        if key not in doc:
            raise SchemaError(f"missing top-level key {key!r}")
        if not isinstance(doc[key], kind):
            raise SchemaError(f"{key!r} must be an array")

    def units():
        for k, entry in enumerate(doc["dmus"]):
            if not isinstance(entry, dict):
                raise SchemaError(f"dmus[{k}] must be an object")
            yield entry.get("name"), entry.get("inputs"), entry.get("outputs")

    return FuzzyDataset(doc.get("name", ""), doc["inputs"], doc["outputs"], units())


def _csv_cell(text: str, where):
    """The checked values of a CSV cell, 'l;m;u' or a single number."""
    text = text.strip()
    if not text:
        raise ParseError(f"{where()}: empty cell")
    parts = text.split(";")
    if len(parts) == 1:
        parts *= 3
    elif len(parts) != 3:
        raise ParseError(f"{where()}: expected 'l;m;u' or a single number, got {text!r}")
    if "_" in text:
        raise _not_a_number(parts, where)
    return _floats(parts, where)


def _dataset_from_csv(raw: str) -> FuzzyDataset:
    name = ""
    lines = raw.splitlines()
    body_start = 0
    for line in lines:  # comments and blank lines before the header
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            break
        comment = stripped.lstrip("#").strip()
        if comment.startswith("name="):
            name = comment[len("name=") :].strip()
        body_start += 1
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

    names, cells = [], []
    n_cols = len(header)
    for rownum, row in enumerate(reader, start=2):
        if not "".join(row).strip():
            continue
        if len(row) != n_cols:
            raise SchemaError(f"row {rownum}: {len(row)} cells, header has {n_cols}")
        dname = row[0].strip()
        if not dname:
            raise SchemaError(f"row {rownum}: empty DMU name")
        for col, text in zip(header[1:], row[1:]):
            cells += _csv_cell(text, lambda: f"row {rownum} ({dname!r}) column {col!r}")
        names.append(dname)
    shapes = [(len(input_names), len(output_names))] * len(names)
    return _fill(object.__new__(FuzzyDataset), name, input_names, output_names,
                 names, shapes, cells)


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
        raise ParseError(f"cannot infer format from {path.name!r}; expected a .json or .csv file")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return load_dataset(raw, suffix)


def _cell_json(cell):
    """A crisp cell, lower == upper, as its modal value, else [l, m, u]."""
    return cell[1] if cell[0] == cell[2] else cell


def _cell_csv(cell) -> str:
    low, mid, up = cell
    return repr(mid) if low == up else f"{low!r};{mid!r};{up!r}"


def write_dataset(data: FuzzyDataset, format: str = "json") -> str:
    """Serialize a dataset; load_dataset(write_dataset(d), fmt) == d, or
    DataError for a name that CSV cannot hold."""
    m = data.n_inputs
    # Each DMU's [l, m, u] cells, inputs then outputs.
    units = list(zip(data.dmu_names, data.bounds.T.tolist()))
    if format == "json":
        doc = {
            "name": data.name,
            "inputs": list(data.input_names),
            "outputs": list(data.output_names),
            "dmus": [
                {
                    "name": name,
                    "inputs": [_cell_json(c) for c in cells[:m]],
                    "outputs": [_cell_json(c) for c in cells[m:]],
                }
                for name, cells in units
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    if format == "csv":
        # The loader strips names and reads any line break as a line feed:
        # refuse what would not read back.
        for field, names in (("dataset name", [data.name]), ("DMU name", data.dmu_names),
                             ("column name", data.input_names + data.output_names)):
            for text in names:
                if text.strip() != text or len(text.splitlines()) > 1:
                    raise DataError(f"CSV cannot hold {field} {text!r}: a name there is one "
                                    "line with no white space at its ends")
        out = io.StringIO()
        if data.name:
            out.write(f"# name={data.name}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["dmu"] + [f"in:{c}" for c in data.input_names]
                        + [f"out:{c}" for c in data.output_names])
        for name, cells in units:
            writer.writerow([name] + [_cell_csv(c) for c in cells])
        return out.getvalue()
    raise ParseError(f"unknown dataset format {format!r}; use one of {DATASET_FORMATS}")


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture dataset (e.g. "guo_tanaka");
    DataError for a name that list_fixtures() does not give."""
    if name not in (names := list_fixtures()):
        raise DataError(f"unknown fixture {name!r}; available: {', '.join(names)}")
    return _FIXTURES / f"{name}.json"


def list_fixtures() -> Tuple[str, ...]:
    return tuple(sorted(p.stem for p in _FIXTURES.glob("*.json")))


def load_fixture(name: str) -> FuzzyDataset:
    return load_dataset_path(fixture_path(name))


# ---------------------------------------------------------------------------
# Reports


class ReportRow(NamedTuple):
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

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(self.alphas))
        object.__setattr__(self, "rows", tuple(self.rows))
        units = {r.dmu for r in self.rows}
        if self.rows and len(self.rows) != len(units) * len(self.alphas):
            raise DataError(f"report shape mismatch: {len(self.rows)} rows for "
                            f"{len(units)} DMUs x {len(self.alphas)} alpha levels")

    def row_for(self, dmu: str, alpha: float) -> ReportRow:
        for r in self.rows:
            if r.dmu == dmu and r.alpha == alpha:
                return r
        raise DataError(f"no report row for DMU {dmu!r} at alpha={alpha}")


def _fmt(x: Optional[float], places: int = 4) -> str:
    return "" if x is None else f"{x:.{places}f}"


def _md_table(headers, rows) -> str:
    """A GitHub-flavoured Markdown table; a "|" in a cell is escaped as "\\|"."""
    def line(cells):
        return "| " + " | ".join(str(c).replace("|", "\\|") for c in cells) + " |"

    rule = "|" + "|".join(" --- " for _ in headers) + "|"
    return "\n".join([line(headers), rule, *map(line, rows)]) + "\n"


def _report_md(report: Report) -> str:
    out = [f"# {report.model} report", "", f"policy: {report.policy}", ""]
    dmu_order = list(dict.fromkeys(r.dmu for r in report.rows))

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
        # row_for's row, the first at (dmu, alpha) by ==, so -0.0 finds
        # 0.0, a repeated alpha its first row and a NaN alpha none.
        first = {}
        for r in report.rows:
            if r.alpha == r.alpha:
                first.setdefault((r.dmu, r.alpha), r)
        rows = []
        if dmu_order:
            for a in report.alphas:
                cells = [f"{a:g}"]
                for dmu in dmu_order:
                    r = first.get((dmu, a)) or report.row_for(dmu, a)
                    cells.append(_fmt(r.score))
                rows.append(cells)
        out.append(_md_table(headers, rows))
    return "\n".join(out)


def _report_csv(report: Report) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["model", "policy", *ReportRow._fields])
    # The writer writes None as "", and a float in full (str is repr for a float).
    writer.writerows((report.model, report.policy, *r) for r in report.rows)
    return out.getvalue()


# json's words for the constants, and for the floats repr spells otherwise
_JSON_WORDS = {None: "null", True: "true", False: "false",
               "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_scalar(x) -> str:
    """x, a str, None, bool, int or float, as json.dumps writes it; any
    other value raises json's TypeError."""
    if isinstance(x, float):
        text = float.__repr__(x)
        return _JSON_WORDS.get(text, text)
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or x is True or x is False:
        return _JSON_WORDS[x]
    if isinstance(x, int):
        return int.__repr__(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _row_templates(kinds):
    """(fast, general): the templates of a report row whose values have the
    exact types kinds; "%.0s" drops a None past score.  general takes each
    value's _json_scalar text.  fast, unless None, takes dmu's json text
    and the other values, each a float or an int, for "%r" to write."""
    pieces, fast = [], kinds[0] is str
    for k, (key, kind) in enumerate(zip(ReportRow._fields, kinds)):
        if k >= 3 and kind is type(None):
            pieces[-1] += "%.0s"
        else:
            pieces.append(f'"{key}": %s')
            fast = fast and (k == 0 or kind is float or kind is int)
    general = "{\n      " + ",\n      ".join(pieces) + "\n    }"
    return fast and general.replace("%s", "%r").replace("%r", "%s", 1), general


def _report_json(report: Report) -> str:
    """json.dumps(doc, indent=2) + "\n" of the report's document, byte for
    byte, without the pure-Python encoder that json.dumps runs whenever it
    indents.  A row's fields past score are left out when None.  Each row
    fills the template of its values' types."""
    templates, rows = {}, []
    for values in report.rows:
        kinds = tuple(map(type, values))
        fast, general = templates.get(kinds) or templates.setdefault(kinds, _row_templates(kinds))
        text = fast and fast % ((encode_basestring_ascii(values[0]),) + values[1:])
        if not text or "nan" in text or "inf" in text:  # json spells these NaN, Infinity
            text = general % tuple(map(_json_scalar, values))
        rows.append(text)
    alphas, rows = (
        "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"
        for items in ([_json_scalar(a) for a in report.alphas], rows)
    )
    return (
        f'{{\n  "model": {_json_scalar(report.model)},\n'
        f'  "policy": {_json_scalar(report.policy)},\n'
        f'  "alphas": {alphas},\n  "rows": {rows},\n'
        # Kept so that reports stay byte-identical to earlier versions.
        '  "deviations": []\n}\n'
    )


def write_report(report: Report, format: str = "md") -> str:
    """Render a report deterministically as markdown, CSV, or JSON."""
    if format == "md":
        return _report_md(report)
    if format == "csv":
        return _report_csv(report)
    if format == "json":
        return _report_json(report)
    raise ParseError(f"unknown report format {format!r}; use one of {REPORT_FORMATS}")


def _check(value, key: str, kind: str):
    """value of report field key, TypeError unless it is of the JSON kind
    "string", "number" (returned as a float) or "integer", and no bool."""
    types = {"string": str, "number": (int, float), "integer": int}[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(f"{key!r} must be a JSON {kind}, got {value!r}")
    return float(value) if kind == "number" else value


def read_report(raw: Union[str, bytes]) -> Report:
    """Parse a JSON report produced by write_report(..., "json").

    model, policy and dmu must be strings; alphas, alpha and score JSON
    numbers, kept as floats, as must be h_star, z_star and mo_score unless
    absent or null; rank, unless absent or null, an integer.  Anything else
    raises SchemaError naming the field, so every format renders the result.
    """
    try:
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        doc = json.loads(raw)
    except ValueError as exc:  # also bad UTF-8 and integers past int()'s limit
        raise ParseError(f"invalid JSON report: {exc}") from None
    try:
        rows = tuple(
            ReportRow(
                _check(r["dmu"], "dmu", "string"),
                _check(r["alpha"], "alpha", "number"),
                _check(r["score"], "score", "number"),
                *(None if r.get(k) is None else _check(r[k], k, "number")
                  for k in ("h_star", "z_star", "mo_score")),
                rank=None if r.get("rank") is None else _check(r["rank"], "rank", "integer"),
            )
            for r in doc["rows"]
        )
        return Report(
            model=_check(doc["model"], "model", "string"),
            policy=_check(doc["policy"], "policy", "string"),
            alphas=tuple(_check(a, "alphas", "number") for a in doc["alphas"]),
            rows=rows,
        )
    except DataError:  # a ValueError too: the rows do not fit the alphas
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed report document: {exc}") from None
