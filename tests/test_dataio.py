import copy
import json
import math
import pickle
import random
import re
from pathlib import Path

import numpy as np
import pytest

from fuzzydea.dataio import (
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
    _report_json,
)
from fuzzydea.errors import DataError, ParseError, SchemaError

from _datagen import units

GOOD_JSON = """
{
  "name": "toy",
  "inputs": ["I1"],
  "outputs": ["O1", "O2"],
  "dmus": [
    {"name": "a", "inputs": [[1, 2, 3]], "outputs": [4, [1, 1.5, 2]]},
    {"name": "b", "inputs": [2.5], "outputs": [[3, 4, 5], 6]}
  ]
}
"""

GOOD_CSV = """# name=toy
dmu,in:I1,out:O1,out:O2
a,1;2;3,4,1;1.5;2
b,2.5,3;4;5,6
"""


class TestJsonLoading:
    def test_loads_shapes_and_values(self):
        ds = load_dataset(GOOD_JSON, "json")
        assert ds.name == "toy"
        assert ds.dmu_names == ("a", "b")
        assert ds.n_inputs == 1 and ds.n_outputs == 2
        assert ds.bounds[:, 0, 0].tolist() == [1, 2, 3]
        assert ds.bounds[:, 1, 0].tolist() == [4, 4, 4]  # scalar shorthand
        assert repr(ds) == ("<FuzzyDataset 'toy': DMUs ('a', 'b'), inputs ('I1',), "
                            "outputs ('O1', 'O2')>")

    def test_accepts_bytes(self):
        assert load_dataset(GOOD_JSON.encode(), "json").name == "toy"

    def test_malformed_json_is_parse_error(self):
        with pytest.raises(ParseError):
            load_dataset("{not json", "json")

    def test_missing_key_is_schema_error(self):
        with pytest.raises(SchemaError):
            load_dataset('{"inputs": [], "outputs": []}', "json")

    def test_bad_cell_is_schema_error(self):
        doc = json.loads(GOOD_JSON)
        doc["dmus"][0]["inputs"][0] = [1, 2]
        with pytest.raises(SchemaError):
            load_dataset(json.dumps(doc), "json")

    def test_unordered_triple_reports_location(self):
        doc = json.loads(GOOD_JSON)
        doc["dmus"][1]["outputs"][0] = [4, 3, 5]
        with pytest.raises(ValueError) as err:
            load_dataset(json.dumps(doc), "json")
        assert "'b'" in str(err.value) and "outputs[0]" in str(err.value)

    @pytest.mark.parametrize(
        "cell", [10**400, [1, 2, 10**400], [10**400] * 3], ids=["number", "upper", "all"]
    )
    def test_integer_too_large_for_a_float_names_the_cell(self, cell):
        doc = json.loads(GOOD_JSON)
        doc["dmus"][1]["inputs"][0] = cell
        with pytest.raises(DataError) as err:
            load_dataset(json.dumps(doc), "json")
        assert str(err.value) == "DMU 'b' inputs[0]: integer too large for a float"

    def test_integer_past_the_digit_limit_is_parse_error(self):
        raw = GOOD_JSON.replace('"inputs": [2.5]', '"inputs": [1' + "0" * 5000 + "]")
        with pytest.raises(ParseError, match="invalid JSON"):
            load_dataset(raw, "json")

    def test_non_positive_lower_bound_rejected(self):
        doc = json.loads(GOOD_JSON)
        doc["dmus"][0]["inputs"][0] = [0, 1, 2]
        with pytest.raises(DataError) as err:
            load_dataset(json.dumps(doc), "json")
        assert "'a'" in str(err.value)

    def test_duplicate_dmu_names(self):
        doc = json.loads(GOOD_JSON)
        doc["dmus"][1]["name"] = "a"
        with pytest.raises(DataError):
            load_dataset(json.dumps(doc), "json")

    def test_empty_dmu_name_rejected(self):
        doc = json.loads(GOOD_JSON)
        doc["dmus"][1]["name"] = ""
        with pytest.raises(DataError, match="^DMU names must not be empty$"):
            load_dataset(json.dumps(doc), "json")


class TestCsvLoading:
    def test_loads_same_as_json(self):
        a = load_dataset(GOOD_JSON, "json")
        b = load_dataset(GOOD_CSV, "csv")
        assert a == b

    def test_header_required(self):
        with pytest.raises(SchemaError):
            load_dataset("a,1,2\n", "csv")

    def test_unprefixed_column(self):
        with pytest.raises(SchemaError):
            load_dataset("dmu,I1,out:O1\na,1,2\n", "csv")

    def test_ragged_row_reports_row_number(self):
        bad = "dmu,in:I1,out:O1\na,1\n"
        with pytest.raises(SchemaError) as err:
            load_dataset(bad, "csv")
        assert "row 2" in str(err.value)

    def test_bad_cell_reports_location(self):
        bad = "dmu,in:I1,out:O1\na,1;2,3\n"
        with pytest.raises(ParseError) as err:
            load_dataset(bad, "csv")
        assert "row 2" in str(err.value) and "in:I1" in str(err.value)

    def test_non_numeric_cell(self):
        with pytest.raises(ParseError):
            load_dataset("dmu,in:I1,out:O1\na,x,3\n", "csv")

    def test_unknown_format(self):
        with pytest.raises(ParseError):
            load_dataset(GOOD_JSON, "yaml")

    def test_empty_dmu_name_names_its_row(self):
        with pytest.raises(SchemaError, match="^row 3: empty DMU name$"):
            load_dataset(GOOD_CSV.replace("\nb,", "\n ,"), "csv")

    @pytest.mark.parametrize("cell,part", [("1_5", "1_5"), ("1;1_5;20", "1_5"), ("x;1_5;2", "x")])
    def test_underscore_in_a_number_is_not_a_number(self, cell, part):
        # float() reads "1_5" as 15.0; a JSON number cannot hold a "_".
        with pytest.raises(ParseError) as err:
            load_dataset(f"dmu,in:I1,out:O1\na,{cell},3\n", "csv")
        assert str(err.value) == f"row 2 ('a') column 'in:I1': not a number: {part!r}"
        with pytest.raises(ParseError, match="invalid JSON"):
            load_dataset(GOOD_JSON.replace("[2.5]", "[1_5]"), "json")


class TestCellBuffer:
    """A dataset keeps its cells in one buffer of doubles."""

    def test_datasets_differing_in_one_cell_are_unequal(self):
        ds = load_dataset(GOOD_JSON, "json")
        cells = units(ds)
        cells[1][2][0] = [3.0, 4.0, 5.5]  # b's first output
        other = FuzzyDataset(ds.name, ds.input_names, ds.output_names, cells)
        assert other.dmu_names == ds.dmu_names and other != ds
        assert other.bounds.tolist() != ds.bounds.tolist()

    def test_attributes_are_read_only(self):
        ds = load_dataset(GOOD_JSON, "json")
        for attr in ("name", "bounds", "dmus"):
            with pytest.raises(AttributeError):
                setattr(ds, attr, None)
        with pytest.raises(AttributeError):
            del ds.name
        assert ds == load_dataset(GOOD_JSON, "json")

    def test_bounds_is_the_read_only_buffer(self):
        ds = load_dataset(GOOD_JSON, "json")
        b = ds.bounds
        assert b.shape == (3, 3, 2) and b.dtype == np.float64
        assert b.flags.c_contiguous and not b.flags.writeable
        assert b[:, 0, 0].tolist() == [1.0, 2.0, 3.0]  # a's input
        assert b[:, 2, 1].tolist() == [6.0, 6.0, 6.0]  # b's second output

    @pytest.mark.parametrize("dup", [lambda ds: pickle.loads(pickle.dumps(ds)),
                                     copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_copies_keep_bounds_read_only(self, dup, gt):
        built = FuzzyDataset(gt.name, gt.input_names, gt.output_names, units(gt))
        for ds in (load_fixture("aircraft"), built):
            again = dup(ds)
            assert not again.bounds.flags.writeable
            assert again == ds and again.bounds.tobytes() == ds.bounds.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                again.bounds[0, 0, 0] = 0.0

    def test_loaded_and_constructed_datasets_are_equal(self):
        # The constructor takes the cells as GOOD_JSON holds them, or as tuples.
        ds = load_dataset(GOOD_JSON, "json")
        built = FuzzyDataset("toy", ("I1",), ["O1", "O2"], [
            ("a", [[1, 2, 3]], [4, (1, 1.5, 2)]), ("b", (2.5,), [[3, 4, 5], 6])])
        assert ds == built and hash(ds) == hash(built)
        assert built.dmu_names == ds.dmu_names
        assert (built.bounds == ds.bounds).all()

    def test_unknown_dmu(self):
        with pytest.raises(DataError, match="unknown DMU 'z'"):
            load_dataset(GOOD_JSON, "json").index_of("z")


@pytest.mark.parametrize("fmt,raw", [
    ("json", GOOD_JSON.replace("[2.5]", "[1e400]")),
    ("csv", GOOD_CSV.replace("b,2.5,", "b,inf,")),
])
def test_non_finite_number_names_the_cell(fmt, raw):
    with pytest.raises(DataError) as err:
        load_dataset(raw, fmt)
    assert str(err.value) == (
        "DMU 'b' inputs[0]: " if fmt == "json" else "row 3 ('b') column 'in:I1': "
    ) + "triangular bounds must be finite, got (inf, inf, inf)"


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_dataset_round_trip(self, fmt, gt, ac):
        for ds in (gt, ac, load_dataset(GOOD_JSON, "json")):
            again = load_dataset(write_dataset(ds, fmt), fmt)
            assert again == ds

    # Each name the CSV loader would refuse or read back otherwise.
    @pytest.mark.parametrize("field,name", [
        ("dataset name", "a\nb"),
        ("dataset name", "a\rb"),
        ("dataset name", " pad "),
        ("DMU name", " A"),
        ("DMU name", "a\r\nb"),
        ("column name", "I1 "),
    ])
    def test_csv_refuses_a_name_it_cannot_read_back(self, field, name):
        ds = load_dataset(GOOD_JSON, "json")
        (_, inputs, outputs), *rest = cells = units(ds)
        ds = FuzzyDataset(*{
            "dataset name": (name, ds.input_names, ds.output_names, cells),
            "DMU name": (ds.name, ds.input_names, ds.output_names,
                         [(name, inputs, outputs), *rest]),
            "column name": (ds.name, (name,), ds.output_names, cells),
        }[field])
        with pytest.raises(DataError) as err:
            write_dataset(ds, "csv")
        assert str(err.value) == (
            f"CSV cannot hold {field} {name!r}: a name there is one line with no "
            "white space at its ends")
        assert load_dataset(write_dataset(ds, "json"), "json") == ds

    def test_write_marks_crisp_cells_as_scalars(self, ac):
        doc = json.loads(write_dataset(ac, "json"))
        b757 = doc["dmus"][0]
        assert b757["inputs"][2] == 5522
        assert isinstance(b757["inputs"][0], list)

    def test_load_dataset_path_infers_format(self, tmp_path, gt):
        for fmt in ("json", "csv"):
            f = tmp_path / f"ds.{fmt}"
            f.write_text(write_dataset(gt, fmt))
            assert load_dataset_path(f) == gt

    def test_unknown_suffix(self, tmp_path):
        f = tmp_path / "ds.txt"
        f.write_text("x")
        with pytest.raises(ParseError):
            load_dataset_path(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_dataset_path(tmp_path / "absent.json")


class TestFixtures:
    def test_list_fixtures(self):
        assert set(list_fixtures()) >= {"guo_tanaka", "aircraft"}

    def test_guo_tanaka_shape(self, gt):
        assert gt.n_dmus == 5 and gt.n_inputs == 2 and gt.n_outputs == 2
        assert gt.bounds[:, 0, 0].tolist() == [3.5, 4.0, 4.5]

    def test_aircraft_shape(self, ac):
        assert ac.n_dmus == 5 and ac.n_inputs == 4 and ac.n_outputs == 2
        assert ac.dmu_names[:2] == ("B757-200", "A-321")
        assert ac.bounds[:, 2, 0].tolist() == [5522] * 3  # B757-200's crisp I3
        lower, _, upper = ac.bounds[:, 1, 1]  # A-321's I2
        assert lower == upper

    def test_unknown_fixture(self):
        with pytest.raises(DataError):
            fixture_path("nope")

    @pytest.mark.parametrize("name", [
        "../../fuzzydea/fixtures/guo_tanaka", "../fixtures/aircraft", "./guo_tanaka",
        pytest.param(str(fixture_path("guo_tanaka").with_suffix("")), id="absolute"),
        "guo_tanaka.json", "",
    ])
    def test_only_bundled_names_are_fixtures(self, name):
        # The first four reach a bundled file by a path; the last two are near misses.
        with pytest.raises(DataError, match=f"^unknown fixture {re.escape(repr(name))}; "
                           "available: aircraft, guo_tanaka$"):
            fixture_path(name)


class TestValidationTotal:
    def test_count_mismatch(self):
        with pytest.raises(DataError):
            FuzzyDataset("x", ("I1", "I2"), ("O1",), [("a", [1], [1])])

    def test_no_dmus(self):
        with pytest.raises(DataError):
            FuzzyDataset("x", ("I1",), ("O1",), ())

    def test_empty_dmu_name(self):
        # Checked after "dataset has no DMUs" and before uniqueness.
        for names in ([""], ["a", ""], ["", ""]):
            with pytest.raises(DataError, match="^DMU names must not be empty$"):
                FuzzyDataset("x", ("I1",), ("O1",), [(n, [1], [1]) for n in names])

    # Each would write a dataset that the loaders refuse, or not write at all.
    @pytest.mark.parametrize("args,message", [
        (("x", ["I"], ["O"], [(5, [1], [1])]), "dmus[0] needs a string 'name'"),
        ((None, ["I"], ["O"], [("a", [1], [1])]), "'name' must be a string"),
        (("x", [1], ["O"], [("a", [1], [1])]), "'inputs' must be an array of strings"),
        (("x", "IJ", ["O"], [("a", [1, 2], [1])]), "'inputs' must be an array"),
        (("x", ["I"], ["O"], [("a", [(True, True, True)], [1])]),
         "DMU 'a' inputs[0]: expected [l, m, u] numbers, got (True, True, True)"),
    ], ids=["unit name", "dataset name", "column name", "column string", "bool cell"])
    def test_constructor_checks_what_the_json_loader_checks(self, args, message):
        with pytest.raises(SchemaError) as err:
            FuzzyDataset(*args)
        assert type(err.value) is SchemaError and str(err.value) == message


def sample_report():
    return Report(
        model="mo",
        policy="exclude-self",
        alphas=(0.0,),
        rows=(
            ReportRow("a", 0.0, 1.25, h_star=0.5, z_star=2.5, rank=1),
            ReportRow("b", 0.0, 0.75, h_star=0.8, z_star=0.9375, rank=2),
        ),
    )


class TestReports:
    def test_shape_invariant(self):
        with pytest.raises(DataError):
            Report("mo", "exclude-self", (0.0, 0.5), (ReportRow("a", 0.0, 1.0),))

    def test_json_round_trip(self):
        rep = sample_report()
        assert read_report(write_report(rep, "json")) == rep

    def test_markdown_layout_matrix(self, gt):
        rows = tuple(
            ReportRow(d, a, 1.0) for a in (0.0, 0.5) for d in ("a", "b")
        )
        text = write_report(Report("alpha", "exclude-self", (0.0, 0.5), rows), "md")
        lines = text.splitlines()
        assert "| alpha | a | b |" in lines
        assert any(line.startswith("| 0.5 |") for line in lines)

    def test_markdown_layout_ranked(self):
        text = write_report(sample_report(), "md")
        assert "| dmu | h* | efficiency | z* | rank |" in text
        assert "| a | 0.5000 | 1.2500 | 2.5000 | 1 |" in text

    def test_markdown_escapes_pipes_in_cells(self):
        # GitHub-flavoured Markdown reads an unescaped "|" as a cell border.
        ranked = Report("mo", "exclude-self", (0.0,),
                        (ReportRow("A|B", 0.0, 0.5, h_star=0.25, z_star=2.0, rank=1),))
        assert "| A\\|B | 0.2500 | 0.5000 | 2.0000 | 1 |" in write_report(ranked, "md")
        matrix = Report("alpha", "exclude-self", (0.0,),
                        (ReportRow("A|B", 0.0, 1.0), ReportRow("C", 0.0, 0.5)))
        lines = write_report(matrix, "md").splitlines()
        assert "| alpha | A\\|B | C |" in lines
        assert "| 0 | 1.0000 | 0.5000 |" in lines

    def test_markdown_empty_rows_header_only(self):
        text = write_report(Report("alpha", "exclude-self", (0.0,), ()), "md")
        assert "| alpha |" in text
        assert "| 0 |" not in text

    def test_csv_contains_all_rows(self):
        text = write_report(sample_report(), "csv")
        lines = text.splitlines()
        assert lines[0].startswith("model,policy,dmu,alpha,score")
        assert sum(1 for l in lines if l.startswith("mo,")) == 2

    def test_csv_writes_numpy_scalars_as_numbers(self):
        row = ReportRow("a", np.float64(0.5), np.float64(1 / 3), rank=np.int64(2))
        text = write_report(Report("mo", "exclude-self", (0.5,), (row,)), "csv")
        assert text.splitlines()[1] == "mo,exclude-self,a,0.5,0.3333333333333333,,,,2"

    def test_deterministic_output(self):
        for fmt in ("md", "csv", "json"):
            assert write_report(sample_report(), fmt) == write_report(
                sample_report(), fmt
            )

    def test_bad_report_json(self):
        with pytest.raises(ParseError):
            read_report("{oops")
        with pytest.raises(SchemaError):
            read_report('{"model": "mo"}')

    @pytest.mark.parametrize("field", ["alpha", "score", "alphas"])
    @pytest.mark.parametrize("value", ["x", 10**400], ids=["text", "huge-int"])
    def test_non_numeric_field_is_schema_error(self, field, value):
        doc = json.loads(write_report(sample_report(), "json"))
        if field == "alphas":
            doc["alphas"][0] = value
        else:
            doc["rows"][0][field] = value
        with pytest.raises(SchemaError, match="malformed report document"):
            read_report(json.dumps(doc))

    def test_undecodable_report_is_parse_error(self):
        with pytest.raises(ParseError):
            read_report(b'{"model": "\xff"}')

    def test_unknown_format(self):
        with pytest.raises(ParseError):
            write_report(sample_report(), "pdf")


class TestReadReportTypes:
    """read_report keeps only what every report format can render."""

    @pytest.mark.parametrize("field,value", [
        ("model", 5), ("model", [1]), ("model", None), ("policy", True),
        ("dmu", 5), ("dmu", None), ("dmu", ["a"]),
        ("alpha", "0"), ("alpha", True), ("alpha", None), ("alpha", [0.0]),
        ("score", "oops"), ("score", False), ("score", {}),
        ("h_star", "oops"), ("h_star", True), ("z_star", "1.0"), ("mo_score", [1]),
        ("rank", True), ("rank", 1.0), ("rank", "1"),
        ("alphas", "0.0"), ("alphas", False), ("alphas", None),
    ])
    def test_wrongly_typed_field_is_schema_error(self, field, value):
        doc = json.loads(write_report(sample_report(), "json"))
        if field in ("model", "policy"):
            doc[field] = value
        elif field == "alphas":
            doc["alphas"][0] = value
        else:
            doc["rows"][0][field] = value
        with pytest.raises(SchemaError, match=f"^malformed report document: '{field}' "):
            read_report(json.dumps(doc))

    def test_h_star_text_is_refused_before_rendering(self):
        # Read as it stands, it would fail the md writer with a bare
        # "Unknown format code 'f'".
        doc = json.loads(write_report(sample_report(), "json"))
        doc["rows"][0]["h_star"] = "oops"
        with pytest.raises(SchemaError, match="'h_star' must be a JSON number"):
            read_report(json.dumps(doc))

    def test_integers_become_floats_and_ranks_stay_integers(self):
        doc = json.loads(write_report(sample_report(), "json"))
        doc["alphas"] = [0]
        doc["rows"][0].update(alpha=0, score=2, h_star=1, z_star=3, mo_score=4, rank=7)
        doc["rows"][1].update(alpha=0, h_star=None, rank=None)
        rep = read_report(json.dumps(doc))
        first, second = rep.rows
        assert [type(x) for x in (*rep.alphas, first.alpha, first.score, first.h_star,
                                  first.z_star, first.mo_score)] == [float] * 6
        assert (first.score, first.mo_score, first.rank) == (2.0, 4.0, 7)
        assert (second.h_star, second.rank) == (None, None)
        for fmt in ("md", "csv", "json"):
            write_report(rep, fmt)


GOLDEN = Path(__file__).resolve().parent / "golden"
# Names that json escapes: quotes, backslashes, control characters,
# non-ASCII and astral-plane characters.
NAMES = ("a", "", 'q"uote', "back\\slash", "tab\tnew\nline\x00\x1f", "caf\u00e9",
         "\u2028", "\U0001f600 astral", "\ud800", "D/1")
FLOATS = (0.0, -0.0, 1.0, 0.5, 1e300, -1e300, 5e-324, math.inf, -math.inf, math.nan,
          0.1 + 0.2, 1 / 3, 123456789.125)


def _random_value(rng):
    """A float, or now and then a bool, None or an int past 64 bits."""
    kind = rng.random()
    if kind < 0.7:
        return rng.choice(FLOATS) if rng.random() < 0.5 else rng.uniform(-5, 5)
    if kind < 0.8:
        return rng.choice((True, False, None))
    return rng.choice((0, -3, 2 ** 64 + 1, -(10 ** 30), 7))


def random_report(rng):
    """A seeded Report whose fields range over what json can write."""
    dmus = rng.sample(NAMES, rng.randint(0, 4))
    alphas = tuple(_random_value(rng) for _ in range(rng.randint(0, 3)))
    rows = tuple(
        ReportRow(dmu, alpha, _random_value(rng),
                  *(rng.choice((None, _random_value(rng))) for _ in range(4)))
        for alpha in (alphas if dmus else ())
        for dmu in dmus
    )
    return Report(rng.choice(NAMES), rng.choice(NAMES), alphas, rows)


def json_dumps_report(rep):
    """The report as json.dumps(indent=2) writes its document."""
    rows = []
    for r in rep.rows:
        row = {"dmu": r.dmu, "alpha": r.alpha, "score": r.score}
        for key in ("h_star", "z_star", "mo_score", "rank"):
            if getattr(r, key) is not None:
                row[key] = getattr(r, key)
        rows.append(row)
    doc = {"model": rep.model, "policy": rep.policy, "alphas": list(rep.alphas),
           "rows": rows, "deviations": []}
    return json.dumps(doc, indent=2) + "\n"


class TestJsonWriter:
    def test_twin_of_json_dumps(self):
        rng = random.Random(20261019)
        for k in range(5000):
            rep = random_report(rng)
            assert _report_json(rep) == json_dumps_report(rep), k

    def test_empty_alphas_and_rows(self):
        rep = Report("mo", "exclude-self", (), ())
        assert _report_json(rep) == json_dumps_report(rep)
        assert '"alphas": [],' in _report_json(rep)

    @pytest.mark.parametrize("value", [b"x", 1j, (1.0,), {"a": 1}, object()])
    def test_other_values_raise_type_error(self, value):
        rep = Report("mo", "exclude-self", (0.0,), (ReportRow("a", 0.0, value),))
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _report_json(rep)

    def test_read_report_round_trips_every_report_it_can_read(self):
        # In read_report's domain: str names, float numbers (NaN and the
        # infinities included) and int ranks.
        rng = random.Random(7)

        def number():
            return rng.choice(FLOATS) if rng.random() < 0.5 else rng.uniform(0, 2)

        for k in range(1000):
            dmus = rng.sample(NAMES, rng.randint(0, 4))
            alphas = tuple(number() for _ in range(rng.randint(0, 3)))
            rows = tuple(
                ReportRow(dmu, alpha, number(),
                          *(rng.choice((None, number())) for _ in range(3)),
                          rank=rng.choice((None, 1, 2 ** 70)))
                for alpha in (alphas if dmus else ())
                for dmu in dmus
            )
            rep = Report(rng.choice(NAMES), rng.choice(NAMES), alphas, rows)
            text = write_report(rep, "json")
            assert write_report(read_report(text), "json") == text, k

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
    def test_every_json_golden_reads_back_to_its_siblings(self, path):
        # read_report gives back the Report the CLI wrote: it renders the
        # same json, and the md and csv goldens of the same command.
        text = path.read_text(encoding="utf-8")
        rep = read_report(text)
        assert write_report(rep, "json") == text
        for fmt in ("md", "csv"):
            sibling = path.with_suffix(f".{fmt}")
            if sibling.exists():
                assert write_report(rep, fmt) == sibling.read_text(encoding="utf-8")
