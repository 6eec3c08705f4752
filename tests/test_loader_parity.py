"""The loaders against the per-cell loader they replaced (_oracles).

Both take the same generated JSON and CSV documents, valid and
malformed, with faults alone and together: wrongly typed cells, bools,
huge integers, NaN and infinities, unordered triples, lower bounds that
are not positive, ragged rows, duplicate names and count mismatches.
Each document must give an equal dataset, or the same exception type and
message.  The one allowed difference: a CSV number with a '_' ('1_5'),
which float() reads as 15 and the loader refuses as not a number.
"""

import json
import math

from hypothesis import example, given, settings, strategies as st

from fuzzydea.dataio import load_dataset
from fuzzydea.errors import FuzzyDeaError

import _oracles

SETTINGS = dict(deadline=None, derandomize=True, max_examples=400)

HUGE = "1" + "0" * 5000  # an integer past int()'s digit limit


def now_and_then(n):
    """True about once in n draws.  Hypothesis draws the ends of a range
    more often than the rest, so the rare value is one in the middle."""
    return st.integers(0, n - 1).map(lambda k: k == n // 2)


# coordinates or DMUs: mostly one to three, now and then none
count = st.integers(0, 12).map(lambda k: 0 if k == 6 else 1 + k % 3)


def outcome(load, raw):
    """("ok", the dataset, its names and the bytes of its bounds) or
    (exception type, message)."""
    try:
        data = load(raw)
    except (FuzzyDeaError, ValueError) as exc:
        return type(exc), str(exc)
    return ("ok", data, data.name, data.input_names, data.output_names, data.dmu_names,
            data.bounds.tobytes())


# ---------------------------------------------------------------------------
# JSON

positive = st.floats(0.25, 100.0) | st.integers(1, 100)
good_cell = positive | st.lists(positive, min_size=3, max_size=3).map(sorted)
bad_number = st.sampled_from(
    [True, False, None, "1.5", 0, 0.0, -1.5, math.nan, math.inf, -math.inf, 10**400]
) | now_and_then(10).map(lambda huge: "HUGE" if huge else 0.5)
bad_cell = bad_number | st.sampled_from([
    [1, 2], [1, 2, 3, 4], [[1, 2, 3]], {"l": 1}, [True, 1, 2], [1.0, "2", 3.0],
    [3, 2, 1], [1.0, 3.0, 2.0], [0, 1, 2], [-2.0, -1.0, 1.0], [1, 2, math.inf],
    [math.nan, 1, 2], [10**400, 10**400, 10**400], [1, 2, 10**400],
])
# mostly good cells, so that faults are few and often alone
cell = now_and_then(12).flatmap(lambda bad: bad_cell if bad else good_cell)


def dmu_names(pool):
    """Distinct names from pool in some order, now and then the first twice."""
    return st.tuples(st.permutations(pool), now_and_then(10)).map(
        lambda t: [t[0][0]] + list(t[0]) if t[1] else list(t[0]))


@st.composite
def json_docs(draw):
    m, s = draw(count), draw(count)
    off = st.integers(0, 12).map(lambda k: {5: -1, 6: 1}.get(k, 0))  # a count mismatch
    dmus = []
    for name in draw(dmu_names(["a", "b", "c", "D 1", "café", 'q"']))[: draw(count) + 1]:
        entry = {
            "name": name,
            "inputs": [draw(cell) for _ in range(max(0, m + draw(off)))],
            "outputs": [draw(cell) for _ in range(max(0, s + draw(off)))],
        }
        fault = draw(st.integers(0, 40))
        if fault == 10:
            entry = draw(st.sampled_from([[], "x", None]))
        elif fault == 20:
            entry.pop(draw(st.sampled_from(["name", "inputs", "outputs"])))
        elif fault == 30:
            entry[draw(st.sampled_from(["name", "inputs", "outputs"]))] = draw(
                st.sampled_from([5, None, {"a": 1}, "x"]))
        dmus.append(entry)
    doc = {"name": draw(st.sampled_from(["", "toy"])),
           "inputs": [f"I{i}" for i in range(m)],
           "outputs": [f"O{r}" for r in range(s)],
           "dmus": dmus}
    fault = draw(st.integers(0, 40))
    if fault == 10:
        doc.pop(draw(st.sampled_from(["name", "inputs", "outputs", "dmus"])))
    elif fault == 20:
        doc[draw(st.sampled_from(["name", "inputs", "outputs", "dmus"]))] = draw(
            st.sampled_from([5, "x", {}, [1]]))
    elif fault == 30:
        doc = [doc]
    raw = json.dumps(doc).replace('"HUGE"', HUGE)
    if draw(now_and_then(40)):
        raw = raw[: len(raw) // 2]  # not JSON at all
    return raw


ORDER_THEN_POSITIVITY = json.dumps({"inputs": ["I"], "outputs": ["O"], "dmus": [
    {"name": "a", "inputs": [0], "outputs": [1]},
    {"name": "b", "inputs": [[3, 2, 1]], "outputs": [1]}]})
POSITIVITY_THEN_COUNT = json.dumps({"inputs": ["I"], "outputs": ["O"], "dmus": [
    {"name": "a", "inputs": [[-1, 1, 2]], "outputs": [1]},
    {"name": "b", "inputs": [1, 2], "outputs": [1]}]})
COUNT_THEN_DUPLICATE = json.dumps({"inputs": ["I"], "outputs": ["O"], "dmus": [
    {"name": "a", "inputs": [1, 2], "outputs": [1]},
    {"name": "a", "inputs": [1], "outputs": [1]}]})
CELL_THEN_SHAPE = json.dumps({"inputs": ["I"], "outputs": ["O"], "dmus": [
    {"name": "a", "inputs": [[1, 2, math.nan]], "outputs": [1]}, {"name": "b"}]})
EMPTY_THEN_DUPLICATE = json.dumps({"inputs": ["I"], "outputs": ["O"], "dmus": [
    {"name": "", "inputs": [1], "outputs": [1]},
    {"name": "", "inputs": [1], "outputs": [1]}]})


@settings(**SETTINGS)
@given(json_docs())
@example(ORDER_THEN_POSITIVITY)
@example(POSITIVITY_THEN_COUNT)
@example(COUNT_THEN_DUPLICATE)
@example(CELL_THEN_SHAPE)
@example(EMPTY_THEN_DUPLICATE)
def test_json_loader_matches_the_per_cell_loader(raw):
    assert outcome(lambda r: load_dataset(r, "json"), raw) == outcome(
        _oracles._dataset_from_json, raw)


# ---------------------------------------------------------------------------
# CSV

number_text = (st.floats(0.25, 100.0).map(repr) | st.integers(1, 100).map(str))
good_text = number_text | st.lists(st.floats(0.25, 100.0), min_size=3, max_size=3).map(
    lambda v: ";".join(map(repr, sorted(v))))
bad_text = st.sampled_from([
    "", " ", "x", "1;2", "1;2;3;4", ";;", "nan", "inf", "-inf", "1e400", "0", "-1",
    "3;2;1", "0;1;2", "1;nan;2", "1; 2 ;3", " 4 ", "1_5", "1;1_5;20", "x;1_5;2",
    "_", "1;2;3_0", "True",
])
text_cell = now_and_then(12).flatmap(lambda bad: bad_text if bad else good_text)
blank = now_and_then(20)


@st.composite
def csv_docs(draw):
    m, s = draw(count), draw(count)
    cols = ["dmu"] + [f"in:I{i}" for i in range(m)] + [f"out:O{r}" for r in range(s)]
    fault = draw(st.integers(0, 40))
    if fault == 10:
        cols[0] = "name"
    elif fault == 20 and len(cols) > 1:
        cols[draw(st.integers(1, len(cols) - 1))] = "X1"
    elif fault == 30 and m and s:
        cols[1], cols[-1] = cols[-1], cols[1]  # an output before an input
    lines = draw(st.sampled_from([[], ["# name=toy"], ["# note", "", "#name= set 1 "]]))
    if not draw(now_and_then(40)):
        lines.append(",".join(cols))
    for name in draw(dmu_names(["a", "b", "c", "D 1", " e ", "café"]))[: draw(count) + 1]:
        cells = [draw(text_cell) for _ in range(len(cols) - 1)]
        ragged = draw(st.integers(0, 30))
        if ragged == 10:
            cells.append("1")
        elif ragged == 20 and cells:
            cells.pop()
        lines.append(",".join([" " if draw(blank) else name] + cells))
        if draw(now_and_then(10)):
            lines.append(draw(st.sampled_from(["", " , ,", ","])))
    return "\n".join(lines) + "\n"


@settings(**SETTINGS)
@given(csv_docs())
@example("dmu,in:I,out:O\na,1_5,2\n")
@example("dmu,in:I,out:O\na,0;1;2,2\nb,1;2\n")
@example("dmu,in:I,out:O\na,1,2\na,1,3;2;1\n")
@example("dmu,in:I,out:O\na,0;1;2,2\na,1,2\n")
def test_csv_loader_matches_the_per_cell_loader(raw):
    # The per-cell loader reads "1_5" as 15; with the "_" written as "x"
    # it refuses the same part of the same cell, as the loader does.
    got = outcome(lambda r: load_dataset(r, "csv"), raw)
    if got[0] != "ok":
        got = (got[0], got[1].replace("_", "x"))
    assert got == outcome(_oracles._dataset_from_csv, raw.replace("_", "x"))
