"""The CSV and JSON byte contracts of the CLI writer, against the csv and
json modules.

``cli._emit`` takes a table as columns, each a list of cells or one cell
shown in every row, and builds one printf template per table.  Its bytes
must equal those of the reference rendering of the same rows: each float
formatted with ``format(v, f".{precision}g")``, then every row written by
``csv.writer(lineterminator="\\n")`` with its default minimal quoting, or,
for JSON, ``json.dumps`` of one record per row with each finite float read
back from that text.  The golden transcripts cover the tables the commands
print; this covers the cells they cannot enumerate.
"""

import contextlib
import csv
import io
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcp_iso.cli import _emit

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1e308, 0.1]

floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
texts = st.text(alphabet='ab ,"\n\r', max_size=6)
# One strategy per column kind; "mixed" puts floats and strings in one column.
CELLS = {
    "float": floats,
    "int": st.integers(-(10**20), 10**20),
    "bool": st.booleans(),
    "empty": st.sampled_from([None, ""]),
    "text": texts,
    "mixed": st.one_of(floats, texts),
    "any": st.one_of(floats, texts, st.integers(), st.booleans(), st.none()),
}


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    headers = draw(st.lists(texts, min_size=len(kinds), max_size=len(kinds)))
    n_rows = draw(st.integers(0, 5))
    rows = [[draw(CELLS[kind]) for kind in kinds] for _ in range(n_rows)]
    return headers, rows


def reference_csv(headers, rows, precision):
    spec = f".{precision}g"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows([[format(v, spec) if isinstance(v, float) else v for v in row]
                      for row in rows])
    return out.getvalue()


# One float list passed as two columns, as the profile command passes f.
F_TWICE = [0.1, math.inf, -0.0, 5e-324]


@st.composite
def column_tables(draw):
    """A table as _emit takes it, with its rows: some columns are one cell
    shown in every row, and one list may be passed as two columns."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    single = draw(st.lists(st.booleans(), min_size=len(kinds), max_size=len(kinds)))
    n_rows = draw(st.integers(0, 5)) if not all(single) else 1
    columns = [draw(CELLS[kind]) if one else [draw(CELLS[kind]) for _ in range(n_rows)]
               for kind, one in zip(kinds, single)]
    lists = [c for c in columns if isinstance(c, list)]
    if lists and draw(st.booleans()):
        columns.insert(draw(st.integers(0, len(columns))), draw(st.sampled_from(lists)))
    headers = draw(st.lists(texts, min_size=len(columns), max_size=len(columns), unique=True))
    rows = [[c[k] if isinstance(c, list) else c for c in columns] for k in range(n_rows)]
    return headers, columns, rows


def as_columns(headers, rows):
    return [[row[k] for row in rows] for k in range(len(headers))]


def emitted(headers, columns, fmt, precision):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(headers, columns, fmt, precision)
    return out.getvalue()


def reference_json(headers, rows, precision):
    spec = f".{precision}g"

    def cell(v):
        if not isinstance(v, float):
            return v
        return float(format(v, spec)) if math.isfinite(v) else format(v, spec)

    records = [{h: cell(v) for h, v in zip(headers, row)} for row in rows]
    return json.dumps(records, indent=2) + "\n"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(tables())
# csv quotes the only field of a row when it is empty, so the row is not blank.
@example((["x"], [[""], [None], ["a"]]))
@example(([""], []))
@example((["v", "w"], [["", None]]))
@example((["N", "v"], [[2.5, math.nan], [-0.0, math.inf], [5e-324, -math.inf]]))
@example((["v", "s"], [[0.1, 'a,"b"'], [1e308, "c\nd"], [2.0, "e\rf"]]))
def test_emitted_csv_matches_csv_writer(table):
    headers, rows = table
    for precision in range(1, 18):  # every --precision the CLI accepts
        assert (emitted(headers, as_columns(headers, rows), "csv", precision)
                == reference_csv(headers, rows, precision))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(column_tables())
@example((["x"], [""], [[""]]))
@example((["N", "v", "%"], [2.5, [0.1, math.nan], "100%"], [[2.5, 0.1, "100%"], [2.5, math.nan, "100%"]]))
@example((["N", "f_at_a", "profile"], [2.0, F_TWICE, F_TWICE],
          [[2.0, f, f] for f in F_TWICE]))
def test_one_cell_and_repeated_columns_match_csv_writer(table):
    headers, columns, rows = table
    for precision in range(1, 18):
        assert emitted(headers, columns, "csv", precision) == reference_csv(headers, rows, precision)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(column_tables())
@example((["N", "v"], [math.nan, [math.inf, -0.0, 1e308, 5e-324]],
          [[math.nan, math.inf], [math.nan, -0.0], [math.nan, 1e308], [math.nan, 5e-324]]))
@example((["N", "f_at_a", "profile"], [2.0, F_TWICE, F_TWICE],
          [[2.0, f, f] for f in F_TWICE]))
def test_emitted_json_matches_json_dumps(table):
    headers, columns, rows = table
    for precision in range(1, 18):
        assert emitted(headers, columns, "json", precision) == reference_json(headers, rows, precision)
