"""The CSV byte contract of the CLI writer, against the csv module.

``cli._emit`` builds one printf template per table.  Its bytes must equal
those of the reference rendering: each float formatted with
``format(v, f".{precision}g")``, then every row written by
``csv.writer(lineterminator="\\n")`` with its default minimal quoting.  The
golden transcripts cover the tables the commands print; this covers the
cells they cannot enumerate.
"""

import contextlib
import csv
import io
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


def emitted_csv(headers, rows, precision):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(headers, rows, "csv", precision)
    return out.getvalue()


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
        assert emitted_csv(headers, rows, precision) == reference_csv(headers, rows, precision)
