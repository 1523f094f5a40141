"""Golden rows of the closed-form commands against independent 50-digit values.

Every numeric cell that `profile`, `expansion`, `bounds`, `sharp` and `avr`
print in tests/cli_golden.json is compared with tests/reference.py, which
shares no code with mcp_iso.  A cell passes within half a unit in its last
printed digit (the default --precision of 12) plus README's accuracy of
1e-12 relative.  The difference cells gap and rel_deviation get that 1e-12
relative to the scale of their operands instead, as an absolute slack: a
difference of two values near 1 is good to about 1e-12, not to 1e-12 of itself.
"""

import csv
import io
import json

import mpmath
import pytest

import reference
from test_cli_golden import COMMANDS, FIXTURES, FORMATS, golden

PRECISION = 12  # the CLI's default --precision
RTOL = 1e-12  # README: the profile, and every closed form, to 1e-12 relative
# The operands' scale of each difference cell, from its reference row.
DIFFERENCES = {
    "gap": lambda row: max(abs(row["content"]), abs(row["bound"])),
    "rel_deviation": lambda row: max(abs(row["ratio"]), abs(row["leading"])) / row["leading"],
}
# Every golden command of the closed-form subcommands but the one refusal.
REFERENCED = sorted(
    name for name, argv in COMMANDS.items()
    if argv[0] in ("profile", "expansion", "bounds", "sharp", "avr") and name != "profile-bad-v"
)


def printed_rows(stdout: str, fmt: str) -> list[dict]:
    """The rows of one transcript as printed: CSV text, or JSON values."""
    if fmt == "json":
        return json.loads(stdout)
    return list(csv.DictReader(io.StringIO(stdout)))


def cell_error(printed, expected, scale=None):
    """None if a printed cell matches its reference value, else a description.

    scale is the size that the 1e-12 relative slack is taken of, by default
    the value's own."""
    if not isinstance(expected, mpmath.mpf):
        # A text or boolean cell: CSV prints str() of it, JSON the value itself.
        same = printed in (expected, str(expected))
        return None if same else f"{printed!r} is not {expected!r}"
    value = mpmath.mpf(repr(printed) if isinstance(printed, float) else printed)
    if not mpmath.isfinite(expected):
        return None if value == expected else f"{printed!r} is not {expected}"
    half_ulp = 0
    if expected:
        half_ulp = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(expected))) - PRECISION + 1) / 2
    slack = half_ulp + RTOL * (abs(expected) if scale is None else scale)
    if abs(value - expected) <= slack:
        return None
    return f"{printed!r} is {mpmath.nstr(value - expected, 3)} from {mpmath.nstr(expected, 17)}"


def row_errors(printed: list[dict], expected: list[dict]) -> list[str]:
    """Each cell of printed rows that misses its reference, described; a
    missing or extra row or column is one error."""
    if [list(row) for row in printed] != [list(ref) for ref in expected]:
        return [f"columns {[list(row) for row in printed]}, not {[list(r) for r in expected]}"]
    errors = []
    with mpmath.workdps(reference.DIGITS):
        for k, (row, ref) in enumerate(zip(printed, expected)):
            for column, want in ref.items():
                scale = DIFFERENCES[column](ref) if column in DIFFERENCES else None
                error = cell_error(row[column], want, scale)
                if error:
                    errors.append(f"row {k} {column}: {error}")
    return errors


def test_referenced_commands():
    assert REFERENCED == sorted([
        "profile-point", "profile-sweep", "profile-log", "profile-ends", "profile-overflow",
        "expansion", "bounds", "bounds-400", "sharp-2", "sharp-3.5", "avr-cone",
        "avr-piecewise", "avr-const-bounded", "avr-tabulated",
    ])


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", REFERENCED)
def test_golden_row_matches_reference(name, fmt):
    transcript = golden()[f"{name}/{fmt}"]
    assert transcript["exit"] == 0
    printed = printed_rows(transcript["stdout"], fmt)
    assert row_errors(printed, reference.rows(COMMANDS[name], FIXTURES)) == []
