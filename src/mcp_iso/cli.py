"""Command-line front end.

Every subcommand prints a deterministic CSV (default) or JSON report to
stdout.  Exit codes: 0 success / mathematical check passed, 2 computation
succeeded but a check failed, 1 usage or domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from decimal import Context, Decimal
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from . import localization as loc
from . import search as search_mod
from .density import check_mcp_density, minimal_mcp_dimension
from .errors import DomainError, InfeasibleSearchError
from .numerics import as_number, as_numbers, read_object, require_count
from .profile import (
    avr_lower_bound,
    cd_lower_bound,
    expansion_leading_coefficient,
    profile_mcp,
)
from .space import (
    avr,
    measure,
    minkowski_content,
    sharp_space,
    space_from_dict,
)

# DomainError, PreconditionError and BracketError are ValueErrors; TypeError
# and OverflowError come from malformed numbers in JSON input and sweeps.
_USAGE_ERRORS = (ValueError, TypeError, OverflowError, InfeasibleSearchError)

# Samples of min-dimension's search, and validate-density's default, so that
# the printed minimal dimension passes validate-density.
_DENSITY_GRID = 512


def _parse_sweep(text: str, log: bool) -> list[float]:
    """A single float, or 'a:b:n' for n points from a to b; an error names the text."""
    parts = text.split(":")
    if len(parts) == 1:
        if log:
            raise DomainError(f"a log sweep needs a:b:n, got {text!r}")
        return [as_number(text, f"sweep {text!r}")]
    if len(parts) != 3:
        raise DomainError(f"sweep must look like a:b:n, got {text!r}")
    a, b = as_numbers(parts[:2], f"sweep {text!r}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"sweep endpoints must be finite, got {text!r}")
    try:
        n = int(parts[2])
    except ValueError:
        n = parts[2]  # no integer: require_count refuses it
    return _sweep(a, b, require_count(f"the point count of sweep {text!r}", n, 1), log)


def _sweep(a: float, b: float, n: int, log: bool) -> list[float]:
    """n >= 1 points from finite a to b, log-spaced if log."""
    if n == 1:
        return [a]
    if log:
        if a <= 0 or b <= 0:
            raise DomainError("log sweeps need positive endpoints")
        la, lb = math.log(a), math.log(b)
        inner = [math.exp(la + (lb - la) * k / (n - 1)) for k in range(1, n - 1)]
    else:
        inner = [a + (b - a) * k / (n - 1) for k in range(1, n - 1)]
    # The endpoints are a and b exactly; exp(log a) and a + (b - a) can miss by an ulp.
    return [a, *inner, b]


def _load_json(path: str) -> dict:
    def refuse_repeats(pairs: list) -> dict:
        data = {}
        for name, value in pairs:
            if name in data:
                raise DomainError(f"{path}: field {name!r} is given twice in one object")
            data[name] = value
        return data

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=refuse_repeats)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}")


def _of_type(kind: type, wording: str):
    """A read_object reader that keeps a value of type kind and refuses any other."""
    def read(value, label):
        if not isinstance(value, kind):
            raise DomainError(f"{label} must be {wording}, got {value!r}")
        return value
    return read


def _read_volumes(volumes, label: str) -> Sequence[float]:
    """A search config's volumes: an array of numbers, or a sweep object."""
    if not isinstance(volumes, dict):
        return as_numbers(volumes, label)
    return _parse_sweep(*read_object(volumes, "the volumes sweep", (
        ("sweep", _of_type(str, "a string a:b:n")),
        ("log", _of_type(bool, "true or false"), False))))


def _csv_field(value, spec: str, alone: bool) -> str:
    """One cell as csv.writer writes it by default: quoted when it holds a
    comma, a quote or a line feed, or when it is the empty only field of its
    row; a quote inside is doubled."""
    text = "" if value is None else format(value, spec) if isinstance(value, float) else str(value)
    if "," in text or '"' in text or "\n" in text or (alone and not text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _emit(headers: list[str], columns: list, fmt: str, precision: int) -> None:
    """Write a table given as columns, one per header.

    A column is a list of cells, one per row, or any other value: one cell
    shown in every row.  All list columns have the table's length; a table
    with no list column has one row.  In CSV each float is formatted once,
    even where one list object is passed as two columns; non-finite floats
    come out as inf, -inf or nan.
    """
    spec = f".{precision}g"
    n_rows = next((len(c) for c in columns if isinstance(c, list)), 1)
    if fmt == "json":
        table = [[_json_cell(v, spec) for v in c] if isinstance(c, list)
                 else repeat(_json_cell(c, spec), n_rows) for c in columns]
        records = [dict(zip(headers, row)) for row in zip(*table)]
        sys.stdout.write(json.dumps(records, indent=2) + "\n")
        return
    # One printf template for the whole table: a one-cell column is written
    # into it, %g stands for a list column of floats only, and %s for any
    # other list column, whose cells are rendered and quoted first, as are
    # the cells of a float column passed twice.
    alone = len(headers) == 1
    pieces, args, rendered = [], [], {}
    for c in columns:
        if not isinstance(c, list):
            pieces.append(_csv_field(c, spec, alone).replace("%", "%%"))
            continue
        if id(c) not in rendered:
            floats = all(map(isinstance, c, repeat(float)))
            if floats and sum(d is c for d in columns) == 1:
                rendered[id(c)] = "%" + spec, c
            elif floats:
                text = (f"%{spec}\n" * len(c)) % tuple(c)
                rendered[id(c)] = "%s", text.split("\n")[:-1]
            else:
                rendered[id(c)] = "%s", [_csv_field(v, spec, alone) for v in c]
        piece, cells = rendered[id(c)]
        pieces.append(piece)
        args.append(cells)
    row_format = ",".join(pieces) + "\n"
    header = ",".join(_csv_field(h, spec, alone) for h in headers) + "\n"
    sys.stdout.write(header + (row_format * n_rows) % tuple(chain.from_iterable(zip(*args))))


def _json_cell(value, spec: str):
    """A cell as JSON shows it: a float rounded to the precision, a
    non-finite one as its text, any other value as it is."""
    if not isinstance(value, float):
        return value
    text = format(value, spec)
    return float(text) if math.isfinite(value) else text


def _set_to_text(best_set) -> str:
    return json.dumps([[s, t] for s, t in best_set.components])


def _cmd_profile(args):
    res = profile_mcp(args.N, args.D, _parse_sweep(args.v, args.log))
    headers = ["N", "D", "v", "a", "f_at_a", "profile"]
    # f_at_a and profile are one array, so one list is passed twice.
    f = res.profile.tolist()
    return headers, [res.N, res.D, res.v.tolist(), res.a.tolist(), f, f], True


def _cmd_expansion(args):
    if not (0.0 < args.v_min < args.v_max < math.inf):
        raise DomainError(f"need 0 < --v-min < --v-max < inf, got {args.v_min} and {args.v_max}")
    require_count("--points", args.points, 1)
    lead = expansion_leading_coefficient(args.N)
    vs = np.array(_sweep(args.v_max, args.v_min, args.points, log=True))
    prof = profile_mcp(args.N, 1.0, vs).profile
    ratio = prof / vs ** ((args.N - 1.0) / args.N)
    deviation = np.abs(ratio - lead) / lead
    headers = ["v", "profile", "ratio", "leading", "rel_deviation"]
    return headers, [vs.tolist(), prof.tolist(), ratio.tolist(), lead, deviation.tolist()], True


def _cmd_validate_density(args):
    space = space_from_dict(_load_json(args.space))
    verdict = check_mcp_density(space.h, space.D, args.N, args.grid_points)
    headers = ["status", "samples_used", "x0", "x1", "side", "lhs", "rhs"]
    w = verdict.witness
    row = [verdict.status, verdict.samples_used]
    row += [w.x0, w.x1, w.side, w.lhs, w.rhs] if w else ["", "", "", "", ""]
    return headers, row, verdict.passed


def _cmd_min_dimension(args):
    space = space_from_dict(_load_json(args.space))
    result = minimal_mcp_dimension(space.h, space.D, args.n_lo, args.n_hi, _DENSITY_GRID)
    headers = ["minimal_dimension"]
    if result is None:
        return headers, ["none"], False
    # _emit rounds to --precision digits.  Rounded down, the value may fail the
    # check that the result passes; then the next value up at that precision
    # is shown instead, which passes, as the passing set is upward closed.
    shown = Decimal(format(result, f".{args.precision}g"))
    if shown < result and not (
        shown > 1 and check_mcp_density(space.h, space.D, float(shown), _DENSITY_GRID).passed
    ):
        shown = shown.next_plus(Context(prec=args.precision))
    return headers, [float(shown)], True


def _cmd_avr(args):
    space = space_from_dict(_load_json(args.space))
    value, certified = avr(space, args.N)
    return ["avr", "certified"], [value, certified], True


def _cmd_bounds(args):
    mcp = avr_lower_bound(args.N, args.avr, args.mass)
    cd = cd_lower_bound(args.N, args.avr, args.mass)
    ratio = cd / mcp if mcp > 0 else math.nan
    headers = ["N", "avr", "mass", "mcp_bound", "cd_bound", "cd_over_mcp"]
    return headers, [args.N, args.avr, args.mass, mcp, cd, ratio], True


def _cmd_sharp(args):
    space, extremal = sharp_space(args.avr, args.mass, args.N)
    content = minkowski_content(space, extremal)
    bound = avr_lower_bound(args.N, args.avr, args.mass)
    set_measure = measure(space, extremal)
    headers = [
        "avr", "mass", "N", "x_star", "set_measure", "content", "bound", "gap", "density",
    ]
    row = [args.avr, args.mass, args.N, space.h.x_star, set_measure, content, bound,
           content - bound, json.dumps(space.h.to_dict())]
    # The set is extremal if it meets the bound at its own measure, up to rounding.
    own_bound = avr_lower_bound(args.N, args.avr, set_measure)
    return headers, row, abs(content - own_bound) <= 1e-12 * own_bound


def _cmd_search(args):
    space = space_from_dict(_load_json(args.space))
    # The fields after volumes are SearchConfig's, in its order.
    N, avr_value, volumes, *settings = read_object(_load_json(args.config), "search config", (
        ("N", as_number), ("avr", as_number, None), ("volumes", _read_volumes),
        ("volume_tolerance", as_number, 1e-9), ("grid_points", None, 512),
        ("max_components", None, 2), ("window", as_number, None)))
    # Without a known tail, avr is uncertified only for tabulated densities,
    # which a half-line space refuses; bounded spaces have avr = 0, certified.
    if avr_value is None:
        avr_value = avr(space, N).value
    cfg = search_mod.SearchConfig(0.0, *settings)
    report = search_mod.certify_bound(space, N, avr_value, volumes, cfg)
    headers = ["v", "content", "bound", "margin", "best_set", "slack"]
    rows = report.rows
    columns = [[r.v for r in rows], [r.content for r in rows], [r.bound for r in rows],
               [r.margin for r in rows], [_set_to_text(r.best_set) for r in rows],
               [r.slack for r in rows]]
    return headers, columns, report.passed


def _cmd_localize(args):
    model = loc.model_from_dict(_load_json(args.model))
    headers = [
        "R", "m_plus", "needle_integral", "scaled_profile_bound", "avr_bound",
        "residual", "ordered",
    ]
    reports = [loc.dimension_reduction_chain(model, args.r, big_r)
               for big_r in _parse_sweep(args.R, args.log)]
    ordered = [report.ordered() for report in reports]
    columns = [[getattr(report, name) for report in reports] for name in headers[:-1]]
    return headers, [*columns, ordered], all(ordered)


class _Parser(argparse.ArgumentParser):
    """Raises argument errors, in subcommands too, as DomainError: exit 1."""

    def error(self, message):
        raise DomainError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use; parsing
    leaves it unchanged."""
    parser = _Parser(
        prog="mcp-iso",
        description="Curvature-controlled isoperimetric bounds on weighted intervals",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--precision", type=int, default=12, metavar="DIGITS")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", parents=[common], help="model profile values")
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--v", required=True, help="volume fraction or sweep a:b:n")
    p.add_argument("--log", action="store_true", help="log-spaced sweep")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("expansion", parents=[common], help="small-volume ratio table")
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--v-min", type=float, required=True, dest="v_min")
    p.add_argument("--v-max", type=float, default=1e-2, dest="v_max")
    p.add_argument("--points", type=int, default=13)
    p.set_defaults(func=_cmd_expansion)

    p = sub.add_parser("validate-density", parents=[common], help="ratio-bound check")
    p.add_argument("--space", required=True, metavar="FILE")
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--grid-points", type=int, default=_DENSITY_GRID, dest="grid_points")
    p.set_defaults(func=_cmd_validate_density)

    p = sub.add_parser("min-dimension", parents=[common], help="smallest passing N")
    p.add_argument("--space", required=True, metavar="FILE")
    p.add_argument("--n-lo", type=float, default=1.01, dest="n_lo")
    p.add_argument("--n-hi", type=float, default=30.0, dest="n_hi")
    p.set_defaults(func=_cmd_min_dimension)

    p = sub.add_parser("avr", parents=[common], help="asymptotic volume ratio")
    p.add_argument("--space", required=True, metavar="FILE")
    p.add_argument("--N", type=float, required=True)
    p.set_defaults(func=_cmd_avr)

    p = sub.add_parser("bounds", parents=[common], help="boundary lower bounds")
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--avr", type=float, required=True)
    p.add_argument("--mass", type=float, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sharp", parents=[common], help="extremal space and its gap")
    p.add_argument("--avr", type=float, required=True)
    p.add_argument("--mass", type=float, required=True)
    p.add_argument("--N", type=float, required=True)
    p.set_defaults(func=_cmd_sharp)

    p = sub.add_parser("search", parents=[common], help="brute-force certification")
    p.add_argument("--space", required=True, metavar="FILE")
    p.add_argument("--config", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("localize", parents=[common], help="ray decomposition chain")
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--R", required=True, help="outer radius or sweep a:b:n")
    p.add_argument("--log", action="store_true", help="log-spaced sweep")
    p.set_defaults(func=_cmd_localize)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if not (1 <= args.precision <= 17):
            raise DomainError("--precision must lie in [1, 17]")
        headers, columns, passed = args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(headers, columns, args.format, args.precision)
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())
