"""Command-line front end.

Every subcommand prints a deterministic CSV (default) or JSON report to
stdout.  Exit codes: 0 success / mathematical check passed, 2 computation
succeeded but a check failed, 1 usage or domain error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Sequence

from . import localization as loc
from . import search as search_mod
from .density import check_mcp_density, minimal_mcp_dimension
from .errors import DomainError, InfeasibleSearchError
from .numerics import DEFAULT_TOLERANCE, Tolerance
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
    verify_sharpness,
)

# DomainError, PreconditionError and BracketError are ValueErrors; TypeError
# and OverflowError come from malformed numbers in JSON input and sweeps.
_USAGE_ERRORS = (ValueError, TypeError, OverflowError, InfeasibleSearchError)


def _tolerance_from_env() -> Tolerance:
    raw = os.environ.get("MCP_ISO_TOL")
    if raw is None:
        return DEFAULT_TOLERANCE
    try:
        value = float(raw)
    except ValueError:
        raise DomainError(f"MCP_ISO_TOL must be a number, got {raw!r}")
    return Tolerance(abs_tol=value, rel_tol=value)


def _parse_sweep(text: str, log: bool) -> list[float]:
    """A single float, or 'a:b:n' for n points from a to b."""
    if ":" not in text:
        return [float(text)]
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"sweep must look like a:b:n, got {text!r}")
    a, b = float(parts[0]), float(parts[1])
    n = int(parts[2])
    if n < 2:
        return [a]
    if log:
        if a <= 0 or b <= 0:
            raise DomainError("log sweeps need positive endpoints")
        la, lb = math.log(a), math.log(b)
        return [math.exp(la + (lb - la) * k / (n - 1)) for k in range(n)]
    return [a + (b - a) * k / (n - 1) for k in range(n)]


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}")


def _fmt(value, precision: int) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.{precision}g}"
    return str(value)


def _emit(headers: list[str], rows: list[list], fmt: str, precision: int) -> None:
    if fmt == "json":
        records = []
        for row in rows:
            rec = {}
            for key, value in zip(headers, row):
                if isinstance(value, float) and math.isfinite(value):
                    value = float(f"{value:.{precision}g}")
                elif isinstance(value, float):
                    value = "inf" if value > 0 else "-inf"
                rec[key] = value
            records.append(rec)
        sys.stdout.write(json.dumps(records, indent=2, sort_keys=False) + "\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(headers)
        for row in rows:
            writer.writerow([_fmt(v, precision) for v in row])


def _set_to_text(best_set) -> str:
    return json.dumps([[s, t] for s, t in best_set.components])


def _cmd_profile(args, tol):
    headers = ["N", "D", "v", "a", "f_at_a", "profile"]
    rows = []
    for v in _parse_sweep(args.v, args.log):
        res = profile_mcp(args.N, args.D, v, tol)
        rows.append([res.N, res.D, res.v, res.a, res.f_at_a, res.profile])
    return headers, rows, True


def _cmd_expansion(args, tol):
    if not (0.0 < args.v_min < args.v_max):
        raise DomainError("need 0 < --v-min < --v-max")
    lead = expansion_leading_coefficient(args.N)
    headers = ["v", "profile", "ratio", "leading", "rel_deviation"]
    rows = []
    for v in _parse_sweep(f"{args.v_max}:{args.v_min}:{args.points}", log=True):
        prof = profile_mcp(args.N, 1.0, v, tol).profile
        ratio = prof / v ** ((args.N - 1.0) / args.N)
        rows.append([v, prof, ratio, lead, abs(ratio - lead) / lead])
    return headers, rows, True


def _cmd_validate_density(args, tol):
    space = space_from_dict(_load_json(args.space))
    verdict = check_mcp_density(space.h, space.D, args.N, tol, args.grid_points)
    headers = ["status", "samples_used", "x0", "x1", "side", "lhs", "rhs"]
    w = verdict.witness
    row = [verdict.status, verdict.samples_used]
    row += [w.x0, w.x1, w.side, w.lhs, w.rhs] if w else ["", "", "", "", ""]
    return headers, [row], verdict.passed


def _cmd_min_dimension(args, tol):
    space = space_from_dict(_load_json(args.space))
    result = minimal_mcp_dimension(space.h, space.D, args.n_lo, args.n_hi, tol)
    headers = ["minimal_dimension"]
    if result is None:
        return headers, [["none"]], False
    return headers, [[result]], True


def _cmd_avr(args, tol):
    space = space_from_dict(_load_json(args.space))
    value, certified = avr(space, args.N, args.r_max)
    return ["avr", "certified"], [[value, certified]], True


def _cmd_bounds(args, tol):
    mcp = avr_lower_bound(args.N, args.avr, args.mass)
    cd = cd_lower_bound(args.N, args.avr, args.mass)
    ratio = cd / mcp if mcp > 0 else math.nan
    headers = ["N", "avr", "mass", "mcp_bound", "cd_bound", "cd_over_mcp"]
    return headers, [[args.N, args.avr, args.mass, mcp, cd, ratio]], True


def _cmd_sharp(args, tol):
    space, extremal = sharp_space(args.avr, args.mass, args.N)
    gap = verify_sharpness(args.avr, args.mass, args.N)
    content = minkowski_content(space, extremal)
    bound = avr_lower_bound(args.N, args.avr, args.mass)
    headers = [
        "avr", "mass", "N", "x_star", "set_measure", "content", "bound", "gap", "density",
    ]
    row = [
        args.avr,
        args.mass,
        args.N,
        space.h.x_star,
        measure(space, extremal),
        content,
        bound,
        gap,
        json.dumps(space.h.to_dict()),
    ]
    return headers, [row], abs(gap) <= max(tol.abs_tol, 1e-10)


def _cmd_search(args, tol):
    space = space_from_dict(_load_json(args.space))
    config = _load_json(args.config)
    try:
        N = float(config["N"])
    except KeyError:
        raise DomainError("search config needs a field 'N'")
    if "avr" in config:
        avr_value = float(config["avr"])
    else:
        value, certified = avr(space, N)
        if not certified:
            raise DomainError("space has no certified avr; set 'avr' in the config")
        avr_value = value
    raw_volumes = config.get("volumes")
    if isinstance(raw_volumes, dict):
        volumes = _parse_sweep(raw_volumes["sweep"], bool(raw_volumes.get("log", False)))
    elif isinstance(raw_volumes, list):
        volumes = [float(v) for v in raw_volumes]
    else:
        raise DomainError("search config needs 'volumes': a list or {'sweep': 'a:b:n'}")
    cfg = search_mod.SearchConfig(
        target_volume=0.0,
        volume_tolerance=float(config.get("volume_tolerance", 1e-9)),
        grid_points=int(config.get("grid_points", 512)),
        max_components=int(config.get("max_components", 2)),
        window=float(config["window"]) if "window" in config else None,
    )
    report = search_mod.certify_bound(space, N, avr_value, volumes, cfg)
    headers = ["v", "content", "bound", "margin", "best_set", "slack"]
    rows = [
        [r.v, r.content, r.bound, r.margin, _set_to_text(r.best_set), r.slack]
        for r in report.rows
    ]
    return headers, rows, report.passed


def _cmd_localize(args, tol):
    model = loc.model_from_dict(_load_json(args.model))
    headers = [
        "R", "m_plus", "needle_integral", "scaled_profile_bound", "avr_bound",
        "residual", "ordered",
    ]
    rows = []
    all_ordered = True
    for big_r in _parse_sweep(args.R, args.log):
        report = loc.dimension_reduction_chain(model, args.r, big_r, tol)
        residual = loc.verify_disintegration(model, args.r, big_r)
        ordered = report.ordered(tol)
        all_ordered = all_ordered and ordered
        rows.append(
            [
                report.R, report.m_plus, report.needle_integral,
                report.scaled_profile_bound, report.avr_bound, residual, ordered,
            ]
        )
    return headers, rows, all_ordered


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--grid-points", type=int, default=512, dest="grid_points")
    p.set_defaults(func=_cmd_validate_density)

    p = sub.add_parser("min-dimension", parents=[common], help="smallest passing N")
    p.add_argument("--space", required=True, metavar="FILE")
    p.add_argument("--n-lo", type=float, default=1.01, dest="n_lo")
    p.add_argument("--n-hi", type=float, default=30.0, dest="n_hi")
    p.set_defaults(func=_cmd_min_dimension)

    p = sub.add_parser("avr", parents=[common], help="asymptotic volume ratio")
    p.add_argument("--space", required=True, metavar="FILE")
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--r-max", type=float, default=1e6, dest="r_max")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (1 <= args.precision <= 17):
        print("error: --precision must lie in [1, 17]", file=sys.stderr)
        return 1
    try:
        tol = _tolerance_from_env()
        headers, rows, passed = args.func(args, tol)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(headers, rows, args.format, args.precision)
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())
