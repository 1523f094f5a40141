"""Independent values of the rows that mcp-iso's closed-form commands print.

Every value is computed with mpmath at 50 significant digits, written from
the formulas alone: it imports nothing from mcp_iso or perfbench.  rows(argv,
fixtures) gives the rows of one command line of `profile`, `expansion`,
`bounds`, `sharp` or `avr`, each a dict from column name to an mpf, or to
the text or boolean of a non-numeric cell.  A `@name` argument stands for
the descriptor fixtures[name].

The formulas, with omega_N = pi^(N/2) / Gamma(N/2 + 1):
- profile on the unit diameter: f(x) = N / ((1-x)^(1-N) + x^(1-N) - 1) and
  v(a) = f(a) (1 - (1-a)^N) / (N (1-a)^(N-1)); on diameter D, a scales by
  D and f by 1/D, and profile(0) = profile(1) = 0;
- expansion: the leading constant N^(1/N) of profile(v) / v^((N-1)/N);
- bounds: (N omega_N avr)^(1/N) mass^((N-1)/N) under MCP(0,N), and
  N (omega_N avr)^(1/N) mass^((N-1)/N) under CD(0,N);
- sharp: the half-line density flat at the MCP bound up to
  x_star = (mass / (N omega_N avr))^(1/N), then N omega_N avr x^(N-1); its
  set [0, x_star] has measure mass and boundary content the flat level;
- avr: c / (N omega_N) for a half-line monomial tail c x^(N-1), 0 for a
  lower power or a bounded space, inf for a higher power.
"""

from __future__ import annotations

import functools
import json

import mpmath
from mpmath import mpf

DIGITS = 50


def _at_50_digits(fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        with mpmath.workdps(DIGITS):
            return fn(*args, **kwargs)
    return wrapped


def _number(value) -> mpf:
    """A descriptor or argv number as an mpf: a JSON number, or text such as "inf"."""
    return mpf(repr(value) if isinstance(value, float) else value)


def log_unit_ball_volume(N: mpf) -> mpf:
    return N / 2 * mpmath.log(mpmath.pi) - mpmath.loggamma(N / 2 + 1)


def _unit_f(N: mpf, x: mpf) -> mpf:
    return N / ((1 - x) ** (1 - N) + x ** (1 - N) - 1)


def _unit_v(N: mpf, a: mpf) -> mpf:
    return _unit_f(N, a) * (1 - (1 - a) ** N) / (N * (1 - a) ** (N - 1))


def _unit_solve(N: mpf, w: mpf) -> mpf:
    """a in (0, 1/2] with v(a) = w for 0 < w <= 1/2: bisection, as v increases."""
    lo, hi = mpf(0), mpf(1) / 2
    for _ in range(4 * DIGITS):  # 2^-200 of the bracket: past 50 digits of a >= 1e-10
        mid = (lo + hi) / 2
        if _unit_v(N, mid) < w:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@_at_50_digits
def profile(N, D, v) -> tuple[mpf, mpf]:
    """(a, f(a)) with v(a) = v on [0, D]: the abscissa and the profile value."""
    N, D, v = mpf(N), mpf(D), mpf(v)
    if v in (0, 1):
        return v * D, mpf(0)
    a = _unit_solve(N, min(v, 1 - v))
    return D * (a if v <= mpf(1) / 2 else 1 - a), _unit_f(N, a) / D


@_at_50_digits
def sweep(text: str, log: bool) -> list[mpf]:
    """The n points a:b:n from a to b, log-spaced if log; one number is itself."""
    if ":" not in text:
        return [mpf(text)]
    a, b, n = text.split(":")
    a, b, n = mpf(a), mpf(b), int(n)
    if n == 1:
        return [a]
    if log:
        return [a * (b / a) ** (mpf(k) / (n - 1)) for k in range(n)]
    return [a + (b - a) * k / (n - 1) for k in range(n)]


@_at_50_digits
def mcp_bound(N, avr, mass) -> mpf:
    N, avr, mass = mpf(N), mpf(avr), mpf(mass)
    return (N * mpmath.exp(log_unit_ball_volume(N)) * avr) ** (1 / N) * mass ** ((N - 1) / N)


@_at_50_digits
def cd_bound(N, avr, mass) -> mpf:
    N, avr, mass = mpf(N), mpf(avr), mpf(mass)
    return N * (mpmath.exp(log_unit_ball_volume(N)) * avr) ** (1 / N) * mass ** ((N - 1) / N)


@_at_50_digits
def cone_radius(N, avr, mass) -> mpf:
    """x_star: the radius of the ball [0, r] of this mass under the cone N omega_N avr x^(N-1)."""
    N, avr, mass = mpf(N), mpf(avr), mpf(mass)
    return (mass / (N * mpmath.exp(log_unit_ball_volume(N)) * avr)) ** (1 / N)


@_at_50_digits
def avr(space: dict, N) -> mpf:
    """The asymptotic volume ratio of a space descriptor, read off its tail."""
    N = mpf(N)
    if _number(space["D"]) < mpmath.inf:
        return mpf(0)
    density = space["density"]
    kind = density["type"]
    if kind == "constant":
        c, p = _number(density["c"]), mpf(0)
    elif kind == "monomial":
        c, p = _number(density["c"]), _number(density["p"])
    elif kind == "piecewise_monomial":
        c, p = (_number(density["pieces"][-1][k]) for k in ("c", "p"))
    elif kind == "paper_sharp":
        return _number(density["avr"])
    else:
        raise ValueError(f"a half-line {kind} density has no tail")
    if p < N - 1:
        return mpf(0)
    if p > N - 1:
        return mpmath.inf
    return c / (N * mpmath.exp(log_unit_ball_volume(N)))


def _options(argv) -> dict:
    """argv's --name value pairs by name; a bare --log is True."""
    options, k = {"log": False}, 1
    while k < len(argv):
        if argv[k] == "--log":
            options["log"], k = True, k + 1
        else:
            options[argv[k][2:]], k = argv[k + 1], k + 2
    return options


@_at_50_digits
def rows(argv, fixtures: dict) -> list[dict]:
    """The reference rows of one command line; argv[0] names the command."""
    command, opt = argv[0], _options(argv)
    if command == "profile":
        N, D = mpf(opt["N"]), mpf(opt["D"])
        out = []
        for v in sweep(opt["v"], opt["log"]):
            a, f = profile(N, D, v)
            out.append({"N": N, "D": D, "v": v, "a": a, "f_at_a": f, "profile": f})
        return out
    if command == "expansion":
        N = mpf(opt["N"])
        lead = N ** (1 / N)
        out = []
        for v in sweep(opt["v"], log=True):
            f = profile(N, 1, v)[1]
            ratio = f / v ** ((N - 1) / N)
            out.append({"v": v, "profile": f, "ratio": ratio, "leading": lead,
                        "rel_deviation": abs(ratio - lead) / lead})
        return out
    if command == "bounds":
        N, a, m = (mpf(opt[k]) for k in ("N", "avr", "mass"))
        mcp, cd = mcp_bound(N, a, m), cd_bound(N, a, m)
        return [{"N": N, "avr": a, "mass": m, "mcp_bound": mcp, "cd_bound": cd,
                 "cd_over_mcp": cd / mcp}]
    if command == "sharp":
        N, a, m = (mpf(opt[k]) for k in ("N", "avr", "mass"))
        level = mcp_bound(N, a, m)
        density = {"type": "paper_sharp", "avr": float(opt["avr"]),
                   "mass": float(opt["mass"]), "N": float(opt["N"])}
        return [{"avr": a, "mass": m, "N": N, "x_star": cone_radius(N, a, m),
                 "set_measure": m, "content": level, "bound": level, "gap": mpf(0),
                 "density": json.dumps(density)}]
    if command == "avr":
        return [{"avr": avr(fixtures[opt["space"][1:]], opt["N"]), "certified": True}]
    raise ValueError(f"no reference for command {command!r}")
