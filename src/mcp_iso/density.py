"""One-dimensional weight functions and the curvature-dimension ratio checks.

A weight h on [0, D] (D possibly infinite) is admissible for dimension
parameter N > 1 when, for every pair x0 <= x1 in the domain,

    ((D - x1)/(D - x0))^(N-1)  <=  h(x1)/h(x0)  <=  (x1/x0)^(N-1)

on a bounded domain, and 1 <= h(x1)/h(x0) <= (x1/x0)^(N-1) on the half line.
All checks below use the cross-multiplied (division-free) form so that zeros
of h at the left endpoint are handled without special cases.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .numerics import DEFAULT_TOLERANCE, Tolerance, require_dimension, unit_ball_volume

__all__ = [
    "Density",
    "ConstantDensity",
    "MonomialDensity",
    "PiecewiseMonomialDensity",
    "SharpDensity",
    "TabulatedDensity",
    "Witness",
    "Verdict",
    "check_mcp_density",
    "minimal_mcp_dimension",
    "density_from_dict",
]

PASS_EXACT = "pass_exact"
PASS_SAMPLED = "pass_sampled"
FAIL = "fail"

_CONTINUITY_RTOL = 1e-12
# A generous bound on how far rounding moves a quotient comparison
# h1/w1 vs h0/w0 from its cross-multiplied form h1*w0 vs h0*w1, as a share
# of the compared values.
_QUOTIENT_ROUNDING = 16 * np.finfo(float).eps


class Density:
    """Base class for the supported weight-function families.

    h(x) and h.integral(s, t) take a float or a numpy array (x, respectively
    t with a scalar s): a float gives a float, an array an array of the same
    shape.  A family implements both on arrays, in _eval and _integral.
    """

    kind: str = "abstract"

    def __call__(self, x):
        hv = self._eval(np.asarray(x, dtype=float))
        return float(hv) if np.ndim(hv) == 0 else hv

    def integral(self, s: float, t):
        """Exact integral of the weight over [s, t]."""
        total = self._integral(float(s), np.asarray(t, dtype=float))
        return float(total) if np.ndim(total) == 0 else total

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _integral(self, s: float, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def scaled(self, factor: float) -> "Density":
        """The weight multiplied by a positive constant."""
        raise NotImplementedError

    def tail(self) -> Optional[tuple[float, float]]:
        """(c, p) such that h(x) = c * x^p for all large x, or None."""
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        """Interior junction points (sampling grids must include these)."""
        return ()

    # Domain actually covered by the definition of h.
    support_start: float = 0.0
    support_end: float = math.inf

    def to_dict(self) -> dict:
        raise NotImplementedError


def _require_positive(name: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be positive and finite, got {value}")
    return float(value)


@dataclass(frozen=True)
class ConstantDensity(Density):
    c: float
    kind = "constant"

    def __post_init__(self):
        _require_positive("constant level c", self.c)

    def _eval(self, xs):
        return np.full(xs.shape, self.c)

    def _integral(self, s, t):
        return self.c * (t - s)

    def scaled(self, factor: float) -> "ConstantDensity":
        return ConstantDensity(self.c * factor)

    def tail(self):
        return (self.c, 0.0)

    def to_dict(self) -> dict:
        return {"type": "constant", "c": self.c}


@dataclass(frozen=True)
class MonomialDensity(Density):
    """h(x) = c * x^p with c > 0 and p >= 0 (continuity at the origin)."""

    c: float
    p: float
    kind = "monomial"

    def __post_init__(self):
        _require_positive("monomial coefficient c", self.c)
        if not (math.isfinite(self.p) and self.p >= 0.0):
            raise DomainError(f"monomial exponent must be >= 0, got {self.p}")

    def _eval(self, xs):
        return self.c * xs ** self.p

    def _integral(self, s, t):
        q = self.p + 1.0
        return self.c * (t ** q - s ** q) / q

    def scaled(self, factor: float) -> "MonomialDensity":
        return MonomialDensity(self.c * factor, self.p)

    def tail(self):
        return (self.c, self.p)

    def to_dict(self) -> dict:
        return {"type": "monomial", "c": self.c, "p": self.p}


@dataclass(frozen=True)
class PiecewiseMonomialDensity(Density):
    """Monomial pieces glued continuously at increasing breakpoints.

    pieces[i] = (c, p) applies on [b_{i-1}, b_i] with b_0 = 0 and the last
    piece extending to infinity.  The first exponent must be >= 0 so the
    weight stays continuous at the origin; later pieces may decrease.
    """

    break_values: tuple[float, ...]
    pieces: tuple[tuple[float, float], ...]
    kind = "piecewise_monomial"

    def __post_init__(self):
        bps = tuple(float(b) for b in self.break_values)
        pcs = tuple((float(c), float(p)) for c, p in self.pieces)
        object.__setattr__(self, "break_values", bps)
        object.__setattr__(self, "pieces", pcs)
        if len(pcs) != len(bps) + 1:
            raise DomainError(
                f"need exactly one more piece than breakpoints, got "
                f"{len(pcs)} pieces for {len(bps)} breakpoints"
            )
        if any(b <= 0 or not math.isfinite(b) for b in bps):
            raise DomainError("breakpoints must be positive and finite")
        if any(b1 <= b0 for b0, b1 in zip(bps, bps[1:])):
            raise DomainError("breakpoints must be strictly increasing")
        for c, p in pcs:
            _require_positive("piece coefficient", c)
        if pcs[0][1] < 0.0:
            raise DomainError("first piece exponent must be >= 0 (continuity at 0)")
        for b, (c0, p0), (c1, p1) in zip(bps, pcs, pcs[1:]):
            left = c0 * b ** p0
            right = c1 * b ** p1
            if abs(left - right) > _CONTINUITY_RTOL * max(abs(left), abs(right), 1.0):
                raise DomainError(f"pieces disagree at breakpoint {b}: {left} vs {right}")

    def _eval(self, xs):
        # Piece k covers (b_{k-1}, b_k]: x at a breakpoint takes the left piece.
        k = np.searchsorted(self.break_values, xs, side="left")
        c, p = np.asarray(self.pieces).T
        return c[k] * xs ** p[k]

    def _integral(self, s, t):
        bounds = (0.0,) + self.break_values + (math.inf,)
        total = np.zeros(t.shape)
        for (c, p), lo, hi in zip(self.pieces, bounds, bounds[1:]):
            # [a, b] is the part of [s, t] inside this piece, empty as b = a.
            a = max(s, lo)
            b = np.maximum(np.minimum(t, hi), a)
            q = p + 1.0
            if q == 0.0:  # only after the first piece, where a >= lo > 0
                total += c * np.log(b / a)
            else:
                total += c * (b ** q - a ** q) / q
        return total

    def scaled(self, factor: float) -> "PiecewiseMonomialDensity":
        return PiecewiseMonomialDensity(
            self.break_values, tuple((c * factor, p) for c, p in self.pieces)
        )

    def tail(self):
        return self.pieces[-1]

    def breakpoints(self) -> tuple[float, ...]:
        return self.break_values

    def to_dict(self) -> dict:
        return {
            "type": "piecewise_monomial",
            "breakpoints": list(self.break_values),
            "pieces": [{"c": c, "p": p} for c, p in self.pieces],
        }


@dataclass(frozen=True)
class SharpDensity(Density):
    """The extremal half-line weight attaining equality in the volume-growth
    isoperimetric bound: constant up to x_star, then a pure power.

    For parameters (avr, mass, N) the flat level and the switch point are
    chosen so the flat part carries exactly ``mass`` and the tail gives the
    space asymptotic volume ratio ``avr``.
    """

    avr: float
    mass: float
    N: float
    kind = "paper_sharp"

    def __post_init__(self):
        _require_positive("avr", self.avr)
        _require_positive("mass", self.mass)
        require_dimension(self.N)
        # Derived constants, kept out of the dataclass fields.
        tail_coefficient = self.N * unit_ball_volume(self.N) * self.avr
        object.__setattr__(self, "tail_coefficient", tail_coefficient)
        object.__setattr__(self, "x_star", (self.mass / tail_coefficient) ** (1.0 / self.N))
        object.__setattr__(
            self,
            "level",
            tail_coefficient ** (1.0 / self.N) * self.mass ** ((self.N - 1.0) / self.N),
        )

    def _eval(self, xs):
        return np.where(xs <= self.x_star, self.level,
                        self.tail_coefficient * xs ** (self.N - 1.0))

    def _integral(self, s, t):
        # The flat part of [s, t], then the power part; each is empty as b = a.
        a = max(s, 0.0)
        b = np.maximum(np.minimum(t, self.x_star), a)
        total = self.level * (b - a)
        a = max(s, self.x_star)
        b = np.maximum(t, a)
        return total + self.tail_coefficient * (b ** self.N - a ** self.N) / self.N

    def scaled(self, factor: float) -> "SharpDensity":
        # Scaling stays in the family: both avr and mass pick up the factor
        # while the switch point is unchanged.
        return SharpDensity(self.avr * factor, self.mass * factor, self.N)

    def tail(self):
        return (self.tail_coefficient, self.N - 1.0)

    def breakpoints(self) -> tuple[float, ...]:
        return (self.x_star,)

    def to_dict(self) -> dict:
        return {"type": "paper_sharp", "avr": self.avr, "mass": self.mass, "N": self.N}


@dataclass(frozen=True)
class TabulatedDensity(Density):
    """Linear interpolation of sampled non-negative values on a finite grid."""

    grid: tuple[float, ...]
    values: tuple[float, ...]
    kind = "tabulated"

    def __post_init__(self):
        g = tuple(float(x) for x in self.grid)
        v = tuple(float(x) for x in self.values)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        if len(g) < 2 or len(g) != len(v):
            raise DomainError("tabulated density needs matching grid/values, length >= 2")
        if any(b <= a for a, b in zip(g, g[1:])):
            raise DomainError("tabulated grid must be strictly increasing")
        if g[0] < 0.0:
            raise DomainError("tabulated grid must start at x >= 0")
        if any(x < 0.0 for x in v):
            raise DomainError("tabulated values must be non-negative")
        if any(a == 0.0 and b == 0.0 for a, b in zip(v, v[1:])):
            raise DomainError("tabulated density vanishes on a whole segment")
        # Array copies for np.interp, kept out of the dataclass fields.
        object.__setattr__(self, "_grid", np.asarray(g))
        object.__setattr__(self, "_values", np.asarray(v))

    @property
    def support_start(self) -> float:  # type: ignore[override]
        return self.grid[0]

    @property
    def support_end(self) -> float:  # type: ignore[override]
        return self.grid[-1]

    def _eval(self, xs):
        if np.any((xs < self.grid[0]) | (xs > self.grid[-1])):
            raise DomainError(f"tabulated density not defined at {xs}")
        return np.interp(xs, self._grid, self._values)

    def _integral(self, s, t):
        # Exact for the piecewise-linear interpolant: trapezoids from s over
        # the table nodes above it, summed left to right, then the piece from
        # the last knot below t to t.
        if s < self.grid[0] or np.any(t > self.grid[-1]):
            raise DomainError("integration range escapes the tabulated grid")
        a = bisect.bisect_right(self.grid, s)
        knots = np.concatenate([[s], self._grid[a:]])
        kv = np.interp(knots, self._grid, self._values)
        run = np.concatenate([[0.0], np.cumsum(0.5 * (kv[:-1] + kv[1:]) * np.diff(knots))])
        m = np.maximum(np.searchsorted(self._grid, t, side="left") - a, 0)
        last = 0.5 * (kv[m] + np.interp(t, self._grid, self._values)) * (t - knots[m])
        return np.where(t > s, run[m] + last, 0.0)

    def scaled(self, factor: float) -> "TabulatedDensity":
        return TabulatedDensity(self.grid, tuple(v * factor for v in self.values))

    def tail(self):
        return None

    def breakpoints(self) -> tuple[float, ...]:
        return self.grid[1:-1]

    def to_dict(self) -> dict:
        return {"type": "tabulated", "grid": list(self.grid), "values": list(self.values)}


def density_from_dict(data: dict) -> Density:
    """Build a density from its JSON dictionary form."""
    try:
        kind = data["type"]
    except (KeyError, TypeError):
        raise DomainError("density descriptor must be an object with a 'type' field")
    try:
        if kind == "constant":
            return ConstantDensity(float(data["c"]))
        if kind == "monomial":
            return MonomialDensity(float(data["c"]), float(data["p"]))
        if kind == "piecewise_monomial":
            return PiecewiseMonomialDensity(
                tuple(float(b) for b in data["breakpoints"]),
                tuple((float(p["c"]), float(p["p"])) for p in data["pieces"]),
            )
        if kind == "paper_sharp":
            return SharpDensity(float(data["avr"]), float(data["mass"]), float(data["N"]))
        if kind == "tabulated":
            return TabulatedDensity(tuple(data["grid"]), tuple(data["values"]))
    except KeyError as exc:
        raise DomainError(f"density descriptor of type '{kind}' is missing field {exc}")
    raise DomainError(f"unknown density type '{kind}'")


@dataclass(frozen=True)
class Witness:
    """A pair (x0, x1) violating one side of the ratio bounds.

    lhs and rhs are the two sides of the cross-multiplied inequality:
    upper side, violation means lhs > rhs; lower side, violation lhs < rhs.
    """

    x0: float
    x1: float
    side: str  # "lower" | "upper"
    lhs: float
    rhs: float

    def __post_init__(self):
        if not self.x0 < self.x1:
            raise DomainError(f"witness pair must satisfy x0 < x1, got {self.x0}, {self.x1}")
        if self.side not in ("lower", "upper"):
            raise DomainError(f"witness side must be 'lower' or 'upper', got {self.side}")


@dataclass(frozen=True)
class Verdict:
    status: str  # PASS_EXACT | PASS_SAMPLED | FAIL
    witness: Optional[Witness] = None
    samples_used: int = 0

    def __post_init__(self):
        if (self.status == FAIL) != (self.witness is not None):
            raise DomainError("verdict carries a witness exactly when it fails")

    @property
    def passed(self) -> bool:
        return self.status != FAIL


def _validate_domain(D: float) -> float:
    D = float(D)
    if not D > 0.0:
        raise DomainError(f"domain right endpoint must be positive, got {D}")
    return D


def _sample_grid(h: Density, D: float, grid_points: int) -> np.ndarray:
    lo = max(0.0, h.support_start)
    if math.isinf(D):
        hi = h.support_end
        if math.isinf(hi):
            bps = h.breakpoints()
            hi = max(bps) if bps else 1.0
    else:
        hi = min(D, h.support_end)
    if not hi > lo:
        raise DomainError(f"density support [{h.support_start}, {h.support_end}] "
                          f"does not overlap the domain [0, {D}]")
    pts = np.linspace(lo, hi, grid_points)
    extra = [b for b in h.breakpoints() if lo < b < hi]
    if extra:
        pts = np.unique(np.concatenate([pts, np.asarray(extra)]))
    return pts


def _sampled_witness(
    xs: np.ndarray, hv: np.ndarray, D: float, N: float, rel_tol: float
) -> Optional[Witness]:
    """The lexicographically smallest sampled pair violating the bounds.

    Over all pairs, the upper bound says g = h / x^(N-1) is non-increasing
    and the lower bound says q = h / (D - x)^(N-1) (h itself on the half
    line) is non-decreasing.  Suffix extrema of g and q flag, in O(n), each
    i that may have a violating partner.  The flags allow for the rounding
    of the quotients, so a scan of the cross-multiplied pairs (i, j > i)
    confirms them in order; the first confirmed i and its first partner j
    are exactly the witness of the cross-multiplied form over all pairs
    (while the powers neither overflow nor underflow).  Only a row within
    rounding of rel_tol is flagged and not confirmed.
    """
    xw = xs ** (N - 1.0)
    dw = np.ones_like(xs) if math.isinf(D) else (D - xs) ** (N - 1.0)

    def rises(a, b, rel):
        return a > b + rel * np.maximum(a, b)

    def falls(a, b, rel):
        return a < b - rel * np.maximum(a, b)

    # A sample at x = 0 never violates the upper bound, one at x = D never
    # the lower bound: both sides of their cross-multiplied form vanish.
    up_ok, lo_ok = xw > 0.0, dw > 0.0
    loose = rel_tol - _QUOTIENT_ROUNDING
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(up_ok, hv / xw, -np.inf)
        q = np.where(lo_ok, hv / dw, np.inf)
        later_max = np.append(np.maximum.accumulate(g[::-1])[-2::-1], -np.inf)
        later_min = np.append(np.minimum.accumulate(q[::-1])[-2::-1], np.inf)
        flagged = (up_ok & rises(later_max, g, loose)) | (lo_ok & falls(later_min, q, loose))
    for i in np.flatnonzero(flagged):
        up_lhs, up_rhs = hv[i + 1:] * xw[i], hv[i] * xw[i + 1:]
        lo_lhs, lo_rhs = hv[i + 1:] * dw[i], hv[i] * dw[i + 1:]
        up = rises(up_lhs, up_rhs, rel_tol)
        viol = up | falls(lo_lhs, lo_rhs, rel_tol)
        if viol.any():
            k = int(np.argmax(viol))
            x0, x1 = float(xs[i]), float(xs[i + 1 + k])
            if up[k]:
                return Witness(x0, x1, "upper", float(up_lhs[k]), float(up_rhs[k]))
            return Witness(x0, x1, "lower", float(lo_lhs[k]), float(lo_rhs[k]))
    return None


def _pair_witness(h: Density, x0: float, x1: float, D: float, N: float,
                  rel_tol: float) -> Optional[Witness]:
    xs = np.array([x0, x1])
    return _sampled_witness(xs, h(xs), D, N, rel_tol)


def _check_impl(
    h: Density,
    D: float,
    N: float,
    tol: Tolerance,
    grid_points: int,
    allow_uncertified_tail: bool,
) -> Verdict:
    if isinstance(h, (ConstantDensity, MonomialDensity, SharpDensity)):
        # Power against power: the violation factor grows with x1/x0, so one
        # pair decides, at ratio 2 (below which rel_tol calls it rounding
        # dust) or anchored at the sharp weight's switch point.
        x0, x1 = (1.0, 2.0) if math.isinf(D) else (D / 4.0, D / 2.0)
        if isinstance(h, SharpDensity) and D > h.x_star:
            x0, x1 = h.x_star, (2.0 * h.x_star if math.isinf(D) else D)
        witness = _pair_witness(h, x0, x1, D, N, tol.rel_tol)
        return Verdict(PASS_EXACT) if witness is None else Verdict(FAIL, witness)

    xs = _sample_grid(h, D, grid_points)
    witness = _sampled_witness(xs, h(xs), D, N, tol.rel_tol)
    if witness is None and math.isinf(D):
        if isinstance(h, PiecewiseMonomialDensity):
            # Pairs inside the last piece reduce to its exponent; pairs that
            # straddle the last breakpoint are covered by the sampled window.
            b = h.break_values[-1] if h.break_values else 1.0
            witness = _pair_witness(h, b, 2.0 * b, D, N, tol.rel_tol)
        elif not allow_uncertified_tail:
            raise DomainError(
                "a tabulated density has no defined tail; it cannot certify "
                f"behaviour on [0, inf) beyond its grid end {h.support_end}"
            )
    if witness is not None:
        return Verdict(FAIL, witness, samples_used=len(xs))
    return Verdict(PASS_SAMPLED, samples_used=len(xs))


def check_mcp_density(
    h: Density,
    D: float,
    N: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
    grid_points: int = 512,
) -> Verdict:
    """Check the dimension-N ratio bounds for h on [0, D] (D may be inf).

    Over all pairs the bounds say that h / x^(N-1) is non-increasing and
    h / (D - x)^(N-1) (h on the half line) non-decreasing; one O(n) scan of
    these quotients decides every family.  Constant, monomial and sharp
    densities are decided exactly by their closed-form worst pair
    (pass_exact / fail); piecewise and tabulated ones by the scan over a
    dense deterministic grid (pass_sampled / fail with the lexicographically
    smallest violating pair), plus the pair (b, 2b) at the last breakpoint
    for the monomial tail of a piecewise density on the half line.
    A tabulated density on the half line can fail (a violation inside its
    grid disproves the bounds) but never pass: with no defined tail the
    positive case raises a DomainError.
    """
    D = _validate_domain(D)
    N = require_dimension(N)
    if grid_points < 2:
        raise DomainError(f"grid_points must be >= 2, got {grid_points}")
    return _check_impl(h, D, N, tol, grid_points, allow_uncertified_tail=False)


def minimal_mcp_dimension(
    h: Density,
    D: float,
    n_lo: float,
    n_hi: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
    grid_points: int = 512,
) -> Optional[float]:
    """Smallest dimension parameter in [n_lo, n_hi] for which h passes.

    Bisection over the check; valid because both bound exponents are N - 1,
    so the passing set is upward closed in N.  Returns None when even n_hi
    fails.  For a tabulated density on the half line the result certifies
    the sampled grid only (the tail stays unverified).

    Each step costs one O(n) scan.  The bisection stays rather than a
    closed-form largest secant slope of (log x, log h): that formula ignores
    the rel_tol term of the check, so it would be a second definition of
    the passing set and drift from it by up to ~1e-9.
    """
    D = _validate_domain(D)
    if not n_lo > 1.0:
        raise DomainError(f"n_lo must exceed 1, got {n_lo}")
    if not n_hi > n_lo:
        raise DomainError(f"need n_lo < n_hi, got [{n_lo}, {n_hi}]")

    def passes(n: float) -> bool:
        verdict = _check_impl(h, D, n, tol, grid_points, allow_uncertified_tail=True)
        return verdict.status != FAIL

    if not passes(n_hi):
        return None
    if passes(n_lo):
        return float(n_lo)
    lo, hi = float(n_lo), float(n_hi)
    while hi - lo > tol.abs_tol:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi
