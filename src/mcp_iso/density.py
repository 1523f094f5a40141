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
import sys
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .numerics import (as_array, as_number, as_numbers, float_or_array, read_object,
                       require_count, require_dimension, require_extent, require_field,
                       require_increasing, require_nonnegative, require_positive)
from .profile import avr_lower_bound, cone_radius, log_cone_coefficient

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

# Relative disagreement of neighbouring pieces at a breakpoint that counts
# as rounding, not a jump, at any scale (relative to at least _NORMAL_MIN,
# so that subnormal rounding passes).
_CONTINUITY_RTOL = 1e-12
# A generous bound on how far rounding moves a quotient comparison
# h1/w1 vs h0/w0 from its cross-multiplied form h1*w0 vs h0*w1, as a share
# of the compared values.
_QUOTIENT_ROUNDING = 16 * np.finfo(float).eps
# The least normal float: below it a ratio-check power can make h / power overflow.
_NORMAL_MIN = np.finfo(float).tiny
# Relative excess over a ratio bound that counts as rounding, not a violation.
_RATIO_RTOL = 1e-12
# Width in N at which minimal_mcp_dimension stops bisecting.
_BISECT_WIDTH = 1e-12
# How many levels above its last minimal_mcp_dimension takes the cells of
# the bisection path replayed from its secant guess whose ends it checks,
# narrowest first: 8 final cells wide, then 128 and 2^17 (~1.1e-7 on
# [1.01, 30], a guess off by ~1e-8 relative).  The guess allows for
# _RATIO_RTOL and lands within ~2 cells of the answer.
_GUESS_LEVELS = (3, 7, 17)
# A gap in log x (or log(D - x)) that _secant_guess takes for rounding dust,
# as left where np.unique merges a breakpoint into the sample grid.
_DUST_GAP = 1e-9


class Density:
    """Base class for the supported weight-function families.

    h(x) and h.integral(s, t) take a float or a numpy array (x, respectively
    t with a scalar s): a float gives a float, an array an array of its shape
    (numerics.float_or_array).  Each family defines four methods: _eval(xs)
    and _integral(s, t) on arrays, scaled(factor), the weight times a
    positive constant, and tail(), (c, p) with h(x) = c * x^p for all large
    x, or None.
    """

    kind: str = "abstract"

    def __call__(self, x):
        return float_or_array(self._eval(np.asarray(x, dtype=float)))

    def integral(self, s: float, t):
        """Exact integral of the weight over [s, t]; a float t gives its array element's bits."""
        t = np.asarray(t, dtype=float)
        return float_or_array(self._integral(float(s), np.atleast_1d(t)).reshape(t.shape))

    def breakpoints(self) -> tuple[float, ...]:
        """Interior junction points (sampling grids must include these)."""
        return self._breaks

    # Junction points and the domain h covers; a family that differs sets its own.
    _breaks: tuple[float, ...] = ()
    support_start: float = 0.0
    support_end: float = math.inf


class _PowerPieces(Density):
    """Monomial pieces (c, p), h = c * x^p, in _pieces, set once by each
    family's __post_init__.  Piece k covers (b_{k-1}, b_k] for the _breaks
    b_k, with b_{-1} = 0 and the last piece running to infinity, so x at a
    breakpoint takes the left piece.  A flat piece is c: x^0 = 1 at 0, inf, NaN.
    """

    def _eval(self, xs):
        # Right to left.  Each piece is evaluated on all of xs and its values
        # outside its own span dropped, so their overflow or division by
        # zero is no error; a value past the float range is inf.
        (c, p), *left = reversed(self._pieces)
        with np.errstate(divide="ignore", over="ignore"):
            hv = c * xs ** p
            for (c, p), b in zip(left, reversed(self._breaks)):
                hv = np.where(xs <= b, c * xs ** p, hv)
        return hv

    def _integral(self, s, t):
        bounds = (0.0,) + self._breaks + (math.inf,)
        total = None
        for (c, p), lo, hi in zip(self._pieces, bounds, bounds[1:]):
            # [a, b] is the part of [s, t] inside this piece, empty as b = a.
            a = max(s, lo)
            b = np.maximum(t if hi == math.inf else np.minimum(t, hi), a)
            q = p + 1.0
            if a == math.inf:  # s = inf: the part is empty, b = a, or NaN where t is
                part = np.where(b == a, 0.0, np.nan)
            elif p == 0.0:
                part = c * (b - a)
            elif q == 0.0:  # only after the first piece, where a >= lo > 0
                part = c * np.log(b / a)
            else:
                # a ** q by the routine that raises b, so an empty part (b = a)
                # is exactly 0, also where a ** q overflows (NaN where t is).
                with np.errstate(over="ignore"):
                    a_q = (np.array([a]) ** q)[0]
                if a_q == math.inf and (b > a).any():
                    raise DomainError(
                        f"{self!r}: the integral of its piece x^{p:g} from x = {a:g} "
                        "leaves the float range"
                    )
                part = (c * (b ** q - a_q) / q if a_q < math.inf
                        else np.where(b == a, 0.0, np.nan))
            total = part if total is None else total + part
        return total

    def tail(self):
        return self._pieces[-1]


@dataclass(frozen=True)
class ConstantDensity(_PowerPieces):
    c: float
    kind = "constant"

    def __post_init__(self):
        require_positive("constant level c", self.c)
        object.__setattr__(self, "_pieces", ((self.c, 0.0),))

    def scaled(self, factor: float) -> "ConstantDensity":
        return ConstantDensity(self.c * factor)


@dataclass(frozen=True)
class MonomialDensity(_PowerPieces):
    """h(x) = c * x^p with c > 0 and p >= 0 (continuity at the origin)."""

    c: float
    p: float
    kind = "monomial"

    def __post_init__(self):
        require_positive("monomial coefficient c", self.c)
        require_nonnegative("monomial exponent p", self.p)
        object.__setattr__(self, "_pieces", ((self.c, self.p),))

    def scaled(self, factor: float) -> "MonomialDensity":
        return MonomialDensity(self.c * factor, self.p)


@dataclass(frozen=True)
class PiecewiseMonomialDensity(_PowerPieces):
    """Monomial pieces glued continuously at increasing breakpoints.

    pieces[i] = (c, p) applies on [b_{i-1}, b_i] with b_0 = 0 and the last
    piece extending to infinity.  The first exponent must be >= 0 so the
    weight stays continuous at the origin; later pieces may decrease.
    """

    break_values: tuple[float, ...]
    pieces: tuple[tuple[float, float], ...]
    kind = "piecewise_monomial"

    def __post_init__(self):
        bps = require_increasing("breakpoints", self.break_values)
        pcs = tuple((require_positive("piece coefficient", c), float(p)) for c, p in self.pieces)
        object.__setattr__(self, "break_values", bps)
        object.__setattr__(self, "pieces", pcs)
        if len(pcs) != len(bps) + 1:
            raise DomainError(
                f"need exactly one more piece than breakpoints, got "
                f"{len(pcs)} pieces for {len(bps)} breakpoints"
            )
        if bps:  # the least breakpoint; require_increasing refused the others
            require_positive("breakpoint 0", bps[0])
        for _, p in pcs:
            if not math.isfinite(p):
                raise DomainError(f"piece exponent must be finite, got {p}")
        require_nonnegative("first piece exponent", pcs[0][1])
        for b, (c0, p0), (c1, p1) in zip(bps, pcs, pcs[1:]):
            with np.errstate(over="ignore"):
                left, right = float(c0 * np.float64(b) ** p0), float(c1 * np.float64(b) ** p1)
            if not math.isfinite(left + right):
                raise DomainError(f"pieces leave the float range at breakpoint {b}: "
                                  f"{left} vs {right}")
            if abs(left - right) > _CONTINUITY_RTOL * max(abs(left), abs(right), _NORMAL_MIN):
                raise DomainError(f"pieces disagree at breakpoint {b}: {left} vs {right}")
        object.__setattr__(self, "_pieces", pcs)
        object.__setattr__(self, "_breaks", bps)

    def scaled(self, factor: float) -> "PiecewiseMonomialDensity":
        return PiecewiseMonomialDensity(
            self.break_values, tuple((c * factor, p) for c, p in self.pieces)
        )


@dataclass(frozen=True)
class SharpDensity(_PowerPieces):
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
        require_positive("avr", self.avr)
        require_positive("mass", self.mass)
        require_dimension(self.N)
        # Derived constants of the model cone, kept out of the dataclass fields.
        # The tail coefficient must be a normal float: a subnormal one keeps
        # too few significant bits, and at avr = 1 that happens past N = 438.
        log_tail = log_cone_coefficient(self.N, self.avr)
        if not math.log(sys.float_info.min) <= log_tail <= math.log(sys.float_info.max):
            raise DomainError(
                f"sharp density at N = {self.N:g}, avr = {self.avr:g}: its tail coefficient "
                f"N omega_N avr = exp({log_tail:.6g}) is not a normal positive float"
            )
        object.__setattr__(self, "tail_coefficient", math.exp(log_tail))
        object.__setattr__(self, "x_star", cone_radius(self.N, self.avr, self.mass))
        object.__setattr__(self, "level", avr_lower_bound(self.N, self.avr, self.mass))
        pieces = ((self.level, 0.0), (self.tail_coefficient, self.N - 1.0))
        object.__setattr__(self, "_pieces", pieces)
        object.__setattr__(self, "_breaks", (self.x_star,))

    def scaled(self, factor: float) -> "SharpDensity":
        # Scaling stays in the family: both avr and mass pick up the factor
        # while the switch point is unchanged.
        return SharpDensity(self.avr * factor, self.mass * factor, self.N)

    def to_dict(self) -> dict:
        """The JSON form that density_from_dict reads back."""
        return {"type": self.kind, "avr": self.avr, "mass": self.mass, "N": self.N}


@dataclass(frozen=True)
class TabulatedDensity(Density):
    """Linear interpolation of sampled non-negative values on a finite grid."""

    grid: tuple[float, ...]
    values: tuple[float, ...]
    kind = "tabulated"

    def __post_init__(self):
        g = require_increasing("tabulated grid", self.grid)
        v = tuple(require_nonnegative(f"tabulated value {k}", x) for k, x in enumerate(self.values))
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        if len(g) < 2 or len(g) != len(v):
            raise DomainError("tabulated density needs matching grid/values, length >= 2")
        require_nonnegative("tabulated grid start", g[0])
        if any(a == 0.0 and b == 0.0 for a, b in zip(v, v[1:])):
            raise DomainError("tabulated density vanishes on a whole segment")
        # Array copies for np.interp and the table's span, kept out of the dataclass fields.
        object.__setattr__(self, "_grid", np.asarray(g))
        object.__setattr__(self, "_values", np.asarray(v))
        # np.interp forms each segment's slope; an overflowing one turns h to -inf or NaN.
        with np.errstate(over="ignore"):
            finite = np.isfinite(np.diff(self._values) / np.diff(self._grid))
        if not finite.all():
            k = int(np.argmin(finite))
            raise DomainError(f"tabulated density's slope on segment {k}, "
                              f"[{g[k]}, {g[k + 1]}], leaves the float range")
        object.__setattr__(self, "_breaks", g[1:-1])
        object.__setattr__(self, "support_start", g[0])
        object.__setattr__(self, "support_end", g[-1])

    def _eval(self, xs):
        outside = ~((xs >= self.grid[0]) & (xs <= self.grid[-1]))  # NaN included
        if outside.any():
            raise DomainError(f"tabulated density not defined at {xs[outside][0]}, "
                              f"outside its grid [{self.grid[0]}, {self.grid[-1]}]")
        return np.interp(xs, self._grid, self._values)

    def _integral(self, s, t):
        # Exact for the piecewise-linear interpolant: trapezoids from s over
        # the table nodes above it, summed left to right, then the piece from
        # the last knot below t to t.  s and t go through _eval, which refuses
        # a point outside the grid.
        a = bisect.bisect_right(self.grid, s)
        knots = np.concatenate([[s], self._grid[a:]])
        kv = self._eval(knots)
        run = np.concatenate([[0.0], np.cumsum(0.5 * (kv[:-1] + kv[1:]) * np.diff(knots))])
        m = np.maximum(np.searchsorted(self._grid, t, side="left") - a, 0)
        last = 0.5 * (kv[m] + self._eval(t)) * (t - knots[m])
        return np.where(t > s, run[m] + last, 0.0)

    def scaled(self, factor: float) -> "TabulatedDensity":
        return TabulatedDensity(self.grid, tuple(v * factor for v in self.values))

    def tail(self):
        return None


_FAMILIES = (
    ConstantDensity, MonomialDensity, PiecewiseMonomialDensity, SharpDensity, TabulatedDensity,
)


def density_from_dict(data: dict) -> Density:
    """Build a density from its JSON dictionary form."""
    kind = require_field(data, "type", "density descriptor")
    family = next((cls for cls in _FAMILIES if cls.kind == kind), None)
    if family is None:
        raise DomainError(f"unknown density type '{kind}'")
    what = f"density descriptor of type '{kind}'"
    if family is PiecewiseMonomialDensity:
        piece = f"a piece of the {what}"
        spec = (("breakpoints", as_numbers),
                ("pieces", lambda pieces, label: tuple(
                    read_object(p, piece, (("c", as_number), ("p", as_number)))
                    for p in as_array(pieces, label))))
    else:
        # The dataclass fields in order: a table's two are arrays, all others numbers.
        read = as_numbers if family is TabulatedDensity else as_number
        spec = tuple((f.name, read) for f in fields(family))
    return family(*read_object(data, what, (("type", None), *spec))[1:])


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


def _sample_grid(h: Density, D: float, grid_points: int, half_line_end: float) -> np.ndarray:
    """grid_points even samples over the support of h inside [0, D], ending
    at half_line_end where both are unbounded, plus the breakpoints inside."""
    lo = max(0.0, h.support_start)
    hi = min(D, h.support_end)
    if math.isinf(hi):
        hi = half_line_end
    if not hi > lo:
        raise DomainError(f"density support [{h.support_start}, {h.support_end}] "
                          f"does not overlap the domain [0, {D}]")
    pts = np.linspace(lo, hi, grid_points)
    extra = [b for b in h.breakpoints() if lo < b < hi]
    if extra:
        pts = np.unique(np.concatenate([pts, np.asarray(extra)]))
    return pts


def _rises(a, b, rel):
    return a > b + rel * np.maximum(a, b)


def _falls(a, b, rel):
    return a < b - rel * np.maximum(a, b)


def _witness_scan(
    xs: np.ndarray, hv: np.ndarray, D: float, rel_tol: float
) -> Callable[[float], Optional[Witness]]:
    """A function mapping N to the lexicographically smallest pair of the
    ascending samples xs violating the ratio bounds at N, or None.

    Over all pairs, the upper bound says g = h / x^(N-1) is non-increasing
    and the lower bound says q = h / (D - x)^(N-1) (h itself on the half
    line) is non-decreasing.  Suffix extrema of g and q flag, in O(n), each
    i that may have a violating partner.  The flags allow for the rounding
    of the quotients, so a scan of the cross-multiplied pairs (i, j > i)
    confirms them in order; the first confirmed i and its first partner j
    are exactly the witness of the cross-multiplied form over all pairs
    (while the powers do not underflow).  Only a row within rounding of
    rel_tol is flagged and not confirmed.

    What does not depend on N is prepared once: D - x, the suffix-extremum
    buffers and, on the half line, the lower bound's flags, as there q = h.
    A power outside the normal float range is a DomainError naming N, the
    sample and D: each side's largest (x^(N-1) at the last sample, (D - x)^(N-1)
    at the first) overflows, and its least with a positive base (x^(N-1) at
    the first sample with x > 0, (D - x)^(N-1) at the last with x < D) is
    zero or subnormal, where h / power can overflow.  h is first multiplied by
    a power of two (exact) to at most 1, so no other quotient or product
    overflows; an inf or NaN sample of h, which none scales, is a DomainError.
    """
    half_line = math.isinf(D)
    top = hv.max()  # NaN if any sample is
    if not top < math.inf:
        i = int(np.flatnonzero(~np.isfinite(hv))[0])
        raise DomainError(f"the ratio check's h is {hv[i]} at sample x={xs[i]}, D={D}")
    unit = 2.0 ** -max(math.frexp(top)[1], 0)
    hv = hv * unit
    # (power, i) at which each power is largest, then least: x^(N-1) is power 0.
    ends = [(0, len(xs) - 1), (0, int(np.searchsorted(xs, 0.0, side="right")))]
    ends += [] if half_line else [(1, 0), (1, int(np.searchsorted(xs, D)) - 1)]
    loose = rel_tol - _QUOTIENT_ROUNDING
    # later_*[i] is the extremum over the samples after i; none follows the last.
    later_max = np.full(len(xs), -np.inf)
    later_min = np.full(len(xs), np.inf)
    if half_line:
        ones = np.ones_like(xs)
        np.minimum.accumulate(hv[:0:-1], out=later_min[-2::-1])
        lo_flagged = _falls(later_min, hv, loose)
    else:
        room = D - xs

    def witness(N: float) -> Optional[Witness]:
        with np.errstate(over="ignore"):
            xw = xs ** (N - 1.0)
            dw = ones if half_line else room ** (N - 1.0)
        for power, i in ends:
            if not _NORMAL_MIN <= (xw, dw)[power][i] < math.inf:
                raise DomainError(f"the ratio check's {('x', '(D - x)')[power]}^(N-1) leaves "
                                  f"the float range at N={N}, sample x={xs[i]}, D={D}")
        # A sample at x = 0 never violates the upper bound, one at x = D never
        # the lower bound: both sides of their cross-multiplied form vanish.
        up_ok = xw > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(up_ok, hv / xw, -np.inf)
            np.maximum.accumulate(g[:0:-1], out=later_max[-2::-1])
            flagged = up_ok & _rises(later_max, g, loose)
            if half_line:
                flagged |= lo_flagged
            else:
                lo_ok = dw > 0.0
                q = np.where(lo_ok, hv / dw, np.inf)
                np.minimum.accumulate(q[:0:-1], out=later_min[-2::-1])
                flagged |= lo_ok & _falls(later_min, q, loose)
        for i in np.flatnonzero(flagged):
            up_lhs, up_rhs = hv[i + 1:] * xw[i], hv[i] * xw[i + 1:]
            lo_lhs, lo_rhs = hv[i + 1:] * dw[i], hv[i] * dw[i + 1:]
            up = _rises(up_lhs, up_rhs, rel_tol)
            viol = up | _falls(lo_lhs, lo_rhs, rel_tol)
            if viol.any():
                k = int(np.argmax(viol))
                x0, x1 = float(xs[i]), float(xs[i + 1 + k])
                side, lhs, rhs = ("upper", up_lhs, up_rhs) if up[k] else ("lower", lo_lhs, lo_rhs)
                # Scaled back; a side past the float range is inf.
                return Witness(x0, x1, side, float(lhs[k]) / unit, float(rhs[k]) / unit)
        return None

    return witness


def _sampled_witness(
    xs: np.ndarray, hv: np.ndarray, D: float, N: float, rel_tol: float
) -> Optional[Witness]:
    """The witness at N of a freshly prepared _witness_scan."""
    return _witness_scan(xs, hv, D, rel_tol)(N)


def _ratio_check(
    h: Density, D: float, grid_points: int
) -> tuple[Callable[[float], Verdict], list[tuple[np.ndarray, np.ndarray]]]:
    """Sample h once: a function mapping N to the Verdict of check_mcp_density,
    and the sample sets (xs, h(xs)) it scans, each prepared once for the
    scan (_witness_scan)."""
    require_count("grid_points", grid_points, 2)
    # Pairs inside the last piece reduce to its exponent, so on the half line
    # the pair (b, 2b) at the last breakpoint (b = 1 with none) checks the
    # tail, and the sample grid ends at b.
    b = (h.breakpoints() or (1.0,))[-1]
    tail = [np.array([b, 2.0 * b])] if h.tail() is not None and math.isinf(D) else []
    if isinstance(h, (ConstantDensity, MonomialDensity, SharpDensity)):
        # Power against power: the violation factor grows with x1/x0, so one
        # pair decides: the tail pair, or on [0, D] the pair from the sharp
        # weight's switch point to D, else (D/4, D/2) at ratio 2 (below which
        # _RATIO_RTOL calls it rounding dust).
        pair = [b, D] if isinstance(h, SharpDensity) and D > b else [D / 4.0, D / 2.0]
        sets, used, status = tail or [np.array(pair)], 0, PASS_EXACT
    else:
        # The samples cover the pairs that straddle the last breakpoint.
        xs = _sample_grid(h, D, grid_points, b)
        sets, used, status = [xs] + tail, len(xs), PASS_SAMPLED
    samples = [(xs, h(xs)) for xs in sets]
    scans = [_witness_scan(xs, hv, D, _RATIO_RTOL) for xs, hv in samples]

    def verdict(N: float) -> Verdict:
        for scan in scans:
            witness = scan(N)
            if witness is not None:
                return Verdict(FAIL, witness, samples_used=used)
        return Verdict(status, samples_used=used)

    return verdict, samples


def _secant_guess(samples: list[tuple[np.ndarray, np.ndarray]], D: float) -> float:
    """1 + the steepest secant of log h between neighbouring samples, against
    log x and, on [0, D], against log(D - x): near the least N that passes.

    The ratio bounds at N say that no secant is steeper than N - 1, and the
    steepest secant over all pairs joins neighbours.  Each rise first gives
    up the _RATIO_RTOL excess the scan forgives (log1p of it against log x,
    of its negative against log(D - x)), so the guess lands within rounding
    of the least N that passes.  Non-finite secants (zeros of h, x = 0 or
    x = D) and gaps of rounding dust in the abscissa are skipped.  -inf when
    no secant is left.
    """
    steepest = -math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        for xs, hv in samples:
            rise = np.diff(np.log(hv))
            axes = [(xs, _RATIO_RTOL)]
            if not math.isinf(D):
                axes.append((D - xs, -_RATIO_RTOL))
            for a, rtol in axes:
                run = np.diff(np.log(a))
                slope = (rise - math.log1p(rtol)) / run
                slope = slope[np.isfinite(slope) & (np.abs(run) > _DUST_GAP)]
                if slope.size:
                    steepest = max(steepest, float(slope.max()))
    return 1.0 + steepest


def check_mcp_density(h: Density, D: float, N: float, grid_points: int = 512) -> Verdict:
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
    D = require_extent("domain right endpoint", D)
    N = require_dimension(N)
    verdict = _ratio_check(h, D, grid_points)[0](N)
    if verdict.status == PASS_SAMPLED and math.isinf(D) and h.tail() is None:
        raise DomainError(
            "a tabulated density has no defined tail; it cannot certify "
            f"behaviour on [0, inf) beyond its grid end {h.support_end}"
        )
    return verdict


def _bisection_path(
    n_lo: float, n_hi: float, passes: Callable[[float], bool]
) -> list[tuple[float, float]]:
    """The cell of each level of the bisection from [n_lo, n_hi] whose
    midpoints passes decides, down to a width of _BISECT_WIDTH or to
    neighbouring floats (above N = 8192 they lie further apart)."""
    lo, hi = float(n_lo), float(n_hi)
    path = [(lo, hi)]
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if passes(mid):
            hi = mid
        else:
            lo = mid
        path.append((lo, hi))
    return path


def minimal_mcp_dimension(
    h: Density,
    D: float,
    n_lo: float,
    n_hi: float,
    grid_points: int = 512,
) -> Optional[float]:
    """Smallest dimension parameter in [n_lo, n_hi] for which h passes.

    Bisection over the check; valid because both bound exponents are N - 1,
    so the passing set is upward closed in N.  Returns None when even n_hi
    fails.  For a tabulated density on the half line the result certifies
    the sampled grid only (the tail stays unverified).

    h is sampled and each sample set prepared once; each check costs one
    O(n) scan.  The steepest secant of the samples (_secant_guess) lands
    within a few bisection cells of the answer.  The bisection from
    [n_lo, n_hi] is first replayed with the guess deciding each midpoint
    (a midpoint at or above it passes), which costs no scan, and the ends
    of the replayed cell 3 levels above the last (8 final cells wide) are
    checked; when its lower end passes or its upper end fails, those of
    the cells 7 and 17 levels up, and then n_hi and n_lo.  An end is
    checked only while it lies strictly between the largest N known to fail
    and the smallest known to pass.  The bisection then takes the same
    midpoints, but a midpoint at or above a passed N passes and one at or
    below a failed N fails without a scan; only those between are checked.
    Both stop at a width of _BISECT_WIDTH or at neighbouring floats.

    When the guess is right, every N checked is one the plain bisection
    checks too, so the result is the plain bisection's wherever upward
    closure holds between N at least 8 final cells apart.  The sampled pass
    set need not be upward closed within a cell or two (rounding of the
    scan at _RATIO_RTOL); checking only cell ends of the bisection's own
    path keeps such a gap from deciding the result.  A wrong guess costs a
    few more scans.
    """
    D = require_extent("domain right endpoint", D)
    if not n_lo > 1.0:
        raise DomainError(f"n_lo must exceed 1, got {n_lo}")
    if not n_lo < n_hi < math.inf:
        raise DomainError(f"need n_lo < n_hi < inf, got [{n_lo}, {n_hi}]")
    check, samples = _ratio_check(h, D, grid_points)
    guess = _secant_guess(samples, D)
    path = _bisection_path(n_lo, n_hi, lambda n: n >= guess)
    lo, hi = path[0]
    # The largest N known to fail and the smallest known to pass, once the
    # ends are checked; cells of the path are checked inside (lo, hi) first.
    failed, passed = lo, hi
    for up in _GUESS_LEVELS:
        below, above = path[max(len(path) - 1 - up, 0)]
        for n in (below, above):
            if failed < n < passed:
                if check(n).passed:
                    passed = n
                else:
                    failed = n
        if below <= failed and passed <= above:
            break
    # A passed cell end implies that n_hi passes, a failed one that n_lo fails.
    if passed == hi and not check(hi).passed:
        return None
    if failed == lo and check(lo).passed:
        return lo
    path = _bisection_path(lo, hi, lambda n: n >= passed or (n > failed and check(n).passed))
    return path[-1][1]
