"""Shared numerical kernels: special functions, quadrature, monotone inversion.

Everything here is pure and deterministic; no global mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import AccuracyError, BracketError, DomainError, PreconditionError

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "gamma",
    "unit_ball_volume",
    "integrate",
    "invert_monotone",
]


@dataclass(frozen=True)
class Tolerance:
    """Accuracy targets shared by the numerical routines.

    abs_tol and rel_tol are strictly positive; max_iter bounds the number of
    refinement steps (bisection iterations, quadrature recursion depth).
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_iter: int = 80

    def __post_init__(self):
        if not (self.abs_tol > 0 and math.isfinite(self.abs_tol)):
            raise DomainError(f"abs_tol must be positive and finite, got {self.abs_tol}")
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise DomainError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")


DEFAULT_TOLERANCE = Tolerance()


def require_dimension(N: float) -> float:
    """Validate a real dimension parameter (must satisfy N > 1)."""
    if not (math.isfinite(N) and N > 1.0):
        raise DomainError(f"dimension parameter must be finite and > 1, got {N}")
    return float(N)


def gamma(x: float) -> float:
    """Gamma function for positive real arguments."""
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"gamma requires a finite positive argument, got {x}")
    return math.gamma(x)


def unit_ball_volume(N: float) -> float:
    """Volume of the unit ball in dimension N, extended to real N > 0.

    Computed as pi^(N/2) / Gamma(N/2 + 1).
    """
    if not (math.isfinite(N) and N > 0.0):
        raise DomainError(f"unit_ball_volume requires finite N > 0, got {N}")
    return math.pi ** (N / 2.0) / gamma(N / 2.0 + 1.0)


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width * (fa + 4.0 * fm + fb) / 6.0


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> float:
    """Adaptive Simpson quadrature of f over [a, b].

    The target accuracy is max(abs_tol, rel_tol * |result|).  Intervals are
    bisected until the local Richardson estimate meets its share of the
    budget; if the recursion depth cap (tol.max_iter) is hit anywhere, an
    AccuracyError carrying the best available estimate is raised.
    """
    if not (a <= b):
        raise DomainError(f"integration bounds must satisfy a <= b, got [{a}, {b}]")
    if a == b:
        return 0.0

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    if not all(math.isfinite(v) for v in (fa, fm, fb)):
        raise DomainError("integrand is not finite on [a, b]")
    whole = _simpson(fa, fm, fb, b - a)
    # One coarse pass to set the relative-error scale.
    scale = max(abs(whole), 1.0)
    eps = max(tol.abs_tol, tol.rel_tol * scale)

    converged = True

    def _adapt(x0, x2, f0, f1, f2, area, budget, depth):
        nonlocal converged
        x1 = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm, frm = f(lm), f(rm)
        left = _simpson(f0, flm, f1, x1 - x0)
        right = _simpson(f1, frm, f2, x2 - x1)
        refined = left + right
        err = (refined - area) / 15.0
        if abs(err) <= budget:
            return refined + err
        if depth >= tol.max_iter:
            converged = False
            return refined + err
        half = 0.5 * budget
        return _adapt(x0, x1, f0, flm, f1, left, half, depth + 1) + _adapt(
            x1, x2, f1, frm, f2, right, half, depth + 1
        )

    result = _adapt(a, b, fa, fm, fb, whole, eps, 0)
    if not converged:
        raise AccuracyError(
            f"adaptive quadrature did not converge within depth {tol.max_iter}",
            best_estimate=result,
        )
    return result


def invert_monotone(
    g: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> float:
    """Solve g(x) = target for strictly increasing g on [lo, hi].

    Bracketing with secant acceleration; bisection is the fallback so the
    bracket always shrinks.  Runs until the bracket width drops below
    abs_tol (or the residual vanishes exactly), so the returned abscissa is
    accurate to abs_tol.  Deterministic.
    """
    if not (lo < hi):
        raise DomainError(f"invert_monotone requires lo < hi, got [{lo}, {hi}]")

    # Cheap sampled monotonicity check; catches grossly wrong callers.
    samples = [lo + (hi - lo) * k / 7.0 for k in range(8)]
    values = [g(x) for x in samples]
    for u, v in zip(values, values[1:]):
        if v < u - tol.abs_tol:
            raise PreconditionError("function is not increasing on the sampled grid")

    glo, ghi = values[0], values[-1]
    if target < glo - tol.abs_tol or target > ghi + tol.abs_tol:
        raise BracketError(
            f"target {target} outside bracket [g(lo), g(hi)] = [{glo}, {ghi}]"
        )
    if target <= glo:
        return lo
    if target >= ghi:
        return hi

    flo = glo - target
    fhi = ghi - target
    for _ in range(max(tol.max_iter, 64)):
        if hi - lo <= tol.abs_tol:
            break
        # Secant proposal from the bracket endpoints, clamped to the interior.
        if fhi != flo:
            xs = lo - flo * (hi - lo) / (fhi - flo)
        else:
            xs = 0.5 * (lo + hi)
        margin = 0.125 * (hi - lo)
        if not (lo + margin <= xs <= hi - margin):
            xs = 0.5 * (lo + hi)
        fx = g(xs) - target
        if fx == 0.0:
            return xs
        if fx < 0.0:
            lo, flo = xs, fx
        else:
            hi, fhi = xs, fx
    return 0.5 * (lo + hi)
