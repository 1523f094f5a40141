"""Shared numerical kernels: special functions and monotone inversion.

Everything here is pure and deterministic; no global mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import BracketError, DomainError, PreconditionError

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "gamma",
    "unit_ball_volume",
    "invert_monotone",
]


@dataclass(frozen=True)
class Tolerance:
    """Accuracy targets shared by the numerical routines (strictly positive)."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12

    def __post_init__(self):
        if not (self.abs_tol > 0 and math.isfinite(self.abs_tol)):
            raise DomainError(f"abs_tol must be positive and finite, got {self.abs_tol}")
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise DomainError(f"rel_tol must be positive and finite, got {self.rel_tol}")


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
    accurate to abs_tol.  Stops after at most 80 steps.  Deterministic.
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
    for _ in range(80):
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
