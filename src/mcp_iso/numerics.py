"""Shared numerical kernels: parameter and descriptor-field checks, the
float-or-array result convention, the unit-ball volume and monotone inversion.

Everything here is pure and deterministic; no global mutable state.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable

import numpy as np

from .errors import BracketError, DomainError, PreconditionError

__all__ = [
    "log_unit_ball_volume",
    "unit_ball_volume",
    "invert_monotone",
]

_LOG_PI = math.log(math.pi)
# Bracket width where inversion stops, and the rounding slack of its sampled checks.
_INVERT_TOL = 1e-12


def require_dimension(N: float) -> float:
    """Validate a real dimension parameter (must satisfy N > 1)."""
    if not (math.isfinite(N) and N > 1.0):
        raise DomainError(f"dimension parameter must be finite and > 1, got {N}")
    return float(N)


def require_count(name: str, value: int, low: int) -> int:
    """Validate an integer parameter >= low: a Python or numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def require_positive(name: str, value: float) -> float:
    """Validate a positive, finite real parameter; return it as a float."""
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be positive and finite, got {float(value)}")
    return float(value)


def require_nonnegative(name: str, value: float) -> float:
    """Validate a non-negative, finite real parameter; return it as a float."""
    if not 0.0 <= value < math.inf:
        raise DomainError(f"{name} must be non-negative and finite, got {float(value)}")
    return float(value)


def require_increasing(name: str, values) -> tuple[float, ...]:
    """values as a tuple of finite floats, each above the one before it."""
    xs = tuple(float(v) for v in values)
    for k, x in enumerate(xs):
        if not math.isfinite(x) or k and not xs[k - 1] < x:
            raise DomainError(f"{name} must be finite and strictly increasing, "
                              f"got {x} at element {k}")
    return xs


def require_extent(name: str, value: float) -> float:
    """Validate a positive length, math.inf allowed; return it as a float."""
    if not value > 0.0:
        raise DomainError(f"{name} must be positive, got {float(value)}")
    return float(value)


def require_field(data, name: str, what: str):
    """data[name] for a JSON object data; errors name data as what."""
    if not isinstance(data, dict):
        raise DomainError(f"{what} must be a JSON object")
    if name not in data:
        raise DomainError(f"{what} is missing field '{name}'")
    return data[name]


def read_object(data, what: str, fields) -> tuple:
    """The values of the JSON object data's fields, in the order of fields.

    Each entry of fields is (name, read) or, for an optional field,
    (name, read, default).  read(value, label) reads a given value, label
    naming it as "<what> field '<name>'"; a read of None keeps it unchanged.
    A non-object, a missing field and any field not listed are refused;
    every error names what and the field, an unknown field first.
    """
    known = [name for name, *_ in fields]
    if unknown := isinstance(data, dict) and [name for name in data if name not in known]:
        raise DomainError(f"{what} has unknown field {unknown[0]!r}")
    values = []
    for name, read, *default in fields:
        if default and isinstance(data, dict) and name not in data:
            values.append(default[0])
            continue
        value = require_field(data, name, what)
        values.append(value if read is None else read(value, f"{what} field '{name}'"))
    return tuple(values)


def as_number(value, label: str) -> float:
    """value as a float, or a DomainError naming it as label."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{label} must be a number, got {value!r}") from None


def as_array(values, label: str, length: int | None = None) -> list | tuple:
    """values if a JSON array (a list or a tuple) of this length, if given;
    else a DomainError naming it as label."""
    if not isinstance(values, (list, tuple)) or length not in (None, len(values)):
        size = "" if length is None else f" of {length} numbers"
        raise DomainError(f"{label} must be an array{size}, got {values!r}")
    return values


def as_numbers(values, label: str, length: int | None = None) -> tuple[float, ...]:
    """as_array as a tuple of floats; an error names an element by its index."""
    values = as_array(values, label, length)
    return tuple(as_number(v, f"{label} element {k}") for k, v in enumerate(values))


def float_or_array(x):
    """float(x) for a 0-d x, else x: what a function of a float or an array returns."""
    return float(x) if np.ndim(x) == 0 else x


def log_unit_ball_volume(N: float) -> float:
    """log omega_N = (N/2) log pi - log Gamma(N/2 + 1), finite for 0 < N < ~5e305.

    omega_N itself underflows past N ~ 450, and Gamma(N/2 + 1) overflows
    past N ~ 341, so constants built from omega_N are formed as sums of logs.
    """
    if not (math.isfinite(N) and N > 0.0):
        raise DomainError(f"the unit-ball volume needs finite N > 0, got {N}")
    try:
        return 0.5 * N * _LOG_PI - math.lgamma(0.5 * N + 1.0)
    except OverflowError:
        raise DomainError(f"lgamma(N/2 + 1) overflows at N = {N}")


def unit_ball_volume(N: float) -> float:
    """Volume omega_N of the unit ball in dimension N, extended to real N > 0."""
    return math.exp(log_unit_ball_volume(N))


def invert_monotone(
    g: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
) -> float:
    """Solve g(x) = target for strictly increasing g on [lo, hi].

    Bracketing with secant acceleration; bisection is the fallback so the
    bracket always shrinks.  Runs until the bracket width drops below
    1e-12 (or the residual vanishes exactly), so the returned abscissa is
    accurate to 1e-12.  Stops after at most 80 steps.  Deterministic.
    """
    if not (lo < hi):
        raise DomainError(f"invert_monotone requires lo < hi, got [{lo}, {hi}]")

    # Cheap sampled monotonicity check; catches grossly wrong callers.
    samples = [lo + (hi - lo) * k / 7.0 for k in range(8)]
    values = [g(x) for x in samples]
    for u, v in zip(values, values[1:]):
        if v < u - _INVERT_TOL:
            raise PreconditionError("function is not increasing on the sampled grid")

    glo, ghi = values[0], values[-1]
    if target < glo - _INVERT_TOL or target > ghi + _INVERT_TOL:
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
        if hi - lo <= _INVERT_TOL:
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
