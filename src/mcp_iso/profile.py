"""The model isoperimetric profile for non-negative curvature and diameter D.

The profile is the composition f(a(v)) where, on the unit diameter,

    f(x) = N / ((1-x)^(1-N) + x^(1-N) - 1)

and a(v) inverts the strictly increasing volume map

    v(a) = f(a) * (1 - (1-a)^N) / (N (1-a)^(N-1)).

Arbitrary diameters reduce to D = 1 through the exact rescalings
f_D(D x) = f_1(x) / D and v_D(D a) = v_1(a), so only the unit closed form
needs numerical care.  Both maps are symmetric about 1/2: f(1-x) = f(x) and
v(1-a) = 1 - v(a), so every evaluation and every solve runs on the left
half a <= 1/2.  The solve is a safeguarded Newton iteration on t = log a,
started from a table of log v at the fixed nodes a = k/256 that each call
builds afresh, so it takes 2 to 4 steps.  Every function here takes a
float or a numpy array and returns floats or arrays of its shape
(numerics.float_or_array).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import (float_or_array, log_unit_ball_volume, require_dimension,
                       require_nonnegative, require_positive)

__all__ = [
    "ProfileResult",
    "eval_f",
    "eval_v",
    "profile_mcp",
    "expansion_leading_coefficient",
    "avr_lower_bound",
    "cd_lower_bound",
]

_LOG2 = math.log(2.0)
# The inversion stops once its Newton step in log a, a relative change of a,
# falls below this; convergence is quadratic, so the accepted point is
# accurate to rounding.
_STEP_RTOL = 1e-10
# Cap on the lockstep iterations; bisection alone needs fewer than 60.
_MAX_STEPS = 100
# The Newton start's table nodes t_k = log(k/256), k = 1..128, up to a = 1/2.
_T_NODES = np.log(np.arange(1, 129) / 256.0)


def _left_terms(N: float, t: np.ndarray):
    """log v(a), d log v / d log a and f(a) at a = e^t <= 1/2, unit diameter.

    With A = a^(N-1), B = (1-a)^(N-1), rho = A / B <= 1, R = 1 - (1-a)^N and
    S = rho + 1 - A >= 1, v = rho R / S and f = N A / S: no factor exceeds
    2, so nothing overflows, and

        d log v / d log a = (N-1) (1 - a A) / ((1-a) S) + N a B / R > 0.
    """
    a = np.exp(t)
    log1m_a = np.log1p(-a)
    log_rho = (N - 1.0) * (t - log1m_a)
    A = np.exp((N - 1.0) * t)
    B = np.exp((N - 1.0) * log1m_a)
    R = -np.expm1(N * log1m_a)
    S = np.exp(log_rho) - np.expm1((N - 1.0) * t)
    log_v = log_rho + np.log(R) - np.log(S)
    slope = (N - 1.0) * (1.0 - a * A) / ((1.0 - a) * S) + N * a * B / R
    return log_v, slope, N * A / S


def _solve_left(N: float, w: np.ndarray) -> np.ndarray:
    """t = log a with v(a) = w, for w in (0, 1/2], all elements in lockstep.

    Newton on the residual log v - log w, safeguarded by a per-element
    bracket: a step that leaves the bracket is replaced by bisection.  It
    starts from a table of log v at the fixed nodes a_k = k/256, k = 1..128,
    read at log w by linear interpolation (log v is strictly increasing in
    t), or below the first node from the two-term expansion
    log v = log N + N t + (N-1)/2 a + O(a^min(2,N)).  The nodes do not
    depend on w, so each element's start and iterates depend only on (N, w).
    """
    log_w = np.log(w)
    # v(a) <= N 2^(N-1) a^N on the left half bounds the root from below and
    # v(1/2) = 1/2 from above.
    lo = (log_w - math.log(N) - (N - 1.0) * _LOG2) / N
    hi = np.full_like(log_w, -_LOG2)
    log_v_nodes = _left_terms(N, _T_NODES)[0]
    t_lead = (log_w - math.log(N)) / N
    t = np.where(
        log_w < log_v_nodes[0],
        t_lead - (N - 1.0) / (2.0 * N) * np.exp(t_lead),
        np.interp(log_w, log_v_nodes, _T_NODES),
    )
    t = np.minimum(np.maximum(t, lo), hi)
    active = np.ones(w.shape, dtype=bool)
    for _ in range(_MAX_STEPS):
        log_v, slope, _ = _left_terms(N, t)
        g = log_v - log_w
        lo = np.where(g < 0.0, t, lo)
        hi = np.where(g > 0.0, t, hi)
        step = g / slope
        newton = t - step
        inside = (lo <= newton) & (newton <= hi)
        t_next = np.where(inside, newton, 0.5 * (lo + hi))
        # Done on a small Newton step, or when rounding leaves no move.
        done = (inside & (np.abs(step) <= _STEP_RTOL)) | (t_next == t)
        t = np.where(active, t_next, t)
        active &= ~done
        if not active.any():
            break
    return t


def _inputs(name: str, x, lo: float, hi: float, closed: bool) -> np.ndarray:
    """x as a float array checked to lie in (lo, hi), or [lo, hi] when closed."""
    arr = np.asarray(x, dtype=float)
    ok = (lo <= arr) & (arr <= hi) if closed else (lo < arr) & (arr < hi)
    if not ok.all():
        bounds = f"[{lo:g}, {hi:g}]" if closed else f"({lo:g}, {hi:g})"
        raise DomainError(f"{name} must lie in {bounds}, got {arr[~ok][0]}")
    return arr


def _unit_solve(N: float, v: np.ndarray):
    """a(v) and f(a(v)) on the unit diameter for v in (0, 1).

    Above 1/2 the solve runs at w = 1 - v (exact there) and a = 1 - a(w);
    f is taken at the left-half root, where no digits are lost.
    """
    right = v > 0.5
    t = _solve_left(N, np.where(right, 1.0 - v, v))
    a = np.exp(t)
    return np.where(right, 1.0 - a, a), _left_terms(N, t)[2]


def _per_diameter(N: float, D: float, f_unit: np.ndarray) -> np.ndarray:
    """f_unit / D, the factor f on diameter D; a DomainError where it
    overflows.  Division is monotone, so the largest element decides."""
    if f_unit.size and float(f_unit.max()) / D == math.inf:
        raise DomainError(f"the profile factor f leaves the float range at N={N}, D={D}")
    return f_unit / D


def eval_f(N: float, D: float, x):
    """The boundary-size factor f at interior points x of [0, D]."""
    N = require_dimension(N)
    D = require_positive("diameter", D)
    x = _inputs("x", x, 0.0, D, closed=False)
    xi = x / D
    f = _left_terms(N, np.log(np.minimum(xi, 1.0 - xi)))[2]
    return float_or_array(_per_diameter(N, D, f))


def eval_v(N: float, D: float, a):
    """The volume fraction carried to the left of a; strictly increasing."""
    N = require_dimension(N)
    D = require_positive("diameter", D)
    a = _inputs("a", a, 0.0, D, closed=False)
    ai = a / D
    right = ai > 0.5
    v = np.exp(_left_terms(N, np.log(np.where(right, 1.0 - ai, ai)))[0])
    return float_or_array(np.where(right, 1.0 - v, v))


@dataclass(frozen=True)
class ProfileResult:
    """Evaluated points of the model profile: floats, or arrays of one shape."""

    N: float
    D: float
    v: float | np.ndarray
    a: float | np.ndarray
    profile: float | np.ndarray


def profile_mcp(N: float, D: float, v) -> ProfileResult:
    """Model profile values at volume fractions v in [0, 1].

    v is a float or an array; the result holds floats or arrays to match.
    Both one-sided limits of f(a(v)) vanish at the endpoints, so the closed
    extension uses profile(0) = profile(1) = 0.
    """
    N = require_dimension(N)
    D = require_positive("diameter", D)
    v = _inputs("v", v, 0.0, 1.0, closed=True)
    a = np.where(v == 1.0, D, 0.0)
    f = np.zeros_like(v)
    inner = (v > 0.0) & (v < 1.0)
    if inner.any():
        a_unit, f_unit = _unit_solve(N, v[inner])
        a[inner] = D * a_unit
        f[inner] = _per_diameter(N, D, f_unit)
    v, a, f = map(float_or_array, (v, a, f))
    return ProfileResult(N, D, v, a, f)


def expansion_leading_coefficient(N: float) -> float:
    """Leading constant N^(1/N) of the small-volume profile expansion.

    On the unit diameter, with a0 = (v/N)^(1/N),

        profile(v) / v^((N-1)/N) = N^(1/N) (1 - (N-1)^2/(2N) a0 + R),

    so the first correction is -(N-1)^2/(2N) * (v/N)^(1/N) and the
    remainder R is of order v^(min(2,N)/N).
    """
    N = require_dimension(N)
    return N ** (1.0 / N)


def log_cone_coefficient(N: float, avr: float) -> float:
    """log(N omega_N avr) for avr > 0: the log of the coefficient of the model
    cone c x^(N-1) with volume ratio avr, finite where c underflows."""
    return math.log(N) + log_unit_ball_volume(N) + math.log(avr)


def cone_radius(N: float, avr: float, mass: float) -> float:
    """Radius (mass / (N omega_N avr))^(1/N) of that cone's ball [0, r] of this mass."""
    return mass ** (1.0 / N) * math.exp(-log_cone_coefficient(N, avr) / N)


def _mass_power_bound(N: float, avr: float, mass: float, log_power) -> float:
    """(P * mass^(N-1))^(1/N) with log P = log_power(N, avr), for checked
    inputs; 0 if avr or mass is 0.  As an exp of a sum of logs, no factor
    leaves the float range; a bound that does is a DomainError."""
    N = require_dimension(N)
    avr, mass = require_nonnegative("avr", avr), require_nonnegative("mass", mass)
    if avr == 0.0 or mass == 0.0:
        return 0.0
    try:
        return math.exp((log_power(N, avr) + (N - 1.0) * math.log(mass)) / N)
    except OverflowError:
        raise DomainError(f"the bound leaves the float range at N={N}, avr={avr}, mass={mass}")


def avr_lower_bound(N: float, avr: float, mass: float) -> float:
    """Boundary lower bound (N omega_N avr)^(1/N) * mass^((N-1)/N)."""
    return _mass_power_bound(N, avr, mass, log_cone_coefficient)


def cd_lower_bound(N: float, avr: float, mass: float) -> float:
    """The stronger-hypothesis comparison constant N omega_N^(1/N) avr^(1/N).

    Always >= avr_lower_bound, with ratio N^((N-1)/N) when avr, mass > 0.
    """
    return _mass_power_bound(
        N, avr, mass, lambda N, avr: N * math.log(N) + log_unit_ball_volume(N) + math.log(avr)
    )
