"""The model isoperimetric profile for non-negative curvature and diameter D.

The profile is the composition f(a(v)) where, on the unit diameter,

    f(x) = N / ((1-x)^(1-N) + x^(1-N) - 1)

and a(v) inverts the strictly increasing volume map

    v(a) = f(a) * (1 - (1-a)^N) / (N (1-a)^(N-1)).

Arbitrary diameters reduce to D = 1 through the exact rescalings
f_D(D x) = f_1(x) / D and v_D(D a) = v_1(a), so only the unit closed form
needs numerical care.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .numerics import invert_monotone, require_dimension, unit_ball_volume

__all__ = [
    "ProfileResult",
    "eval_f",
    "eval_v",
    "invert_v",
    "profile_mcp",
    "expansion_leading_coefficient",
    "avr_lower_bound",
    "cd_lower_bound",
]

# Inversion runs on [eps, 1 - eps]; the defining integrals of f degenerate
# at both endpoints.
_EDGE_CLIP = 1e-14


def _f_unit(N: float, x: float) -> float:
    return N / ((1.0 - x) ** (1.0 - N) + x ** (1.0 - N) - 1.0)


def _v_unit(N: float, a: float) -> float:
    # 1 - (1-a)^N evaluated without cancellation for small a.
    raised = -math.expm1(N * math.log1p(-a))
    return _f_unit(N, a) * raised / (N * (1.0 - a) ** (N - 1.0))


def _validate_diameter(D: float) -> float:
    D = float(D)
    if not (math.isfinite(D) and D > 0.0):
        raise DomainError(f"diameter must be positive and finite, got {D}")
    return D


def eval_f(N: float, D: float, x: float) -> float:
    """The boundary-size factor f at interior point x of [0, D]."""
    N = require_dimension(N)
    D = _validate_diameter(D)
    if not (0.0 < x < D):
        raise DomainError(f"x must lie in (0, D) = (0, {D}), got {x}")
    return _f_unit(N, x / D) / D


def eval_v(N: float, D: float, a: float) -> float:
    """The volume fraction carried to the left of a; strictly increasing."""
    N = require_dimension(N)
    D = _validate_diameter(D)
    if not (0.0 < a < D):
        raise DomainError(f"a must lie in (0, D) = (0, {D}), got {a}")
    return _v_unit(N, a / D)


def invert_v(N: float, D: float, v: float) -> float:
    """The parameter a with eval_v(N, D, a) = v, for v in (0, 1)."""
    N = require_dimension(N)
    D = _validate_diameter(D)
    if not (0.0 < v < 1.0):
        raise DomainError(f"v must lie in (0, 1), got {v}")
    a_unit = invert_monotone(lambda a: _v_unit(N, a), v, _EDGE_CLIP, 1.0 - _EDGE_CLIP)
    return D * a_unit


@dataclass(frozen=True)
class ProfileResult:
    """One evaluated point of the model profile."""

    N: float
    D: float
    v: float
    a: float
    f_at_a: float
    profile: float


def profile_mcp(N: float, D: float, v: float) -> ProfileResult:
    """Model profile value at volume fraction v in [0, 1].

    Both one-sided limits of f(a(v)) vanish at the endpoints, so the closed
    extension uses profile(0) = profile(1) = 0.
    """
    N = require_dimension(N)
    D = _validate_diameter(D)
    if not (0.0 <= v <= 1.0):
        raise DomainError(f"v must lie in [0, 1], got {v}")
    if v == 0.0:
        return ProfileResult(N, D, v, 0.0, 0.0, 0.0)
    if v == 1.0:
        return ProfileResult(N, D, v, D, 0.0, 0.0)
    a = invert_v(N, D, v)
    f_at_a = eval_f(N, D, a)
    return ProfileResult(N, D, v, a, f_at_a, f_at_a)


def expansion_leading_coefficient(N: float) -> float:
    """Leading constant N^(1/N) of the small-volume profile expansion.

    On the unit diameter, with a0 = (v/N)^(1/N),

        profile(v) / v^((N-1)/N) = N^(1/N) (1 - (N-1)^2/(2N) a0 + R),

    so the first correction is -(N-1)^2/(2N) * (v/N)^(1/N) and the
    remainder R is of order v^(min(2,N)/N).
    """
    N = require_dimension(N)
    return N ** (1.0 / N)


def avr_lower_bound(N: float, avr: float, mass: float) -> float:
    """Boundary lower bound (N omega_N avr)^(1/N) * mass^((N-1)/N)."""
    N = require_dimension(N)
    if not (avr >= 0.0 and mass >= 0.0):
        raise DomainError("avr and mass must be non-negative")
    if avr == 0.0 or mass == 0.0:
        return 0.0
    return (N * unit_ball_volume(N) * avr) ** (1.0 / N) * mass ** ((N - 1.0) / N)


def cd_lower_bound(N: float, avr: float, mass: float) -> float:
    """The stronger-hypothesis comparison constant N omega_N^(1/N) avr^(1/N).

    Always >= avr_lower_bound, with ratio N^((N-1)/N) when avr, mass > 0.
    """
    N = require_dimension(N)
    if not (avr >= 0.0 and mass >= 0.0):
        raise DomainError("avr and mass must be non-negative")
    if avr == 0.0 or mass == 0.0:
        return 0.0
    return N * unit_ball_volume(N) ** (1.0 / N) * avr ** (1.0 / N) * mass ** (
        (N - 1.0) / N
    )
