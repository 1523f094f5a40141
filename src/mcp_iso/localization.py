"""Ray-wise disintegration on rotationally symmetric model spaces.

A radial model carries a quotient measure of total mass theta over ray
directions and one weight w(t) along each ray, so m = theta * w(t) dt in
polar form.  For a centred ball E = B_r inside the larger ball B_R all rays
coincide by symmetry, which makes the truncated, normalized ray
decomposition exact and testable: each ray gets the probability density
w / int_0^R w on [0, R] and the quotient carries mass m(B_R).

The dimension-reduction chain lower-bounds the boundary content of B_r by
ray-wise profile values and, in the large-R limit, by the volume-growth
bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import Density, check_mcp_density, density_from_dict
from .errors import DomainError
from .numerics import as_number, read_object, require_dimension, require_extent, require_positive
from .profile import avr_lower_bound, profile_mcp
from .space import IntervalUnion, WeightedInterval, avr, minkowski_content

__all__ = [
    "RadialModel",
    "ChainReport",
    "disintegrate_ball",
    "dimension_reduction_chain",
    "model_from_dict",
]

# Rounding slack allowed in each inequality lhs >= rhs of the chain, relative
# to max(1, |lhs|, |rhs|): the rounding of the values grows with them.
_CHAIN_SLACK = 1e-12


@dataclass(frozen=True)
class RadialModel:
    total_angle: float
    radial_weight: Density
    N: float
    ray_length: float  # math.inf for complete rays

    def __post_init__(self):
        require_positive("theta", self.total_angle)
        require_dimension(self.N)
        require_extent("ray_length", self.ray_length)
        verdict = check_mcp_density(self.radial_weight, self.ray_length, self.N)
        if not verdict.passed:
            raise DomainError(
                f"radial weight fails the dimension-{self.N} ratio bounds: "
                f"witness {verdict.witness}"
            )

    def ball_mass(self, r: float) -> float:
        return self.total_angle * self.radial_weight.integral(0.0, r)

    def one_dimensional_space(self) -> WeightedInterval:
        """The model collapsed to [0, ray_length] with density theta * w."""
        return WeightedInterval(self.ray_length, self.radial_weight.scaled(self.total_angle))


def model_from_dict(data: dict) -> RadialModel:
    return RadialModel(*read_object(data, "model descriptor", (
        ("theta", as_number), ("weight", lambda weight, _: density_from_dict(weight)),
        ("N", as_number), ("ray_length", as_number))))


def disintegrate_ball(
    model: RadialModel, r: float, R: float
) -> tuple[WeightedInterval, float]:
    """Truncated normalized ray decomposition for E = B_r inside B_R.

    By symmetry all rays coincide: the needle is [0, R] with probability
    density w / int_0^R w, and the quotient measure has total mass m(B_R).
    The per-ray mass of E is then m(E) / m(B_R) by construction.  An R whose
    ray mass, its reciprocal or the quotient mass theta * ray mass leaves the
    positive floats is a DomainError.
    """
    if not (0.0 < r and math.isfinite(R) and R > 0.0):
        raise DomainError(f"need finite positive radii, got r={r}, R={R}")
    if r > R / 4.0:
        raise DomainError(f"decomposition requires r <= R/4, got r={r}, R={R}")
    if R > model.ray_length:
        raise DomainError(f"R={R} exceeds the ray length {model.ray_length}")
    with np.errstate(over="ignore"):
        ray_mass = model.radial_weight.integral(0.0, R)
    if not (0.0 < ray_mass < math.inf and 1.0 / ray_mass < math.inf):
        raise DomainError(
            f"at R={R} the ray mass {ray_mass} or its reciprocal is not a positive finite float"
        )
    quotient_mass = model.total_angle * ray_mass
    if not 0.0 < quotient_mass < math.inf:
        raise DomainError(
            f"at R={R} the quotient mass theta * ray mass = {model.total_angle} * {ray_mass} "
            f"is {quotient_mass}, not a positive finite float"
        )
    needle = WeightedInterval(R, model.radial_weight.scaled(1.0 / ray_mass))
    return needle, quotient_mass


@dataclass(frozen=True)
class ChainReport:
    r: float
    R: float
    m_plus: float
    needle_integral: float
    scaled_profile_bound: float
    avr_bound: float
    avr_value: float
    residual: float

    def ordered(self) -> bool:
        """Chain inequalities hold: m_plus >= needle_integral >=
        scaled_profile_bound, and m_plus dominates the limit bound."""
        pairs = [
            (self.m_plus, self.needle_integral),
            (self.needle_integral, self.scaled_profile_bound),
            (self.m_plus, self.avr_bound),
        ]
        return all(lhs >= rhs - _CHAIN_SLACK * max(1.0, abs(lhs), abs(rhs)) for lhs, rhs in pairs)


def dimension_reduction_chain(model: RadialModel, r: float, R: float) -> ChainReport:
    """Evaluate the boundary-content chain for E = B_r.

    m_plus:               theta * w(r), the exact boundary term of the ball;
    needle_integral:      quotient-integrated per-ray boundary content of E;
    scaled_profile_bound: m(B_R) * profile(N, R + diam E, m(E)/m(B_R)) with
                          diam E = 2r (a safe upper bound on the diameter);
    avr_bound:            the volume-growth comparison bound, the R -> inf
                          limit of the scaled profile term;
    residual:             |m(E) - m(B_R) * per-ray mass of E|, zero up to rounding.
    """
    needle, m_ball = disintegrate_ball(model, r, R)
    m_e = model.ball_mass(r)
    m_plus = model.total_angle * model.radial_weight(r)

    ray_content = minkowski_content(needle, IntervalUnion([(0.0, r)]))
    needle_integral = m_ball * ray_content

    fraction = m_e / m_ball
    scaled = m_ball * profile_mcp(model.N, R + 2.0 * r, fraction).profile

    avr_value = avr(model.one_dimensional_space(), model.N)
    bound = avr_lower_bound(model.N, avr_value, m_e) if math.isfinite(avr_value) else math.inf

    return ChainReport(
        r=r,
        R=R,
        m_plus=m_plus,
        needle_integral=needle_integral,
        scaled_profile_bound=scaled,
        avr_bound=bound,
        avr_value=avr_value,
        residual=abs(m_e - m_ball * needle.h.integral(0.0, r)),
    )
