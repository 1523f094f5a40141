"""Weighted intervals ([0, D], |.|, h dx): measures of interval unions,
outer boundary content, volume growth, and the sharp extremal space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .density import (
    FAIL,
    PASS_SAMPLED,
    Density,
    SharpDensity,
    Verdict,
    Witness,
    density_from_dict,
)
from .errors import DomainError, PreconditionError
from .numerics import (as_array, as_number, as_numbers, log_unit_ball_volume, read_object,
                       require_dimension, require_extent, require_increasing)
from .profile import log_cone_coefficient

__all__ = [
    "WeightedInterval",
    "IntervalUnion",
    "AvrResult",
    "measure",
    "minkowski_content",
    "minkowski_content_estimator",
    "volume_ratio",
    "avr",
    "bishop_gromov_check",
    "sharp_space",
    "space_from_dict",
    "interval_union_from_dict",
]

# Relative rise of m(B_r) / r^N between sampled radii that counts as rounding.
_RATIO_RISE_RTOL = 1e-12
# Relative distance of a tail exponent from N - 1 at which avr takes it as N - 1.
_TAIL_MATCH_RTOL = 1e-12
# Radius at which avr reads the volume ratio of a density without a known tail.
_AVR_R_MAX = 1e6


@dataclass(frozen=True)
class WeightedInterval:
    """The metric measure space ([0, D], |.|, h dx); D may be math.inf."""

    D: float
    h: Density

    def __post_init__(self):
        require_extent("diameter", self.D)
        if self.h.support_start > 0.0:
            raise DomainError(
                f"space density must be defined from 0, but starts at {self.h.support_start}"
            )
        if self.h.support_end < self.D:
            raise DomainError(
                f"space density is defined up to {self.h.support_end}, "
                f"which does not cover [0, {self.D}]"
            )

    def to_dict(self) -> dict:
        return {"D": "inf" if math.isinf(self.D) else self.D, "density": self.h.to_dict()}


@dataclass(frozen=True)
class IntervalUnion:
    """A finite disjoint union of closed subintervals, sorted and non-touching.

    Overlapping or touching inputs are merged at construction; degenerate
    components [s, s] are allowed.
    """

    components: tuple[tuple[float, float], ...]

    def __post_init__(self):
        comps = []
        for s, t in self.components:
            s, t = float(s), float(t)
            if not (math.isfinite(s) and math.isfinite(t)):
                raise DomainError("interval endpoints must be finite")
            if t < s:
                raise DomainError(f"interval [{s}, {t}] has negative length")
            comps.append((s, t))
        comps.sort()
        merged: list[tuple[float, float]] = []
        for s, t in comps:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], t))
            else:
                merged.append((s, t))
        object.__setattr__(self, "components", tuple(merged))

    @classmethod
    def of(cls, intervals: Sequence[Sequence[float]]) -> "IntervalUnion":
        return cls(tuple((float(s), float(t)) for s, t in intervals))

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls(())

    def to_dict(self) -> dict:
        return {"intervals": [[s, t] for s, t in self.components]}


class AvrResult(NamedTuple):
    value: float
    certified: bool


def space_from_dict(data: dict) -> WeightedInterval:
    return WeightedInterval(*read_object(data, "space descriptor", (
        ("D", as_number), ("density", lambda density, _: density_from_dict(density)))))


def interval_union_from_dict(data: dict) -> IntervalUnion:
    intervals, = read_object(data, "set descriptor", (("intervals", as_array),))
    return IntervalUnion(tuple(as_numbers(pair, f"set descriptor interval {k}", 2)
                               for k, pair in enumerate(intervals)))


def _require_subset(space: WeightedInterval, subset: IntervalUnion) -> None:
    if not subset.components:
        return
    if subset.components[0][0] < 0.0 or subset.components[-1][1] > space.D:
        raise DomainError(
            f"set {subset.components} escapes the ambient domain [0, {space.D}]"
        )


def measure(space: WeightedInterval, subset: IntervalUnion) -> float:
    """Weighted measure of the set; closed-form per-component integrals."""
    _require_subset(space, subset)
    return sum(space.h.integral(s, t) for s, t in subset.components)


def minkowski_content(space: WeightedInterval, subset: IntervalUnion) -> float:
    """Outer boundary content of the set inside [0, D].

    With h continuous this is the sum of h over the set's boundary points
    that are interior to the ambient interval; an endpoint sitting on the
    boundary of [0, D] has no room to grow and contributes nothing.
    """
    _require_subset(space, subset)
    total = 0.0
    for s, t in subset.components:
        if s > 0.0:
            total += space.h(s)
        if t < space.D:
            total += space.h(t)
    return total


def minkowski_content_estimator(
    space: WeightedInterval,
    subset: IntervalUnion,
    eps_sequence: Sequence[float] = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8),
) -> tuple[float, tuple[float, ...]]:
    """Finite-eps difference quotients (m(E^eps) - m(E)) / eps.

    Returns the quotient at the smallest eps together with the full sequence
    for convergence inspection.  m(E^eps) - m(E) is accumulated as exact
    boundary-strip integrals, so there is no large-sum cancellation.
    """
    _require_subset(space, subset)
    eps_list = [float(e) for e in eps_sequence]
    if not eps_list or not all(0.0 < e < math.inf for e in eps_list):
        raise PreconditionError("eps_sequence must be non-empty, positive and finite")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise PreconditionError("eps_sequence must be strictly decreasing")
    comps = subset.components
    eps_max = eps_list[0]
    for (s0, t0), (s1, t1) in zip(comps, comps[1:]):
        if s1 - t0 <= 2.0 * eps_max:
            raise PreconditionError(
                f"eps = {eps_max} merges the neighbourhoods of [{s0}, {t0}] "
                f"and [{s1}, {t1}]"
            )
    quotients = []
    for eps in eps_list:
        growth = 0.0
        for s, t in comps:
            left = max(0.0, s - eps)
            if left < s:
                growth += space.h.integral(left, s)
            right = min(space.D, t + eps)
            if right > t:
                growth += space.h.integral(t, right)
        quotients.append(growth / eps)
    return quotients[-1], tuple(quotients)


def volume_ratio(space: WeightedInterval, N: float, r: float) -> float:
    """m([0, r)) / (omega_N r^N), the normalized ball-volume ratio."""
    N = require_dimension(N)
    if not (0.0 < r <= space.D):
        raise DomainError(f"radius must lie in (0, D], got {r}")
    m = measure(space, IntervalUnion.of([(0.0, r)]))
    # As a difference of logs: omega_N and r^N can each leave the float range.
    return math.exp(math.log(m) - log_unit_ball_volume(N) - N * math.log(r)) if m > 0.0 else 0.0


def avr(space: WeightedInterval, N: float) -> AvrResult:
    """Asymptotic volume ratio of the space.

    Bounded spaces have ratio 0, certified.  On the half line the limit is
    analytic whenever the density has a monomial tail c x^p: it equals
    c / (N omega_N) for p = N - 1, vanishes for p < N - 1 and diverges for
    p > N - 1.  Without a known tail the ratio at _AVR_R_MAX is returned
    uncertified; by volume-ratio monotonicity it upper-bounds the limit.
    """
    N = require_dimension(N)
    if math.isfinite(space.D):
        return AvrResult(0.0, True)
    tail = space.h.tail()
    if tail is not None:
        c, p = tail
        gap = p - (N - 1.0)
        if abs(gap) <= _TAIL_MATCH_RTOL * max(1.0, abs(p)):
            return AvrResult(math.exp(math.log(c) - log_cone_coefficient(N, 1.0)), True)
        if gap < 0.0:
            return AvrResult(0.0, True)
        return AvrResult(math.inf, True)
    return AvrResult(volume_ratio(space, N, _AVR_R_MAX), False)


def bishop_gromov_check(space: WeightedInterval, N: float, radii: Sequence[float]) -> Verdict:
    """Verify that r -> m(B_r) / r^N is non-increasing on the sampled radii."""
    N = require_dimension(N)
    rs = require_increasing("radii", radii)
    ratios = [volume_ratio(space, N, r) for r in rs]
    for (r0, q0), (r1, q1) in zip(zip(rs, ratios), zip(rs[1:], ratios[1:])):
        if q1 > q0 * (1.0 + _RATIO_RISE_RTOL):
            return Verdict(FAIL, Witness(r0, r1, "upper", q1, q0), samples_used=len(rs))
    return Verdict(PASS_SAMPLED, samples_used=len(rs))


def sharp_space(avr_value: float, mass: float, N: float) -> tuple[WeightedInterval, IntervalUnion]:
    """The extremal half-line space and the set attaining the volume-growth
    boundary bound with equality: E = [0, x_star]."""
    h = SharpDensity(avr_value, mass, N)
    return WeightedInterval(math.inf, h), IntervalUnion.of([(0.0, h.x_star)])

