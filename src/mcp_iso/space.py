"""Weighted intervals ([0, D], |.|, h dx): measures of interval unions,
outer boundary content, volume growth, and the sharp extremal space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .density import Density, SharpDensity, density_from_dict
from .errors import DomainError
from .numerics import as_number, read_object, require_dimension, require_extent
from .profile import log_cone_coefficient

__all__ = [
    "WeightedInterval",
    "IntervalUnion",
    "measure",
    "minkowski_content",
    "avr",
    "sharp_space",
    "space_from_dict",
]

# Relative distance of a tail exponent from N - 1 at which avr takes it as N - 1.
_TAIL_MATCH_RTOL = 1e-12


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


@dataclass(frozen=True)
class IntervalUnion:
    """A finite disjoint union of closed subintervals, sorted and non-touching.

    Built from any sequence of (s, t) pairs, IntervalUnion(()) being the
    empty set.  Overlapping or touching inputs are merged at construction;
    degenerate components [s, s] are allowed.
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


def space_from_dict(data: dict) -> WeightedInterval:
    return WeightedInterval(*read_object(data, "space descriptor", (
        ("D", as_number), ("density", lambda density, _: density_from_dict(density)))))


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


def avr(space: WeightedInterval, N: float) -> float:
    """Asymptotic volume ratio of the space.

    Bounded spaces have ratio 0.  On the half line the limit is read off the
    density's monomial tail c x^p: it equals c / (N omega_N) for p = N - 1,
    vanishes for p < N - 1 and diverges for p > N - 1.  A half-line density
    without a known tail is a DomainError.
    """
    N = require_dimension(N)
    if math.isfinite(space.D):
        return 0.0
    tail = space.h.tail()
    if tail is None:
        raise DomainError(f"a half-line {space.h.kind} density has no tail to read avr from")
    c, p = tail
    gap = p - (N - 1.0)
    if abs(gap) <= _TAIL_MATCH_RTOL * max(1.0, abs(p)):
        return math.exp(math.log(c) - log_cone_coefficient(N, 1.0))
    return 0.0 if gap < 0.0 else math.inf


def sharp_space(avr_value: float, mass: float, N: float) -> tuple[WeightedInterval, IntervalUnion]:
    """The extremal half-line space and the set attaining the volume-growth
    boundary bound with equality: E = [0, x_star]."""
    h = SharpDensity(avr_value, mass, N)
    return WeightedInterval(math.inf, h), IntervalUnion([(0.0, h.x_star)])

