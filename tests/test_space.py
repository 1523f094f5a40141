"""Weighted intervals: measure, boundary content, volume growth, sharpness."""

import math
import random

import numpy as np
import pytest

from mcp_iso import (
    ConstantDensity,
    Density,
    DomainError,
    IntervalUnion,
    MonomialDensity,
    PiecewiseMonomialDensity,
    SharpDensity,
    TabulatedDensity,
    WeightedInterval,
    avr,
    avr_lower_bound,
    check_mcp_density,
    measure,
    minkowski_content,
    sharp_space,
    space_from_dict,
    unit_ball_volume,
)

INF = math.inf
# Strip widths eps, decreasing, of minkowski_content_estimator's quotients.
STRIP_WIDTHS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)


def unit_space(d=1.0):
    return WeightedInterval(d, ConstantDensity(1.0))


# -------------------------------------------------------------- interval sets


def test_interval_union_normalization():
    u = IntervalUnion([(0.5, 0.7), (0.0, 0.2)])
    assert u.components == ((0.0, 0.2), (0.5, 0.7))
    # touching intervals merge
    assert IntervalUnion([(0.0, 1.0), (1.0, 2.0)]).components == ((0.0, 2.0),)
    # overlap merges too
    assert IntervalUnion([(0.0, 1.0), (0.5, 2.0)]).components == ((0.0, 2.0),)
    # degenerate survives
    assert IntervalUnion([(0.3, 0.3)]).components == ((0.3, 0.3),)
    with pytest.raises(DomainError):
        IntervalUnion([(1.0, 0.5)])


# ------------------------------------------------------------------- measures


def test_measure_lebesgue_segment():
    assert measure(unit_space(), IntervalUnion([(0.2, 0.5)])) == pytest.approx(0.3)


def test_measure_sharp_extremal_set_is_designed_mass():
    for a, v, n in ((1.0 / (2 * math.pi), 1.0, 2.0), (0.3, 2.5, 3.0), (0.05, 0.4, 1.5)):
        space, extremal = sharp_space(a, v, n)
        assert measure(space, extremal) == pytest.approx(v, rel=1e-12)


def test_measure_linear_density_ball():
    space = WeightedInterval(INF, MonomialDensity(1.0, 1.0))
    assert measure(space, IntervalUnion([(0.0, 3.0)])) == pytest.approx(4.5)


def test_measure_additive_and_monotone():
    space = WeightedInterval(2.0, MonomialDensity(1.0, 1.0))
    parts = [IntervalUnion([(0.1, 0.4)]), IntervalUnion([(0.8, 1.7)])]
    union = IntervalUnion([(0.1, 0.4), (0.8, 1.7)])
    assert measure(space, union) == pytest.approx(
        sum(measure(space, p) for p in parts), rel=1e-14
    )
    smaller = IntervalUnion([(0.15, 0.35), (0.9, 1.5)])
    assert measure(space, smaller) <= measure(space, union)


def test_measure_rejects_escaping_set():
    with pytest.raises(DomainError):
        measure(unit_space(), IntervalUnion([(0.5, 1.5)]))


# ---------------------------------------------------------- boundary content


def test_content_empty_and_interior_segment():
    space = unit_space()
    assert minkowski_content(space, IntervalUnion(())) == 0.0
    assert minkowski_content(space, IntervalUnion([(0.2, 0.5)])) == pytest.approx(2.0)
    # anchored at either side of the ambient interval: one endpoint free
    assert minkowski_content(space, IntervalUnion([(0.0, 0.5)])) == pytest.approx(1.0)
    assert minkowski_content(space, IntervalUnion([(0.5, 1.0)])) == pytest.approx(1.0)


def test_content_degenerate_point():
    space = unit_space()
    assert minkowski_content(space, IntervalUnion([(0.4, 0.4)])) == pytest.approx(2.0)
    assert minkowski_content(space, IntervalUnion([(0.0, 0.0)])) == pytest.approx(1.0)


def test_content_of_sharp_extremal_set():
    a, v, n = 0.3, 2.0, 2.5
    space, extremal = sharp_space(a, v, n)
    expected = (n * unit_ball_volume(n) * a) ** (1.0 / n) * v ** ((n - 1.0) / n)
    assert minkowski_content(space, extremal) == pytest.approx(expected, rel=1e-13)


def minkowski_content_estimator(space, subset):
    """Difference quotients (m(E^eps) - m(E)) / eps at each of STRIP_WIDTHS.

    Returns the quotient at the smallest eps together with the full sequence
    for convergence inspection.  m(E^eps) - m(E) is accumulated as exact
    boundary-strip integrals, so there is no large-sum cancellation.
    """
    comps = subset.components
    eps_max = STRIP_WIDTHS[0]
    for (s0, t0), (s1, t1) in zip(comps, comps[1:]):
        if s1 - t0 <= 2.0 * eps_max:
            raise DomainError(
                f"eps = {eps_max} merges the neighbourhoods of [{s0}, {t0}] "
                f"and [{s1}, {t1}]"
            )
    quotients = []
    for eps in STRIP_WIDTHS:
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


def test_estimator_matches_content_simple_cases():
    # At eps = 1e-8 the strip widths themselves carry ~1e-8 relative float
    # rounding, so the quotient is good to ~1e-7 here, not machine precision.
    space = unit_space()
    seg = IntervalUnion([(0.2, 0.5)])
    value, quotients = minkowski_content_estimator(space, seg)
    assert value == pytest.approx(2.0, abs=1e-7)
    assert len(quotients) == 6
    point = IntervalUnion([(0.35, 0.35)])
    value, _ = minkowski_content_estimator(space, point)
    assert value == pytest.approx(2.0, abs=1e-7)


def test_estimator_matches_content_sharp_extremal():
    space, extremal = sharp_space(0.3, 2.0, 2.5)
    target = minkowski_content(space, extremal)
    value, _ = minkowski_content_estimator(space, extremal)
    assert value == pytest.approx(target, abs=1e-6)


def test_estimator_preconditions():
    space = unit_space()
    close = IntervalUnion([(0.2, 0.4), (0.4005, 0.6)])
    with pytest.raises(DomainError, match="eps = 0.001 merges the neighbourhoods"):
        minkowski_content_estimator(space, close)


def random_corpus(count, seed=20240917):
    """Deterministic corpus of (space, set) pairs with bounded derivative."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        kind = rng.choice(["constant", "monomial", "piecewise", "sharp", "tabulated"])
        if kind == "constant":
            h, d = ConstantDensity(rng.uniform(0.2, 2.0)), rng.uniform(2.0, 4.0)
        elif kind == "monomial":
            h, d = MonomialDensity(rng.uniform(0.2, 2.0), rng.uniform(0.0, 3.0)), 3.0
        elif kind == "piecewise":
            b = rng.uniform(0.5, 1.5)
            c0 = rng.uniform(0.2, 2.0)
            p1 = rng.uniform(0.5, 2.0)
            h = PiecewiseMonomialDensity((b,), ((c0, 0.0), (c0 / b ** p1, p1)))
            d = INF
        elif kind == "sharp":
            h = SharpDensity(rng.uniform(0.02, 0.1), rng.uniform(0.2, 2.0), rng.uniform(1.5, 3.0))
            d = INF
        else:
            grid = np.linspace(0.0, 4.0, 33)
            vals = 0.5 + np.abs(np.sin(grid * rng.uniform(0.5, 2.0))) * rng.uniform(0.5, 2.0)
            h, d = TabulatedDensity(tuple(grid), tuple(vals)), 4.0
        space = WeightedInterval(d, h)
        hi = min(d, 3.0)
        k = rng.randint(1, 3)
        cuts = sorted(rng.uniform(0.0, hi) for _ in range(2 * k))
        comps = [(cuts[2 * i], cuts[2 * i + 1]) for i in range(k)]
        # Keep neighbourhoods of distinct components comfortably disjoint.
        if any(b - a < 0.05 for (_, a), (b, _) in zip(comps, comps[1:])):
            continue
        cases.append((space, IntervalUnion(comps)))
    return cases


def test_estimator_agrees_on_random_corpus_sample():
    for space, subset in random_corpus(25):
        exact = minkowski_content(space, subset)
        estimate, _ = minkowski_content_estimator(space, subset)
        assert estimate == pytest.approx(exact, abs=1e-6)


# ------------------------------------------------------------- volume growth


def test_avr_of_euclidean_normalization():
    n = 2.0
    c = n * unit_ball_volume(n)
    space = WeightedInterval(INF, MonomialDensity(c, n - 1.0))
    assert avr(space, n) == pytest.approx(1.0, rel=1e-13)


def test_avr_of_sharp_space_is_design_parameter():
    for a in (0.05, 1.0 / (2 * math.pi), 2.0):
        space, _ = sharp_space(a, 1.3, 2.0)
        assert avr(space, 2.0) == pytest.approx(a, rel=1e-12)


def test_avr_bounded_space_is_zero():
    assert avr(unit_space(), 2.0) == 0.0


def test_avr_subcritical_and_supercritical_tails():
    space = WeightedInterval(INF, ConstantDensity(1.0))
    assert avr(space, 2.0) == 0.0
    space = WeightedInterval(INF, MonomialDensity(1.0, 2.0))
    assert math.isinf(avr(space, 2.0))


class _BumpPlusLinear(Density):
    """Linear tail plus a compact bump; no single monomial tail is declared."""

    kind = "test_bump"
    support_start = 0.0
    support_end = math.inf

    def __call__(self, x):
        return x + (1.0 if x < 1.0 else 0.0)

    def integral(self, s, t):
        bump = max(0.0, min(t, 1.0) - min(s, 1.0))
        return 0.5 * (t * t - s * s) + bump

    def tail(self):
        return None

def test_avr_of_half_line_density_without_tail_is_refused():
    space = WeightedInterval(INF, _BumpPlusLinear())
    with pytest.raises(DomainError, match="half-line test_bump density has no tail"):
        avr(space, 2.0)


def ball_ratio(space, n, r):
    """m([0, r)) / (omega_N r^N), the normalized ball-volume ratio."""
    return measure(space, IntervalUnion([(0.0, r)])) / (unit_ball_volume(n) * r ** n)


def first_ratio_rise(space, n, radii):
    """The first consecutive radii (r0, r1) of the increasing radii, with
    their ratios (q0, q1), where the ball-volume ratio rises by more than
    rounding (1e-12 relative); None if it never does."""
    ratios = [ball_ratio(space, n, r) for r in radii]
    for r0, r1, q0, q1 in zip(radii, radii[1:], ratios, ratios[1:]):
        if q1 > q0 * (1.0 + 1e-12):
            return r0, r1, q0, q1
    return None


def test_certified_avr_reproduced_by_ratio_at_large_radius():
    cases = [
        WeightedInterval(INF, MonomialDensity(2.0 * math.pi, 1.0)),
        sharp_space(0.25, 1.0, 2.0)[0],
    ]
    for space in cases:
        assert ball_ratio(space, 2.0, 1e6) == pytest.approx(avr(space, 2.0), rel=1e-6)


def test_bishop_gromov_pass_and_fail():
    radii = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    cone = WeightedInterval(INF, MonomialDensity(1.0, 1.0))
    assert first_ratio_rise(cone, 2.0, radii) is None
    sharp, _ = sharp_space(0.2, 1.0, 2.0)
    assert first_ratio_rise(sharp, 2.0, radii) is None
    grid = np.linspace(0.0, 3.2, 400)
    exp_space = WeightedInterval(3.2, TabulatedDensity(tuple(grid), tuple(np.exp(grid))))
    r0, r1, q0, q1 = first_ratio_rise(exp_space, 2.0, radii)
    assert q1 > q0 and r0 < r1


# ------------------------------------------------------------------ sharpness


def test_sharp_space_flat_then_linear_example():
    space, extremal = sharp_space(1.0 / (2.0 * math.pi), 1.0, 2.0)
    h = space.h
    assert h.x_star == pytest.approx(1.0, rel=1e-13)
    assert h(0.3) == pytest.approx(1.0, rel=1e-13)
    assert h(2.0) == pytest.approx(2.0, rel=1e-13)
    assert extremal.components == ((0.0, pytest.approx(1.0, rel=1e-13)),)
    assert check_mcp_density(h, INF, 2.0).status == "pass_exact"


def sharpness_gap(avr_value, mass, N):
    """Boundary content of the extremal set minus the lower bound."""
    space, extremal = sharp_space(avr_value, mass, N)
    return minkowski_content(space, extremal) - avr_lower_bound(N, avr_value, mass)


def test_verify_sharpness_gap_vanishes():
    assert abs(sharpness_gap(1.0 / (2.0 * math.pi), 1.0, 2.0)) <= 1e-12
    for a in (0.1, 1.0, 5.0):
        for v in (0.5, 1.0, 10.0):
            for n in (1.5, 2.0, 3.0, 5.0):
                assert abs(sharpness_gap(a, v, n)) <= 1e-10
    # degenerate tiny mass: both sides vanish together
    assert abs(sharpness_gap(0.5, 1e-12, 2.0)) <= 1e-12


def test_bound_holds_for_sampled_sets_on_certified_spaces():
    # Desk-scale check of the main inequality on sampled interval unions.
    rng = random.Random(7)
    spaces = [
        (sharp_space(0.3, 2.0, 2.5)[0], 2.5),
        (WeightedInterval(INF, MonomialDensity(2.0 * math.pi, 1.0)), 2.0),
    ]
    for space, n in spaces:
        assert check_mcp_density(space.h, INF, n).passed
        alpha = avr(space, n)
        assert alpha > 0
        for _ in range(40):
            k = rng.randint(1, 2)
            cuts = sorted(rng.uniform(0.0, 3.0) for _ in range(2 * k))
            subset = IntervalUnion(
                [(cuts[2 * i], cuts[2 * i + 1]) for i in range(k)]
            )
            lhs = minkowski_content(space, subset)
            rhs = avr_lower_bound(n, alpha, measure(space, subset))
            assert lhs >= rhs - 1e-9


# ----------------------------------------------------------------- descriptors


def test_space_json_round_trip():
    sharp = {"type": "paper_sharp", "avr": 0.2, "mass": 1.0, "N": 2.0}
    assert space_from_dict({"D": 2.0, "density": {"type": "constant", "c": 1.0}}) == unit_space(2.0)
    assert space_from_dict({"D": "inf", "density": sharp}) == sharp_space(0.2, 1.0, 2.0)[0]


def test_space_validation():
    with pytest.raises(DomainError):
        WeightedInterval(INF, TabulatedDensity((0.0, 1.0), (1.0, 1.0)))
    with pytest.raises(DomainError):
        WeightedInterval(3.0, TabulatedDensity((0.1, 1.0), (1.0, 1.0)))
    with pytest.raises(DomainError):
        WeightedInterval(3.0, TabulatedDensity((0.0, 1.0), (1.0, 1.0)))
    with pytest.raises(DomainError):
        space_from_dict({"D": 1.0})
    with pytest.raises(DomainError):
        WeightedInterval(0.0, ConstantDensity(1.0))
    with pytest.raises(DomainError):
        IntervalUnion([(0.0, INF)])
