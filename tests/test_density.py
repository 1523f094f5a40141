"""Density families, ratio-bound verdicts, and the minimal passing dimension."""

import json
import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from mcp_iso import (
    ConstantDensity,
    DomainError,
    MonomialDensity,
    PiecewiseMonomialDensity,
    SharpDensity,
    TabulatedDensity,
    Verdict,
    Witness,
    check_mcp_density,
    density_from_dict,
    minimal_mcp_dimension,
)

from corpus import envelope_corpus, power_corpus, product_corpus

INF = math.inf


def exp_tabulated(lo=0.1, hi=3.0, n=100):
    grid = np.linspace(lo, hi, n)
    return TabulatedDensity(tuple(grid), tuple(np.exp(grid)))


# ---------------------------------------------------------------- construction


def test_constructor_validation():
    with pytest.raises(DomainError):
        ConstantDensity(0.0)
    with pytest.raises(DomainError):
        MonomialDensity(1.0, -0.5)
    with pytest.raises(DomainError):
        MonomialDensity(-1.0, 1.0)
    with pytest.raises(DomainError):
        PiecewiseMonomialDensity((1.0,), (((1.0, 0.0)),))  # piece count mismatch
    for scale in (1.0, 1e-20, 1e-300, 1e300):
        # discontinuous at the breakpoint: 1 vs 2, at any scale
        with pytest.raises(DomainError, match="pieces disagree at breakpoint 1.0"):
            PiecewiseMonomialDensity((1.0,), ((scale, 0.0), (2.0 * scale, 0.0)))
        # a relative mismatch of 1e-13 counts as rounding at any scale
        PiecewiseMonomialDensity((1.0,), ((scale, 0.0), ((1.0 + 1e-13) * scale, 0.0)))
    with pytest.raises(DomainError):
        PiecewiseMonomialDensity((-1.0,), ((1.0, 0.0), (1.0, 0.0)))  # breakpoint <= 0
    with pytest.raises(DomainError):
        # breakpoints not increasing
        PiecewiseMonomialDensity((2.0, 1.0), ((1.0, 0.0), (1.0, 0.0), (1.0, 0.0)))
    with pytest.raises(DomainError):
        # continuous, but the first exponent is negative
        PiecewiseMonomialDensity((1.0,), ((1.0, -0.5), (1.0, -0.5)))
    with pytest.raises(DomainError):
        TabulatedDensity((0.0, 1.0, 2.0), (1.0, 1.0))  # length mismatch
    with pytest.raises(DomainError):
        TabulatedDensity((-1.0, 1.0), (1.0, 1.0))  # grid starts below 0
    with pytest.raises(DomainError):
        TabulatedDensity((0.0, 1.0, INF), (1.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        TabulatedDensity((0.0, math.nan, 2.0), (1.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        TabulatedDensity((0.0, 1.0, 2.0), (1.0, math.nan, 1.0))
    with pytest.raises(DomainError):
        TabulatedDensity((0.0, 1.0, 2.0), (1.0, INF, 1.0))
    with pytest.raises(DomainError):
        MonomialDensity(1.0, math.nan)
    with pytest.raises(DomainError):
        PiecewiseMonomialDensity((1.0,), ((1.0, math.nan), (1.0, 1.0)))
    with pytest.raises(DomainError):
        PiecewiseMonomialDensity((1.0,), ((1.0, 1.0), (1.0, math.nan)))
    with pytest.raises(DomainError):
        TabulatedDensity((0.0, 1.0, 0.5), (1.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        TabulatedDensity((0.0, 1.0, 2.0), (1.0, -1.0, 1.0))
    with pytest.raises(DomainError):
        # vanishes identically on [1, 2]
        TabulatedDensity((0.0, 1.0, 2.0), (1.0, 0.0, 0.0))


def test_piecewise_evaluation_and_integral():
    # 1 on [0,1], then x, glued continuously at 1.
    h = PiecewiseMonomialDensity((1.0,), ((1.0, 0.0), (1.0, 1.0)))
    assert h(0.5) == 1.0
    assert h(2.0) == 2.0
    assert h.integral(0.0, 2.0) == pytest.approx(1.0 + 1.5, rel=1e-14)
    assert h.integral(0.5, 1.5) == pytest.approx(0.5 + 0.625, rel=1e-14)
    # A piece with exponent -1 integrates to c log(b/a).
    h = PiecewiseMonomialDensity((1.0,), ((1.0, 0.0), (1.0, -1.0)))
    assert h.integral(0.5, 2.0) == pytest.approx(0.5 + math.log(2.0), rel=1e-14)
    assert h.integral(0.5, np.array([2.0]))[0] == pytest.approx(0.5 + math.log(2.0), rel=1e-14)


def test_sharp_density_geometry():
    h = SharpDensity(1.0 / (2.0 * math.pi), 1.0, 2.0)
    assert h.x_star == pytest.approx(1.0, rel=1e-13)
    assert h.level == pytest.approx(1.0, rel=1e-13)
    assert h(0.5) == pytest.approx(1.0, rel=1e-13)
    assert h(2.0) == pytest.approx(2.0, rel=1e-13)  # tail is x
    assert h.integral(0.0, h.x_star) == pytest.approx(1.0, rel=1e-13)


def test_sharp_tail_coefficient_must_be_a_normal_float():
    # N omega_N avr at avr = 1: 3.2e-308 at N = 438, subnormal from N = 439
    # and 0 from N = 456; exp(log) overflows at avr = 1e308, N = 2.
    h = SharpDensity(1.0, 1.0, 438.0)
    assert h.tail_coefficient == pytest.approx(
        float(438 * mpmath.pi ** 219 / mpmath.gamma(220)), rel=1e-12
    )
    assert h.integral(0.0, h.x_star) == pytest.approx(1.0, rel=1e-12)
    for avr, N in ((1.0, 439.0), (1.0, 500.0), (1e308, 2.0)):
        with pytest.raises(DomainError, match=re.escape(f"N = {N:g}, avr = {avr:g}")):
            SharpDensity(avr, 1.0, N)


def test_tabulated_integral_is_exact_trapezoid():
    h = TabulatedDensity((0.0, 1.0, 2.0), (0.0, 2.0, 2.0))
    assert h.integral(0.0, 2.0) == pytest.approx(1.0 + 2.0, rel=1e-14)
    # on [0.5, 1] the interpolant is 2x (area 0.75), then constant 2
    assert h.integral(0.5, 1.5) == pytest.approx(0.75 + 1.0, rel=1e-12)
    with pytest.raises(DomainError):
        h.integral(0.0, 3.0)
    # A sub-range of a long table: the same trapezoid sum as numpy's over
    # the end points and the table nodes between them.
    grid = np.linspace(0.0, 3.0, 2048)
    h = TabulatedDensity(tuple(grid), tuple(1.0 + grid + np.sin(5.0 * grid)))
    s, t = 0.3712, 2.1093
    nodes = np.concatenate([[s], grid[(grid > s) & (grid < t)], [t]])
    expected = np.trapezoid(np.interp(nodes, grid, h.values), nodes)
    assert h.integral(s, t) == pytest.approx(expected, rel=1e-13)


def test_tabulated_error_names_the_first_point_outside():
    h = TabulatedDensity((0.0, 1.0, 2.0), (1.0, 1.5, 1.0))
    with pytest.raises(DomainError) as err:
        h(np.array([0.5, 2.5, 3.0, -1.0]))
    assert str(err.value) == "tabulated density not defined at 2.5, outside its grid [0.0, 2.0]"
    with pytest.raises(DomainError, match=r"not defined at -1\.0, "):
        h(-1.0)
    for call in (lambda: h(math.nan), lambda: h(np.array([0.5, math.nan])),
                 lambda: h.integral(0.0, math.nan), lambda: h.integral(math.nan, 1.0)):
        with pytest.raises(DomainError, match="not defined at nan, "):
            call()


def test_a_table_whose_slope_overflows_is_refused():
    # np.interp forms the slope -1.7e308 / 1e-300 = -inf there, so h(5e-301)
    # would be -inf although no table value is negative.
    with pytest.raises(DomainError, match=re.escape("slope on segment 0, [0.0, 1e-300], leaves")):
        TabulatedDensity((0.0, 1e-300, 1.0), (1.7e308, 0.0, 1.0))
    # Scaling by 1.5 takes the slope 1.6e308 of the second segment past the float range.
    table = TabulatedDensity((0.0, 0.5, 1.0), (1.0, 1.0, 8e307))
    with pytest.raises(DomainError, match=re.escape("slope on segment 1, [0.5, 1.0], leaves")):
        table.scaled(1.5)
    # A finite slope keeps every value between the two nodes of its segment.
    h = TabulatedDensity((0.0, 1.0, 2.0), (1.7e308, 0.0, 1.7e308))
    xs = np.linspace(0.0, 2.0, 101)
    assert np.all((h(xs) >= 0.0) & (h(xs) <= 1.7e308))


def _breakpoint_cases():
    """Per power family: the density and, at each breakpoint, the value of
    the piece on its left.  The piecewise pieces disagree at each
    breakpoint by 2e-13 relative (inside the continuity tolerance), and
    every value is exact, so only the left piece gives these bytes; the
    sharp weight's tail at x_star rounds away from its level."""
    sharp = SharpDensity(0.5, 2.0, 3.0)
    level = 2.0 * (1.0 + 2e-13)
    piecewise = PiecewiseMonomialDensity((2.0, 4.0), ((1.0, 1.0), (level, 0.0), (8.0, -1.0)))
    return {
        "constant": (ConstantDensity(1.7), ()),
        "monomial": (MonomialDensity(1.3, 0.5), ()),
        "sharp": (sharp, ((sharp.x_star, sharp.level),)),
        "piecewise": (piecewise, ((2.0, 2.0), (4.0, level))),
    }


@pytest.mark.parametrize("family", ["constant", "monomial", "sharp", "piecewise"])
def test_breakpoints_take_the_left_piece(family):
    h, lefts = _breakpoint_cases()[family]
    assert h.breakpoints() == tuple(b for b, _ in lefts)
    for b, left in lefts:
        assert h(b) == left
        assert h(np.array([0.5 * b, b, 2.0 * b]))[1] == left


# Power families and the reprs of h at 0, the least subnormal, 1, each
# breakpoint, 1e300, inf and NaN: one piece and many, flat pieces among
# them, at the points where their evaluation could differ.
POWER_VALUES = [
    (ConstantDensity(2.5), ["2.5"] * 6),
    (MonomialDensity(1.5, 2.5), ["0.0", "0.0", "1.5", "inf", "inf", "nan"]),
    (MonomialDensity(3.0, 0.0), ["3.0"] * 6),
    (PiecewiseMonomialDensity((1.0, 2.0), ((1.0, 1.0), (1.0, 0.0), (2.0, -1.0))),
     ["0.0", "5e-324", "1.0", "1.0", "1.0", "2e-300", "0.0", "nan"]),
    (SharpDensity(0.2, 1.0, 2.0),
     ["1.1209982432795857", "1.1209982432795857", "1.2566370614359172", "1.1209982432795857",
      "1.2566370614359173e+300", "inf", "nan"]),
]


def test_one_piece_and_many_evaluate_alike():
    # A power past the float range is inf without a warning, alone or as
    # the last of several pieces.
    xs = np.array([1.0, 1e10])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (MonomialDensity(1.0, 400.0),
                  PiecewiseMonomialDensity((1.0,), ((1.0, 1.0), (1.0, 400.0)))):
            assert h(1e10) == INF
            assert h(xs).tolist() == [1.0, INF]
        for h, values in POWER_VALUES:
            points = [0.0, 5e-324, 1.0, *h.breakpoints(), 1e300, INF, math.nan]
            assert [repr(float(v)) for v in h(np.array(points))] == values
            assert [repr(h(x)) for x in points] == values


def _family_cases():
    """Per family: the density, its weight in mpmath from the parameters,
    the points where that weight has a kink, and the right end of a grid."""
    mpf = mpmath.mpf
    c2 = 0.7 ** 1.1
    c3 = c2 * 1.9 ** 1.4
    pieces = ((1.0, 1.5), (c2, 0.4), (c3, -1.0))
    grid = (0.0, 0.4, 1.1, 1.5, 2.2, 3.0)
    values = (0.0, 0.9, 1.2, 1.2, 2.0, 2.6)
    avr, mass, n = 0.23, 1.3, 2.7

    def piecewise(y):
        k = sum(y > b for b in (0.7, 1.9))
        c, p = pieces[k]
        return mpf(c) * y ** mpf(p)

    def tabulated(y):
        k = max(i for i, g in enumerate(grid[:-1]) if g <= y)
        g0, g1 = mpf(grid[k]), mpf(grid[k + 1])
        return mpf(values[k]) + (mpf(values[k + 1]) - values[k]) * (y - g0) / (g1 - g0)

    tc = n * mpmath.pi ** (mpf(n) / 2) / mpmath.gamma(mpf(n) / 2 + 1) * avr
    x_star = (mass / tc) ** (1 / mpf(n))
    level = tc ** (1 / mpf(n)) * mpf(mass) ** ((mpf(n) - 1) / n)
    return {
        "constant": (ConstantDensity(1.7), lambda y: mpf(1.7), (), 3.0),
        "monomial": (MonomialDensity(2.0 * math.pi, 1.37),
                     lambda y: 2 * mpmath.pi * y ** mpf(1.37), (), 3.0),
        "piecewise": (PiecewiseMonomialDensity((0.7, 1.9), pieces), piecewise, (0.7, 1.9), 3.0),
        "sharp": (SharpDensity(avr, mass, n),
                  lambda y: level if y <= x_star else tc * y ** (mpf(n) - 1), (x_star,), 3.0),
        "tabulated": (TabulatedDensity(grid, values), tabulated, grid[1:-1], 3.0),
    }


@pytest.mark.parametrize("family", ["constant", "monomial", "piecewise", "sharp", "tabulated"])
def test_array_calls_match_scalar_calls_and_quadrature(family):
    h, weight, kinks, hi = _family_cases()[family]
    xs = np.linspace(0.0, hi, 301)
    hv, prefix = h(xs), h.integral(0.0, xs)
    assert isinstance(h(1.0), float) and isinstance(h.integral(0.0, 1.0), float)
    scalar_h = np.array([h(float(x)) for x in xs])
    scalar_prefix = np.array([h.integral(0.0, float(x)) for x in xs])
    # A float runs as a one-element array: the same power routine, the same bits.
    assert np.array_equal(hv, scalar_h)
    assert np.array_equal(prefix, scalar_prefix)
    # An empty integral is exactly 0: pieces above t add nothing, not an offset.
    assert prefix[0] == h.integral(0.0, 0.0) == 0.0
    with mpmath.workdps(30):
        for x, value in zip(xs[1::20], prefix[1::20]):
            cuts = [0.0] + [k for k in kinks if k < x] + [x]
            exact = mpmath.quad(weight, [mpmath.mpf(c) for c in cuts])
            assert value == pytest.approx(float(exact), rel=1e-13)


def test_four_piece_prefix_starts_at_zero():
    # Each piece's lower end is raised to its power by the routine that
    # raises the upper ends, so the empty parts above 1e-6 cancel exactly.
    breaks, exponents = (1.596, 2.202, 2.942), (2.796, 0.01685, 2.628, 3.2)
    coefficients = [1.0]
    for b, p0, p1 in zip(breaks, exponents, exponents[1:]):
        coefficients.append(coefficients[-1] * b ** p0 / b ** p1)
    h = PiecewiseMonomialDensity(breaks, tuple(zip(coefficients, exponents)))
    prefix = h.integral(0.0, np.array([0.0, 1e-6]))
    assert prefix[0] == 0.0
    assert prefix[1] == pytest.approx(1e-6 ** 3.796 / 3.796, rel=1e-13)
    assert prefix[1] == h.integral(0.0, 1e-6)


def test_sharp_flat_part_is_level_times_x():
    rng = np.random.default_rng(7)
    for _ in range(200):
        h = SharpDensity(rng.uniform(0.05, 2.0), rng.uniform(0.1, 5.0), rng.uniform(1.2, 6.0))
        xs = rng.uniform(0.0, h.x_star, 50)
        assert np.array_equal(h.integral(0.0, xs), h.level * xs)


def test_an_empty_part_is_zero_where_its_power_overflows():
    # At N = 400 the tail piece's x^400 overflows from x_star on.  Its part
    # of an integral up to x_star is empty and counts 0 (NaN stays NaN); a
    # part that is not empty leaves the float range and is refused.
    h = SharpDensity(1.0, 1e40, 400.0)
    xs = np.array([0.0, 0.5 * h.x_star, h.x_star, math.nan])
    np.testing.assert_array_equal(h.integral(0.0, xs), h.level * xs)
    assert h.integral(h.x_star, h.x_star) == 0.0
    message = ("SharpDensity(avr=1.0, mass=1e+40, N=400.0): the integral of its piece x^399 "
               "from x = 6.05567 leaves the float range")
    with pytest.raises(DomainError, match=re.escape(message)):
        h.integral(0.0, [h.x_star, 2.0 * h.x_star])


@pytest.mark.parametrize("h", [
    ConstantDensity(2.0),
    MonomialDensity(1.0, 1.0),
    MonomialDensity(0.5, 2.5),
    PiecewiseMonomialDensity((1.0,), ((1.0, 0.0), (1.0, 2.0))),
    PiecewiseMonomialDensity((1.0,), ((1.0, 1.0), (1.0, -1.0))),  # a log piece
    PiecewiseMonomialDensity((1.0, 2.0), ((1.0, 2.0), (1.0, -1.0), (0.5, 0.0))),
    PiecewiseMonomialDensity((1.0,), ((1.0, 1.0), (1.0, -3.0))),
    SharpDensity(1.0, 2.0, 3.0),
    SharpDensity(1.0, 1e40, 400.0),
])
def test_an_empty_part_at_infinity_is_zero(h):
    # [inf, inf] is empty on flat, log and power pieces alike: 0, and NaN
    # only where t is NaN, with no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert h.integral(math.inf, math.inf) == 0.0
        got = h.integral(math.inf, [math.inf, math.nan])
    assert got[0] == 0.0 and math.isnan(got[1])


def test_finite_integrals_keep_their_closed_forms():
    # Finite s never reaches the empty part at infinity: flat and power
    # parts keep their bits.
    xs = np.array([0.0, 0.25, 1.0, 3.5, 1e6])
    h = ConstantDensity(2.0)
    assert np.array_equal(h.integral(0.5, xs), 2.0 * (np.maximum(xs, 0.5) - 0.5))
    h = MonomialDensity(0.5, 2.5)
    expected = 0.5 * (np.maximum(xs, 0.5) ** 3.5 - np.array([0.5]) ** 3.5) / 3.5
    assert np.array_equal(h.integral(0.5, xs), expected)
    assert h.integral(0.5, 0.5) == 0.0


# The JSON form of each density of test_json_round_trip, byte for byte.  Only
# the sharp density is written back (the density cell of mcp-iso sharp).
JSON_FORMS = {
    "constant": '{"type": "constant", "c": 2.0}',
    "monomial": '{"type": "monomial", "c": 0.7, "p": 1.5}',
    "piecewise_monomial": '{"type": "piecewise_monomial", "breakpoints": [1.0], '
                          '"pieces": [{"c": 1.0, "p": 0.0}, {"c": 1.0, "p": 2.0}]}',
    "paper_sharp": '{"type": "paper_sharp", "avr": 0.25, "mass": 1.5, "N": 2.5}',
    "tabulated": '{"type": "tabulated", "grid": [0.0, 0.5, 1.0], "values": [1.0, 2.0, 1.5]}',
}


@pytest.mark.parametrize(
    "h",
    [
        ConstantDensity(2.0),
        MonomialDensity(0.7, 1.5),
        PiecewiseMonomialDensity((1.0,), ((1.0, 0.0), (1.0, 2.0))),
        SharpDensity(0.25, 1.5, 2.5),
        TabulatedDensity((0.0, 0.5, 1.0), (1.0, 2.0, 1.5)),
    ],
)
def test_json_round_trip(h):
    if isinstance(h, SharpDensity):
        assert json.dumps(h.to_dict()) == JSON_FORMS[h.kind]
    assert density_from_dict(json.loads(JSON_FORMS[h.kind])) == h


def test_density_from_dict_diagnostics():
    with pytest.raises(DomainError):
        density_from_dict({"type": "nope"})
    with pytest.raises(DomainError, match="missing field 'p'"):
        density_from_dict({"type": "monomial", "c": 1.0})
    with pytest.raises(DomainError):
        density_from_dict([1, 2, 3])


def test_a_piece_without_an_exponent_is_named():
    with pytest.raises(DomainError, match="a piece of the .* is missing field 'p'"):
        density_from_dict({"type": "piecewise_monomial", "breakpoints": [1.0],
                           "pieces": [{"c": 1.0, "p": 0.0}, {"c": 1.0}]})


# ----------------------------------------------------------------- the checks


def test_monomial_saturates_upper_bound():
    # h = x^(N-1) meets the upper bound with equality on the half line.
    for n in (1.5, 2.0, 3.0):
        verdict = check_mcp_density(MonomialDensity(1.0, n - 1.0), INF, n)
        assert verdict.status == "pass_exact"


def test_constant_passes_everywhere():
    assert check_mcp_density(ConstantDensity(1.0), INF, 2.0).status == "pass_exact"
    assert check_mcp_density(ConstantDensity(3.0), 2.0, 1.3).status == "pass_exact"


def test_monomial_fail_has_violating_witness():
    verdict = check_mcp_density(MonomialDensity(1.0, 2.0), INF, 2.5)
    assert verdict.status == "fail"
    w = verdict.witness
    assert w.side == "upper" and w.lhs > w.rhs
    # Bounded-domain witness stays inside the domain.
    verdict = check_mcp_density(MonomialDensity(1.0, 2.0), 1.0, 2.5)
    assert verdict.status == "fail"
    assert 0.0 < verdict.witness.x0 < verdict.witness.x1 < 1.0


def test_exp_tabulated_fails_on_half_line():
    verdict = check_mcp_density(exp_tabulated(), INF, 2.0)
    assert verdict.status == "fail"
    w = verdict.witness
    assert w.side == "upper"
    assert w.lhs > w.rhs
    # The classical explanation: the pair (1, 2) violates since e > 2.
    assert math.e > 2.0 ** 1.0


def test_decreasing_tabulated_fails_lower_side():
    h = TabulatedDensity((0.0, 1.0, 2.0), (2.0, 1.5, 1.0))
    verdict = check_mcp_density(h, INF, 2.0)
    assert verdict.status == "fail"
    assert verdict.witness.side == "lower"


def test_tabulated_cannot_certify_half_line():
    h = TabulatedDensity((0.0, 1.0, 2.0), (1.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        check_mcp_density(h, INF, 2.0)
    # The same data is certifiable (at sampled level) on its own range.
    assert check_mcp_density(h, 2.0, 2.0).status == "pass_sampled"


def test_piecewise_flat_then_linear_passes_at_two():
    h = PiecewiseMonomialDensity((1.0,), ((1.0, 0.0), (1.0, 1.0)))
    assert check_mcp_density(h, INF, 2.0).status == "pass_sampled"
    assert check_mcp_density(h, INF, 1.8).status == "fail"


def test_piecewise_tail_exponent_is_checked_exactly():
    # Sampled window cannot see the tail; the final exponent must be caught.
    h = PiecewiseMonomialDensity((1.0,), ((1.0, 0.0), (1.0, 3.0)))
    verdict = check_mcp_density(h, INF, 2.0)
    assert verdict.status == "fail"
    assert verdict.witness.x1 > 1.0


# Min and max envelopes of monomials, their powers and their pairwise
# products, each labelled with its exact minimal N.
ENVELOPES = envelope_corpus(24, seed=37)
ENVELOPES += power_corpus(ENVELOPES, seed=37) + product_corpus(ENVELOPES)


def test_envelope_corpus_passes_at_its_label():
    for member in ENVELOPES:
        assert check_mcp_density(member.h, member.D, member.label).passed, member


def test_sharp_density_checks():
    h = SharpDensity(0.3, 2.0, 3.0)
    assert check_mcp_density(h, INF, 3.0).status == "pass_exact"
    assert check_mcp_density(h, INF, 3.5).status == "pass_exact"
    assert check_mcp_density(h, INF, 2.9).status == "fail"
    # Restricted below the switch point everything is constant.
    assert check_mcp_density(h, 0.5 * h.x_star, 1.2).status == "pass_exact"
    # Around the threshold N = h.N, on the half line and on [0, 4 x_star].
    for dom in (INF, 4.0 * h.x_star):
        assert check_mcp_density(h, dom, h.N - 1e-9).status == "fail"
        assert check_mcp_density(h, dom, h.N - 1e-13).status == "pass_exact"
        assert check_mcp_density(h, dom, h.N + 1e-9).status == "pass_exact"


def test_scale_covariance_of_verdicts():
    cases = [
        (MonomialDensity(1.0, 1.0), INF, 2.0),
        (MonomialDensity(1.0, 2.0), INF, 2.5),
        (exp_tabulated(), INF, 2.0),
        (PiecewiseMonomialDensity((1.0,), ((1.0, 0.0), (1.0, 1.0))), INF, 2.0),
    ]
    for h, dom, n in cases:
        base = check_mcp_density(h, dom, n)
        scaled = check_mcp_density(h.scaled(7.5), dom, n)
        assert scaled.status == base.status


def test_refinement_stability():
    # Passing sampled verdicts stay passing when the grid is doubled.
    passing = [
        PiecewiseMonomialDensity((1.0,), ((1.0, 0.0), (1.0, 1.0))),
        TabulatedDensity((0.0, 1.0, 2.0), (1.0, 1.2, 1.4)),
    ]
    for h in passing:
        coarse = check_mcp_density(h, 2.0, 2.5, grid_points=512)
        fine = check_mcp_density(h, 2.0, 2.5, grid_points=1024)
        assert coarse.status == fine.status == "pass_sampled"


def test_half_line_pass_implies_bounded_pass():
    for h in (
        MonomialDensity(1.0, 1.0),
        ConstantDensity(1.0),
        SharpDensity(0.5, 1.0, 2.0),
        PiecewiseMonomialDensity((1.0,), ((1.0, 0.0), (1.0, 1.0))),
    ):
        assert check_mcp_density(h, INF, 2.0).passed
        for d in (0.5, 1.0, 4.0):
            assert check_mcp_density(h, d, 2.0).passed


# ------------------------------------------------------------- min dimension


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
def test_minimal_dimension_of_monomials(p):
    n_star = minimal_mcp_dimension(MonomialDensity(1.0, p), INF, 1.0001, 10.0)
    assert n_star == pytest.approx(p + 1.0, abs=1e-6)
    # Around the threshold N = p + 1: an excess below rel_tol is rounding dust.
    h = MonomialDensity(1.0, p)
    for dom in (INF, 3.0):
        assert check_mcp_density(h, dom, p + 1.0 - 1e-9).status == "fail"
        assert check_mcp_density(h, dom, p + 1.0 - 1e-13).status == "pass_exact"
        assert check_mcp_density(h, dom, p + 1.0 + 1e-9).status == "pass_exact"


def test_minimal_dimension_constant_returns_lower_end():
    assert minimal_mcp_dimension(ConstantDensity(1.0), INF, 1.5, 10.0) == 1.5


def test_minimal_dimension_none_when_top_fails():
    assert minimal_mcp_dimension(MonomialDensity(1.0, 2.0), INF, 1.5, 2.5) is None


def test_minimal_dimension_exp_tabulated():
    # For h = e^x the worst sampled pair gives N ~ 1 + sup (x1-x0)/log(x1/x0),
    # which approaches 1 + (grid end) = 4 from nearby.
    n_star = minimal_mcp_dimension(exp_tabulated(), INF, 1.5, 10.0)
    assert 3.8 <= n_star <= 4.2


def test_minimal_dimension_sharp_is_its_parameter():
    n_star = minimal_mcp_dimension(SharpDensity(0.2, 1.0, 2.5), INF, 1.5, 10.0)
    assert n_star == pytest.approx(2.5, abs=1e-6)


def test_envelope_corpus_minimal_dimension_is_at_most_its_label():
    # One-way: the sampled check may pass a little below the exact label.
    for member in ENVELOPES:
        assert minimal_mcp_dimension(member.h, member.D, 1.01, 10.0) <= member.label + 1e-12, member


# x^2 on [0, 3], sampled on a grid: its minimal dimension is 3, so a
# one-point grid that passes every N must be refused.
SQUARE_PIECES = PiecewiseMonomialDensity((1.0,), ((1.0, 2.0), (1.0, 2.0)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: exp_tabulated()(3.5),
        lambda: check_mcp_density(ConstantDensity(1.0), 0.0, 2.0),
        lambda: check_mcp_density(exp_tabulated(2.0, 3.0), 1.0, 2.0),
        lambda: check_mcp_density(SQUARE_PIECES, 3.0, 3.0, grid_points=1),
        lambda: minimal_mcp_dimension(SQUARE_PIECES, 3.0, 1.0, 30.0),
        lambda: minimal_mcp_dimension(SQUARE_PIECES, 3.0, 4.0, 4.0),
        lambda: minimal_mcp_dimension(SQUARE_PIECES, 3.0, 1.01, 30.0, grid_points=1),
        lambda: check_mcp_density(SQUARE_PIECES, 2.0, 2.0, grid_points=100.5),
        lambda: check_mcp_density(MonomialDensity(1.0, 1.0), 2.0, 2.0, grid_points=100.5),
        lambda: minimal_mcp_dimension(MonomialDensity(1.0, 1.0), 2.0, 1.01, 30.0, 100.5),
    ],
    ids=[
        "eval-outside-table", "domain-zero", "support-misses-domain", "check-one-point",
        "n-lo-one", "n-hi-at-n-lo", "min-dimension-one-point", "check-float-points",
        "check-exact-float-points", "min-dimension-float-points",
    ],
)
def test_bad_check_arguments_raise(call):
    with pytest.raises(DomainError):
        call()


def test_ratio_powers_outside_the_normal_range_name_the_sample():
    # Each side's least power with a positive base, zero or subnormal, would
    # make h / power overflow: x^(N-1) at the first sample with x > 0 and
    # (D - x)^(N-1) at the last with x < D (3 - 2.999 = 1e-3, so ~1e-597).
    with pytest.raises(DomainError, match=r"x\^\(N-1\) leaves the float range at N=1000\.0, "
                                          r"sample x=0\.0017612524461839531, D=0\.9$"):
        check_mcp_density(PiecewiseMonomialDensity((0.45,), ((1.0, 1.5), (0.45 ** 0.9, 0.6))),
                          0.9, 1000.0)
    table = TabulatedDensity((1.0, 2.0, 2.999), (1.0, 1.0, 1.0))
    with pytest.raises(DomainError, match=r"\(D - x\)\^\(N-1\) leaves the float range at "
                                          r"N=200\.0, sample x=2\.999, D=3\.0$"):
        check_mcp_density(table, 3.0, 200.0)


# ------------------------------------------------------------------ verdicts


def test_verdict_witness_consistency():
    with pytest.raises(DomainError):
        Verdict("fail")  # fail without witness
    with pytest.raises(DomainError):
        Verdict("pass_exact", witness=Witness(0.0, 1.0, "upper", 2.0, 1.0))
    with pytest.raises(DomainError):
        Witness(1.0, 1.0, "upper", 2.0, 1.0)
    with pytest.raises(DomainError):
        Witness(0.0, 1.0, "sideways", 2.0, 1.0)
