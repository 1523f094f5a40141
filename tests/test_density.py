"""Density families, ratio-bound verdicts, and the minimal passing dimension."""

import math

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
    with pytest.raises(DomainError):
        # discontinuous at the breakpoint: 1 vs 2
        PiecewiseMonomialDensity((1.0,), ((1.0, 0.0), (2.0, 0.0)))
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
    assert np.all(np.abs(hv - scalar_h) <= 4 * np.spacing(scalar_h))
    assert np.all(np.abs(prefix - scalar_prefix) <= 4 * np.spacing(scalar_prefix))
    with mpmath.workdps(30):
        for x, value in zip(xs[1::20], prefix[1::20]):
            cuts = [0.0] + [k for k in kinks if k < x] + [x]
            exact = mpmath.quad(weight, [mpmath.mpf(c) for c in cuts])
            assert value == pytest.approx(float(exact), rel=1e-13)


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
    assert density_from_dict(h.to_dict()) == h


def test_density_from_dict_diagnostics():
    with pytest.raises(DomainError):
        density_from_dict({"type": "nope"})
    with pytest.raises(DomainError):
        density_from_dict({"type": "monomial", "c": 1.0})  # missing p
    with pytest.raises(DomainError):
        density_from_dict([1, 2, 3])


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
