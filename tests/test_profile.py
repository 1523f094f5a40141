"""Model profile: closed forms, inversion, scaling, expansion, bounds."""

import math

import mpmath
import pytest

from mcp_iso import (
    DomainError,
    avr_lower_bound,
    cd_lower_bound,
    eval_f,
    eval_v,
    expansion_leading_coefficient,
    invert_v,
    profile_mcp,
    unit_ball_volume,
)


def quadrature_f(n, d, x):
    """The defining-integral oracle for the boundary factor, at 50 digits."""
    with mpmath.workdps(50):
        n, d, x = mpmath.mpf(n), mpmath.mpf(d), mpmath.mpf(x)
        first = mpmath.quad(lambda y: ((d - y) / (d - x)) ** (n - 1), [0, x])
        second = mpmath.quad(lambda y: (y / x) ** (n - 1), [x, d])
        return float(1 / (first + second))


def test_eval_f_golden():
    assert eval_f(2.0, 1.0, 0.5) == pytest.approx(2.0 / 3.0, rel=1e-13)
    # f_D(D xi) = f_1(xi) / D
    assert eval_f(2.0, 2.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_eval_f_matches_quadrature():
    for n in (1.5, 2.0, 3.0):
        for d in (1.0, 2.5):
            for frac in (0.2, 0.5, 0.8):
                x = frac * d
                assert eval_f(n, d, x) == pytest.approx(
                    quadrature_f(n, d, x), rel=1e-10
                )


def test_eval_f_small_x_behaves_like_n_x_pow():
    # f(x) / x^(N-1) -> N as x -> 0
    for n in (1.5, 2.0, 3.0):
        x = 1e-6
        assert eval_f(n, 1.0, x) / x ** (n - 1.0) == pytest.approx(n, rel=1e-4)


def test_eval_f_domain_errors():
    with pytest.raises(DomainError):
        eval_f(2.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        eval_f(2.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        eval_f(2.0, math.inf, 0.5)
    with pytest.raises(DomainError):
        eval_f(1.0, 1.0, 0.5)


def test_eval_v_golden_and_limits():
    assert eval_v(2.0, 1.0, 0.5) == pytest.approx(0.5, rel=1e-13)
    assert eval_v(2.0, 1.0, 1e-12) < 1e-11
    assert eval_v(2.0, 1.0, 1.0 - 1e-12) == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("n", [1.5, 2.0, 5.0])
@pytest.mark.parametrize("d", [1.0, 3.0])
def test_eval_v_strictly_increasing(n, d):
    values = [eval_v(n, d, d * k / 1001.0) for k in range(1, 1001)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_invert_v_golden_and_roundtrip():
    assert invert_v(2.0, 1.0, 0.5) == pytest.approx(0.5, abs=1e-12)
    for n in (1.5, 2.0, 3.0, 5.0):
        for d in (1.0, 2.0):
            for frac in (0.1, 0.35, 0.6, 0.9):
                a = frac * d
                v = eval_v(n, d, a)
                assert invert_v(n, d, v) == pytest.approx(a, abs=2e-12 * max(1.0, d))


def test_invert_v_small_volume_asymptotics():
    # a(v) ~ (v / N)^(1/N)
    for n in (1.5, 2.0, 3.0):
        v = 1e-10
        assert invert_v(n, 1.0, v) == pytest.approx((v / n) ** (1.0 / n), rel=1e-3)


def test_profile_golden_and_endpoints():
    res = profile_mcp(2.0, 1.0, 0.5)
    assert res.profile == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert res.profile == res.f_at_a
    assert res.a == pytest.approx(0.5, abs=1e-11)
    assert profile_mcp(3.0, 2.0, 0.0).profile == 0.0
    assert profile_mcp(3.0, 2.0, 1.0).profile == 0.0
    with pytest.raises(DomainError):
        profile_mcp(2.0, 1.0, 1.5)


def test_profile_scales_exactly_with_diameter():
    # The construction gives profile_D = profile_1 / D identically.
    for n in (1.5, 2.0, 3.0, 5.0):
        for d in (0.5, 1.0, 2.0, 10.0):
            for v in (0.05, 0.3, 0.7, 0.95):
                lhs = d * profile_mcp(n, d, v).profile
                rhs = profile_mcp(n, 1.0, v).profile
                assert lhs == pytest.approx(rhs, rel=1e-11)


def test_profile_small_volume_expansion_n2():
    # At N = 2 the remainder is tiny already at v = 1e-8.
    v = 1e-8
    ratio = profile_mcp(2.0, 1.0, v).profile / v ** 0.5
    assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-2)


def test_profile_ratio_converges_to_leading_coefficient():
    # The asymptotic statement: the deviation shrinks as v -> 0 and the
    # required volume scale depends on N.
    for n, v_small in ((1.5, 1e-8), (2.0, 1e-8), (3.0, 1e-9), (5.0, 1e-12)):
        lead = expansion_leading_coefficient(n)
        exponent = (n - 1.0) / n

        def deviation(v):
            return abs(profile_mcp(n, 1.0, v).profile / v ** exponent - lead) / lead

        assert deviation(v_small) < 1e-2
        assert deviation(v_small) < deviation(v_small * 1e3)


def test_expansion_leading_coefficient_values():
    assert expansion_leading_coefficient(2.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert expansion_leading_coefficient(4.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert expansion_leading_coefficient(1.0 + 1e-12) == pytest.approx(1.0, abs=1e-9)


def test_avr_lower_bound_values():
    assert avr_lower_bound(2.0, 1.0, math.pi) == pytest.approx(
        math.sqrt(2.0) * math.pi, rel=1e-13
    )
    assert avr_lower_bound(2.0, 0.0, 5.0) == 0.0
    assert avr_lower_bound(2.0, 3.0, 0.0) == 0.0


def test_cd_lower_bound_values_and_ratio():
    assert cd_lower_bound(2.0, 1.0, math.pi) == pytest.approx(2.0 * math.pi, rel=1e-13)
    assert cd_lower_bound(2.0, 0.0, 5.0) == 0.0
    for n in (1.5, 2.0, 3.0, 5.0):
        mcp = avr_lower_bound(n, 0.7, 2.3)
        cd = cd_lower_bound(n, 0.7, 2.3)
        assert cd / mcp == pytest.approx(n ** ((n - 1.0) / n), rel=1e-12)
        assert cd >= mcp


def test_bounds_agree_exactly_in_degenerate_cases():
    for n in (1.5, 2.0, 4.0):
        assert avr_lower_bound(n, 0.0, 1.0) == cd_lower_bound(n, 0.0, 1.0) == 0.0
        assert avr_lower_bound(n, 1.0, 0.0) == cd_lower_bound(n, 1.0, 0.0) == 0.0


def test_unit_ball_volume_reexport_is_consistent():
    # sanity: the bound at avr = 1/(N omega_N), mass = 1 equals 1
    n = 2.0
    a = 1.0 / (n * unit_ball_volume(n))
    assert avr_lower_bound(n, a, 1.0) == pytest.approx(1.0, rel=1e-13)
