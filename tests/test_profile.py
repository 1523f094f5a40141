"""Model profile: closed forms, inversion, scaling, expansion, bounds."""

import math

import mpmath
import numpy as np
import pytest

from mcp_iso import (
    DomainError,
    avr_lower_bound,
    cd_lower_bound,
    eval_f,
    eval_v,
    expansion_leading_coefficient,
    log_unit_ball_volume,
    profile_mcp,
    unit_ball_volume,
)
from mcp_iso.profile import cone_radius, log_cone_coefficient


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: eval_v(2.0, 1.0, 0.0),
        lambda: eval_v(2.0, 1.0, 1.0),
        lambda: profile_mcp(2.0, 1.0, -1e-300),
        lambda: profile_mcp(2.0, 1.0, 1.0 + 2.0 ** -52),
        lambda: avr_lower_bound(2.0, -1.0, 1.0),
        lambda: avr_lower_bound(2.0, 1.0, -1.0),
        lambda: avr_lower_bound(2.0, math.nan, 1.0),
        lambda: avr_lower_bound(2.0, 1.0, math.nan),
        lambda: cd_lower_bound(2.0, -1.0, 1.0),
        lambda: cd_lower_bound(2.0, 1.0, -1.0),
        lambda: cd_lower_bound(2.0, math.nan, 1.0),
        lambda: cd_lower_bound(2.0, 1.0, math.nan),
        lambda: avr_lower_bound(2.0, math.inf, 1.0),
        lambda: avr_lower_bound(2.0, 1.0, math.inf),
        lambda: cd_lower_bound(2.0, math.inf, 1.0),
        lambda: cd_lower_bound(2.0, 1.0, math.inf),
    ],
    ids=[
        "v-a-zero", "v-a-at-D", "profile-v-negative", "profile-v-above-one",
        "avr-bound-avr-negative", "avr-bound-mass-negative",
        "avr-bound-avr-nan", "avr-bound-mass-nan",
        "cd-bound-avr-negative", "cd-bound-mass-negative",
        "cd-bound-avr-nan", "cd-bound-mass-nan",
        "avr-bound-avr-inf", "avr-bound-mass-inf", "cd-bound-avr-inf", "cd-bound-mass-inf",
    ],
)
def test_out_of_domain_arguments_raise(call):
    with pytest.raises(DomainError):
        call()


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
    assert profile_mcp(2.0, 1.0, 0.5).a == pytest.approx(0.5, abs=1e-12)
    for n in (1.5, 2.0, 3.0, 5.0):
        for d in (1.0, 2.0):
            for frac in (0.1, 0.35, 0.6, 0.9):
                a = frac * d
                v = eval_v(n, d, a)
                assert profile_mcp(n, d, v).a == pytest.approx(a, abs=2e-12 * max(1.0, d))


def test_invert_v_small_volume_asymptotics():
    # a(v) ~ (v / N)^(1/N)
    for n in (1.5, 2.0, 3.0):
        v = 1e-10
        assert profile_mcp(n, 1.0, v).a == pytest.approx((v / n) ** (1.0 / n), rel=1e-3)


def test_profile_golden_and_endpoints():
    res = profile_mcp(2.0, 1.0, 0.5)
    assert res.profile == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert res.a == pytest.approx(0.5, abs=1e-11)
    assert profile_mcp(3.0, 2.0, 0.0).profile == 0.0
    assert profile_mcp(3.0, 2.0, 1.0).profile == 0.0
    with pytest.raises(DomainError):
        profile_mcp(2.0, 1.0, 1.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: eval_f(2.0, 1e-320, 5e-321),
        lambda: profile_mcp(2.0, 1e-320, np.array([0.0, 0.3, 1.0])),
    ],
    ids=["eval-f", "profile"],
)
def test_a_factor_past_the_float_range_names_n_and_d(call):
    # f on the unit diameter is at most 1/ln 2, and f / D overflows below D ~ 1e-308.
    with pytest.raises(DomainError, match=r"float range at N=2\.0, D=1e-320$"):
        call()
    assert eval_f(2.0, 1e-300, 5e-301) == pytest.approx(2.0 / 3.0 * 1e300, rel=1e-12)


def test_profile_at_large_n_has_no_overflow():
    # v = 1/2 is the symmetric point: a = 1/2 and profile = N / (2^N - 1).
    res = profile_mcp(30.0, 1.0, 0.5)
    assert res.a == 0.5
    assert res.profile == pytest.approx(30.0 / (2.0**30 - 1.0), rel=1e-14)


def mp_root(n, v, a):
    """The 50-digit root of v(x) = v, located within a relative 1e-11 of a.

    Solved in t = log x, or t = log(1 - x) above v = 1/2 where x is near 1,
    so that the solver's tolerance is relative.  1 - (1-x)^N is written
    -expm1(N log1p(-x)): the plain form underflows to 0 for tiny x even at
    50 digits.
    """
    with mpmath.workdps(50):
        n, v, a = mpmath.mpf(n), mpmath.mpf(v), mpmath.mpf(a)

        def f(x):
            return n / ((1 - x) ** (1 - n) + x ** (1 - n) - 1)

        def vol(x):
            return f(x) * -mpmath.expm1(n * mpmath.log1p(-x)) / (n * (1 - x) ** (n - 1))

        right = v > 0.5

        def to_x(t):
            return 1 - mpmath.exp(t) if right else mpmath.exp(t)

        def g(t):
            if right:
                return mpmath.log((1 - vol(to_x(t))) / (1 - v))
            return mpmath.log(vol(to_x(t)) / v)

        ends = (a * (1 - mpmath.mpf("1e-11")), a * (1 + mpmath.mpf("1e-11")))
        bracket = sorted(mpmath.log(1 - x) if right else mpmath.log(x) for x in ends)
        assert g(bracket[0]) * g(bracket[1]) < 0, (float(n), float(v))
        x = to_x(mpmath.findroot(g, bracket, solver="anderson"))
        return x, f(x)


ORACLE_N = (1.01, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0, 50.0, 200.0)
ORACLE_V = np.concatenate(
    [np.logspace(-300.0, math.log10(0.5), 31), 1.0 - np.logspace(-1.0, -9.0, 9)]
)


@pytest.mark.parametrize("n", ORACLE_N)
def test_profile_matches_mpmath_to_1e12_relative(n):
    res = profile_mcp(n, 1.0, ORACLE_V)
    for v, a, prof in zip(ORACLE_V, res.a, res.profile):
        a_ref, prof_ref = mp_root(n, v, a)
        assert abs(a - a_ref) <= 1e-12 * a_ref, (n, v)
        assert abs(prof - prof_ref) <= 1e-12 * prof_ref, (n, v)


def test_scalar_call_equals_its_array_element_bit_for_bit():
    base = np.concatenate([[0.0, 1e-300, 1e-8, 0.5, 1.0 - 1e-9, 1.0], np.linspace(0.05, 0.95, 7)])
    for n in (1.01, 2.0, 5.0, 30.0):
        # The volumes of the Newton start's table nodes a = k/256 (the first,
        # interior ones and a = 1/2), their mirror images, and the volume
        # just below the first node, where the two-term start takes over.
        nodes = eval_v(n, 1.0, np.array([1.0, 2.0, 37.0, 100.0, 128.0]) / 256.0)
        vs = np.concatenate([base, nodes, 1.0 - nodes, np.nextafter(nodes[:1], 0.0)])
        res = profile_mcp(n, 2.5, vs)
        for k, v in enumerate(vs):
            one = profile_mcp(n, 2.5, float(v))
            assert isinstance(one.profile, float)
            assert (one.a, one.profile) == (res.a[k], res.profile[k])


def benchmark_sweeps():
    """Sweeps of the shapes the profile benchmark runs: 150 log-spaced
    volumes from 1e-8 or 1e-6 to 0.3 or 0.5, and 151 evenly spaced ones
    from c to 1 - c."""
    for lo, hi in ((1e-8, 0.3), (1e-6, 0.5)):
        yield np.geomspace(lo, hi, 150)
    for c in (0.01, 0.05):
        yield np.linspace(c, 1.0 - c, 151)


def test_newton_start_leaves_at_most_four_steps(monkeypatch):
    # One _left_terms call builds the node table, one per Newton step, and
    # one takes f at the root: the start leaves at most four steps.
    import mcp_iso.profile as prof

    calls = []
    left_terms = prof._left_terms

    def counted(N, t):
        calls.append(N)
        return left_terms(N, t)

    monkeypatch.setattr(prof, "_left_terms", counted)
    inputs = [(n, v) for n in ORACLE_N for v in [ORACLE_V, *map(float, ORACLE_V)]]
    inputs += [(n, vs) for n in (1.5, 2.0, 3.0, 5.0, 10.0) for vs in benchmark_sweeps()]
    for n, v in inputs:
        calls.clear()
        profile_mcp(n, 1.0, v)
        assert len(calls) <= 1 + 4 + 1, (n, v)


def test_closed_forms_take_arrays():
    vs = np.array([[1e-12, 0.2], [0.5, 0.9]])
    for n in (1.5, 5.0):
        a = profile_mcp(n, 3.0, vs).a
        assert a.shape == vs.shape
        np.testing.assert_allclose(eval_v(n, 3.0, a), vs, rtol=1e-13)
        np.testing.assert_allclose(eval_f(n, 3.0, a), profile_mcp(n, 3.0, vs).profile, rtol=1e-12)


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


def test_cone_constants_match_mpmath():
    # The model cone h = N omega_N avr x^(N-1): log omega_N, its coefficient,
    # the radius of its ball of a given mass, and both bounds, against 50-digit
    # mpmath.  Gamma(N/2 + 1) overflows past N ~ 341 and omega_N underflows
    # past N ~ 450, so from there on log omega_N stands for omega_N and the
    # coefficient is left out.
    def rel(got, want):
        return abs(mpmath.mpf(got) - want) / abs(want)

    worst = dict.fromkeys(("log_omega", "coefficient", "radius", "bound", "cd_bound"), 0.0)

    def record(name, got, want):
        worst[name] = max(worst[name], rel(got, want))

    with mpmath.workdps(50):
        for n in (1.01, 1.5, 2.0, 3.0, 5.0, 10.0, 50.0, 200.0, 340.0, 345.0, 400.0, 1e3, 1e4):
            nm = mpmath.mpf(n)
            log_omega = nm / 2 * mpmath.log(mpmath.pi) - mpmath.loggamma(nm / 2 + 1)
            record("log_omega", log_unit_ball_volume(n), log_omega)
            for avr in (1e-8, 3.7e-3, 1.0, 42.0, 1e8):
                coefficient = nm * mpmath.exp(log_omega) * mpmath.mpf(avr)
                if n <= 340.0:
                    record("coefficient", math.exp(log_cone_coefficient(n, avr)), coefficient)
                for mass in (1e-8, 0.25, 1.0, 6.1e3, 1e8):
                    mm = mpmath.mpf(mass)
                    bound = coefficient ** (1 / nm) * mm ** ((nm - 1) / nm)
                    record("radius", cone_radius(n, avr, mass), (mm / coefficient) ** (1 / nm))
                    record("bound", avr_lower_bound(n, avr, mass), bound)
                    record("cd_bound", cd_lower_bound(n, avr, mass), nm ** ((nm - 1) / nm) * bound)
    assert max(worst.values()) <= 1e-13, worst
