"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; `-v` alone shows the same information through the test outcomes.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from mcp_iso import (
    ConstantDensity,
    MonomialDensity,
    PiecewiseMonomialDensity,
    RadialModel,
    SearchConfig,
    TabulatedDensity,
    WeightedInterval,
    avr,
    avr_lower_bound,
    bishop_gromov_check,
    certify_bound,
    check_mcp_density,
    dimension_reduction_chain,
    eval_f,
    eval_v,
    expansion_leading_coefficient,
    minimal_mcp_dimension,
    minkowski_content,
    minkowski_content_estimator,
    profile_mcp,
    sharp_space,
    unit_ball_volume,
    verify_disintegration,
    verify_sharpness,
)

INF = math.inf


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")


def quadrature_f(n, d, x):
    with mpmath.workdps(50):
        n, d, x = mpmath.mpf(n), mpmath.mpf(d), mpmath.mpf(x)
        first = mpmath.quad(lambda y: ((d - y) / (d - x)) ** (n - 1), [0, x])
        second = mpmath.quad(lambda y: (y / x) ** (n - 1), [x, d])
        return float(1 / (first + second))


def test_criterion_1_profile_golden_values():
    t0 = time.perf_counter()
    ok = abs(profile_mcp(2.0, 1.0, 0.5).profile - 2.0 / 3.0) <= 1e-10
    ok &= abs(eval_v(2.0, 1.0, 0.5) - 0.5) <= 1e-12
    points = [
        (n, d, frac * d)
        for n in (1.5, 2.0, 2.5, 3.0, 5.0)
        for d in (0.5, 1.0, 2.0, 5.0, 10.0)
        for frac in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    ]
    closed = [eval_f(n, d, x) for n, d, x in points]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    # The 50-digit oracle takes about a second by itself, so it runs after
    # the timed closed forms.
    worst = 0.0
    for (n, d, x), value in zip(points, closed):
        oracle = quadrature_f(n, d, x)
        worst = max(worst, abs(value - oracle) / abs(oracle))
    ok &= worst <= 1e-10
    report("criterion 1: profile golden values", ok,
           f"worst quadrature deviation {worst:.2e}, {elapsed:.2f}s")
    assert ok


# profile_mcp(5, 1, 1e-8) from the closed forms of f and v at 50 digits:
# mpmath.findroot on v(a) - 1e-8 started at a0 = (1e-8/5)^(1/5), mp.dps = 50.
PROFILE_N5_V1E8 = 5.33342019079987381566562992036e-7


@pytest.mark.parametrize("n", [1.5, 2.0, 3.0, 5.0])
def test_criterion_2_small_volume_expansion(n):
    # With a0 = (v/N)^(1/N) on the unit diameter, v(a) = N a^N (1 + (N-1)a/2
    # + O(a^min(2,N))) and f(a) = N a^(N-1) (1 + O(a^N)), so inverting gives
    # ratio = N^(1/N) (1 - c1 a0 + O(a0^min(2,N))) with c1 = (N-1)^2/(2N).
    # The c1 a0 term decays only like v^(1/N): 2.9% at N = 5, v = 1e-8.
    v = 1e-8
    profile = profile_mcp(n, 1.0, v).profile
    ratio = profile / v ** ((n - 1.0) / n)
    lead = expansion_leading_coefficient(n)
    remainder = (n - 1.0) ** 2 / (2.0 * n) * (v / n) ** (1.0 / n)
    two_term = lead * (1.0 - remainder)
    deviation = abs(ratio - two_term) / lead
    ok = deviation <= 1e-2
    report(f"criterion 2: expansion at v=1e-8, N={n}", ok,
           f"leading-term deviation {abs(ratio - lead) / lead:.2e}, "
           f"predicted c1*a0 {remainder:.2e}, two-term deviation {deviation:.2e}")
    assert ok, (
        f"profile ratio {ratio:.10f} vs two-term expansion {two_term:.10f}: "
        f"relative deviation {deviation:.3e} exceeds 1e-2"
    )
    if n == 5.0:
        assert profile == pytest.approx(PROFILE_N5_V1E8, rel=1e-9, abs=0.0)


def test_criterion_2_runtime():
    t0 = time.perf_counter()
    for n in (1.5, 2.0, 3.0, 5.0):
        profile_mcp(n, 1.0, 1e-8)
    elapsed = time.perf_counter() - t0
    report("criterion 2: runtime", elapsed < 1.0, f"{elapsed:.3f}s")
    assert elapsed < 1.0


def test_criterion_3_scaling_relation():
    worst = math.inf
    for n in (1.5, 2.0, 3.0, 5.0):
        for d in (0.5, 1.0, 2.0, 10.0):
            for k in range(1, 21):
                v = k / 21.0
                lhs = d * profile_mcp(n, d, v).profile
                rhs = profile_mcp(n, 1.0, v).profile
                worst = min(worst, lhs - rhs)
    ok = worst >= -1e-9
    report("criterion 3: diameter scaling relation", ok, f"worst slack {worst:.2e}")
    assert ok


def test_criterion_4_sharpness_grid():
    ok = True
    detail = []
    avrs = (1.0 / (2.0 * math.pi), 0.1, 5.0)
    masses = (0.5, 1.0, 10.0)
    dims = (1.5, 2.0, 3.0, 5.0)
    for a in avrs:
        for v in masses:
            for n in dims:
                gap = verify_sharpness(a, v, n)
                if abs(gap) > 1e-10:
                    ok = False
                    detail.append(f"gap {gap:.2e} at ({a}, {v}, {n})")
                space, _ = sharp_space(a, v, n)
                if check_mcp_density(space.h, INF, n).status != "pass_exact":
                    ok = False
                    detail.append(f"density check failed at ({a}, {v}, {n})")
                value, certified = avr(space, n)
                if not certified or abs(value - a) > 1e-12 * max(1.0, a):
                    ok = False
                    detail.append(f"avr {value} != {a}")
    report("criterion 4: sharp space grid", ok, "; ".join(detail[:3]))
    assert ok


def test_criterion_5_density_suite():
    ok = True
    details = []
    for n in (1.5, 2.0, 3.0):
        h = MonomialDensity(1.0, n - 1.0)
        if not check_mcp_density(h, INF, n).passed:
            ok, _ = False, details.append(f"x^{n-1} rejected at N={n}")
        if not check_mcp_density(h, INF, n + 0.7).passed:
            ok, _ = False, details.append(f"x^{n-1} rejected at N={n + 0.7}")
        if check_mcp_density(h, INF, n - 0.01).passed:
            ok, _ = False, details.append(f"x^{n-1} accepted at N={n}-0.01")
    for p in (0.5, 1.0, 2.0, 4.0):
        n_star = minimal_mcp_dimension(MonomialDensity(1.0, p), INF, 1.0001, 10.0)
        if n_star is None or abs(n_star - (p + 1.0)) > 1e-6:
            ok = False
            details.append(f"minimal dimension of x^{p}: {n_star}")
    grid = np.linspace(0.1, 3.0, 100)
    tab = TabulatedDensity(tuple(grid), tuple(np.exp(grid)))
    verdict = check_mcp_density(tab, INF, 2.0)
    if verdict.status != "fail" or verdict.witness is None:
        ok = False
        details.append("tabulated e^x did not fail with a witness")
    elif not verdict.witness.lhs > verdict.witness.rhs:
        ok = False
        details.append("witness does not violate the bound")
    report("criterion 5: density suite", ok, "; ".join(details[:3]))
    assert ok


def test_criterion_6_main_inequality_certification():
    t0 = time.perf_counter()
    cfg = SearchConfig(
        target_volume=0.0, volume_tolerance=1e-9, grid_points=512, max_components=2
    )
    ok = True
    details = []

    sharp_cases = [(1.0 / (2.0 * math.pi), 1.0, 2.0), (0.5, 2.0, 3.0)]
    for a, mass, n in sharp_cases:
        space, _ = sharp_space(a, mass, n)
        volumes = [mass * k / 5.0 for k in range(1, 11)]  # includes v = mass
        rep = certify_bound(space, n, a, volumes, cfg)
        if not rep.passed:
            ok = False
            details.append(f"sharp ({a:.3f},{mass},{n}) margins below -slack")
        at_design = next(row for row in rep.rows if row.v == mass)
        if abs(at_design.margin) > 2.0 * at_design.slack:
            ok = False
            details.append(
                f"designed-volume margin {at_design.margin:.3e} > 2x slack "
                f"{at_design.slack:.3e}"
            )

    n = 2.0
    cone = WeightedInterval(INF, MonomialDensity(n * unit_ball_volume(n), n - 1.0))
    volumes = [0.2 * k for k in range(1, 11)]
    rep = certify_bound(cone, n, 1.0, volumes, cfg)
    if not rep.passed:
        ok = False
        details.append("euclidean cone margins below -slack")

    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        ok = False
        details.append(f"runtime {elapsed:.1f}s")
    report("criterion 6: brute-force certification", ok,
           "; ".join(details[:3]) or f"{elapsed:.1f}s")
    assert ok


def test_criterion_7_localization_chain():
    model = RadialModel(2.0 * math.pi, MonomialDensity(1.0, 1.0), 2.0, INF)
    ok = True
    details = []
    for big_r in (8.0, 40.0, 400.0):
        residual = verify_disintegration(model, 1.0, big_r)
        if residual > 1e-9:
            ok = False
            details.append(f"residual {residual:.2e} at R={big_r}")
        rep = dimension_reduction_chain(model, 1.0, big_r)
        if not rep.ordered():
            ok = False
            details.append(f"chain out of order at R={big_r}")
    rep = dimension_reduction_chain(model, 1.0, 400.0)
    limit = avr_lower_bound(2.0, 1.0, math.pi)
    if abs(rep.scaled_profile_bound - limit) > 0.02 * limit:
        ok = False
        details.append(f"scaled bound {rep.scaled_profile_bound:.4f} vs {limit:.4f}")
    if not (abs(rep.m_plus - 2.0 * math.pi) <= 1e-12 and rep.m_plus > limit):
        ok = False
        details.append("boundary term does not dominate the limit bound")
    report("criterion 7: localization chain", ok, "; ".join(details[:3]))
    assert ok


def test_criterion_8_volume_ratio_monotonicity():
    radii = [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    corpus = [
        (WeightedInterval(INF, MonomialDensity(1.0, 0.5)), 1.5),
        (WeightedInterval(INF, MonomialDensity(1.0, 1.0)), 2.0),
        (WeightedInterval(INF, MonomialDensity(3.0, 2.0)), 3.0),
        (WeightedInterval(INF, ConstantDensity(1.0)), 2.0),
        (sharp_space(0.2, 1.0, 2.0)[0], 2.0),
        (sharp_space(1.0, 0.5, 3.0)[0], 3.0),
        (
            WeightedInterval(
                INF, PiecewiseMonomialDensity((1.0,), ((1.0, 0.0), (1.0, 1.0)))
            ),
            2.0,
        ),
    ]
    ok = True
    details = []
    for space, n in corpus:
        assert check_mcp_density(space.h, INF, n).passed
        verdict = bishop_gromov_check(space, n, radii)
        if not verdict.passed:
            ok = False
            details.append(f"monotonicity failed for {space.h.kind} at N={n}")
    grid = np.linspace(0.0, 3.2, 400)
    exp_space = WeightedInterval(3.2, TabulatedDensity(tuple(grid), tuple(np.exp(grid))))
    verdict = bishop_gromov_check(exp_space, 2.0, radii)
    if verdict.status != "fail":
        ok = False
        details.append("e^x unexpectedly passed")
    report("criterion 8: volume-ratio monotonicity", ok, "; ".join(details[:3]))
    assert ok


def test_criterion_9_content_oracle_consistency():
    from test_space import random_corpus

    worst = 0.0
    for space, subset in random_corpus(100):
        exact = minkowski_content(space, subset)
        estimate, _ = minkowski_content_estimator(space, subset)
        worst = max(worst, abs(exact - estimate))
    ok = worst <= 1e-6
    report("criterion 9: content estimator consistency", ok, f"worst gap {worst:.2e}")
    assert ok
