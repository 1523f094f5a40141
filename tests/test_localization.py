"""Ray decomposition on symmetric models and the dimension-reduction chain."""

import math

import pytest

from mcp_iso import (
    ConstantDensity,
    DomainError,
    MonomialDensity,
    RadialModel,
    avr_lower_bound,
    check_mcp_density,
    dimension_reduction_chain,
    disintegrate_ball,
    model_from_dict,
)

TWO_PI = 2.0 * math.pi


def plane_model():
    return RadialModel(TWO_PI, MonomialDensity(1.0, 1.0), 2.0, math.inf)


def test_plane_decomposition_golden():
    needle, quotient_mass = disintegrate_ball(plane_model(), 1.0, 4.0)
    assert needle.D == 4.0
    # normalized ray density is 2 t / R^2 on [0, R]
    assert needle.h(2.0) == pytest.approx(0.25, rel=1e-13)
    assert quotient_mass == pytest.approx(16.0 * math.pi, rel=1e-13)
    per_ray = needle.h.integral(0.0, 1.0)
    assert per_ray == pytest.approx(1.0 / 16.0, rel=1e-13)


def test_uniform_weight_gives_uniform_needle():
    model = RadialModel(1.0, ConstantDensity(1.0), 2.0, math.inf)
    needle, quotient_mass = disintegrate_ball(model, 0.5, 4.0)
    assert needle.h(1.0) == pytest.approx(0.25, rel=1e-13)
    assert needle.h.integral(0.0, 0.5) == pytest.approx(
        0.5 / 4.0, rel=1e-13
    )
    assert quotient_mass == pytest.approx(4.0, rel=1e-13)


CORPUS_P = [0.5, 1.0, 2.0]
CORPUS_THETA = [1.0, TWO_PI]
CORPUS_RADII = [(0.5, 2.0), (1.0, 8.0), (2.0, 50.0)]


def corpus_model(p, theta):
    return RadialModel(theta, MonomialDensity(1.0, p), p + 1.0001, math.inf)


def over_model_corpus(test):
    for name, values in (("radii", CORPUS_RADII), ("theta", CORPUS_THETA), ("p", CORPUS_P)):
        test = pytest.mark.parametrize(name, values)(test)
    return test


@over_model_corpus
def test_disintegration_residual_on_model_corpus(p, theta, radii):
    r, big_r = radii
    assert dimension_reduction_chain(corpus_model(p, theta), r, big_r).residual <= 1e-9


@over_model_corpus
def test_residual_is_the_decomposition_defect(p, theta, radii):
    model = corpus_model(p, theta)
    r, big_r = radii
    needle, quotient_mass = disintegrate_ball(model, r, big_r)
    defect = abs(model.ball_mass(r) - quotient_mass * needle.h.integral(0.0, r))
    assert dimension_reduction_chain(model, r, big_r).residual == defect


def test_preconditions():
    model = plane_model()
    with pytest.raises(DomainError, match="decomposition requires r <= R/4"):
        disintegrate_ball(model, 2.0, 4.0)
    bounded = RadialModel(1.0, ConstantDensity(1.0), 2.0, 10.0)
    with pytest.raises(DomainError, match="R=12.0 exceeds the ray length 10.0"):
        disintegrate_ball(bounded, 1.0, 12.0)
    with pytest.raises(DomainError):
        disintegrate_ball(model, 1.0, math.inf)
    with pytest.raises(DomainError):
        RadialModel(0.0, ConstantDensity(1.0), 2.0, 10.0)  # theta <= 0
    with pytest.raises(DomainError, match="theta must be positive and finite"):
        RadialModel(math.inf, ConstantDensity(1.0), 2.0, 10.0)
    with pytest.raises(DomainError):
        RadialModel(1.0, ConstantDensity(1.0), 2.0, 0.0)  # ray_length <= 0


def test_model_requires_admissible_weight():
    with pytest.raises(DomainError):
        RadialModel(1.0, MonomialDensity(1.0, 2.0), 2.0, math.inf)  # p > N-1


def test_needle_mass_invariant():
    for p in CORPUS_P:
        for theta in CORPUS_THETA:
            for r, big_r in CORPUS_RADII:
                needle, _ = disintegrate_ball(corpus_model(p, theta), r, big_r)
                assert abs(needle.h.integral(0.0, big_r) - 1.0) <= 1e-10


def test_needles_inherit_the_density_bounds():
    for p, theta in ((0.5, 1.0), (1.0, TWO_PI), (2.0, 2.0)):
        model = RadialModel(theta, MonomialDensity(1.0, p), p + 1.0, math.inf)
        needle, _ = disintegrate_ball(model, 1.0, 8.0)
        verdict = check_mcp_density(needle.h, needle.D, model.N)
        assert verdict.passed


# Frozen from a 40-digit evaluation of the chain on the plane model (r = 1).
PLANE_SCALED = {8.0: 3.458615751, 40.0: 4.211826089, 400.0: 4.418817107}


@pytest.mark.parametrize("big_r", [8.0, 40.0, 400.0])
def test_plane_chain_values(big_r):
    report = dimension_reduction_chain(plane_model(), 1.0, big_r)
    assert report.m_plus == pytest.approx(TWO_PI, rel=1e-13)
    assert report.needle_integral == pytest.approx(TWO_PI, rel=1e-13)
    assert report.scaled_profile_bound == pytest.approx(
        PLANE_SCALED[big_r], rel=1e-8
    )
    assert report.avr_bound == pytest.approx(math.sqrt(2.0) * math.pi, rel=1e-12)
    assert report.avr_value == pytest.approx(1.0, rel=1e-12)
    assert report.ordered()


def test_chain_slack_grows_with_the_values():
    # m_plus - needle_integral is -5.8e-11 here, rounding of values near 3.1e5.
    report = dimension_reduction_chain(plane_model(), 5e4, 2e5)
    assert report.m_plus == pytest.approx(1e5 * math.pi, rel=1e-13)
    assert report.ordered()


def test_plane_chain_approaches_limit_bound():
    reports = [dimension_reduction_chain(plane_model(), 1.0, R) for R in (8.0, 40.0, 400.0)]
    scaled = [r.scaled_profile_bound for r in reports]
    assert scaled[0] < scaled[1] < scaled[2]
    limit = avr_lower_bound(2.0, 1.0, math.pi)
    assert all(s <= limit for s in scaled)
    assert scaled[-1] == pytest.approx(limit, rel=0.02)
    # the exact boundary term strictly beats the limit bound (by N^((N-1)/N))
    assert reports[-1].m_plus > limit


def test_flat_model_chain_is_trivially_ordered():
    model = RadialModel(1.0, ConstantDensity(1.0), 2.0, math.inf)
    report = dimension_reduction_chain(model, 1.0, 8.0)
    assert report.avr_bound == 0.0
    assert report.avr_value == 0.0
    assert report.ordered()
    assert report.m_plus >= report.needle_integral >= report.scaled_profile_bound


def test_truncation_respects_diameter_bound():
    needle, _ = disintegrate_ball(plane_model(), 1.0, 8.0)
    assert needle.D == 8.0 <= 8.0 + 2.0


def test_model_json_round_trip():
    descriptor = {"theta": TWO_PI, "weight": {"type": "monomial", "c": 1.0, "p": 1.0},
                  "N": 2.0, "ray_length": "inf"}
    assert model_from_dict(descriptor) == plane_model()
    with pytest.raises(DomainError):
        model_from_dict({"theta": 1.0})
