"""Kernel tests: ball volumes, monotone inversion."""

import math

import pytest

from mcp_iso import (
    BracketError,
    DomainError,
    PreconditionError,
    Tolerance,
    gamma,
    invert_monotone,
    unit_ball_volume,
)

# Frozen from a 50-digit multi-precision evaluation of pi^(N/2)/Gamma(N/2+1).
OMEGA_2_5 = 3.691528656864961367
GAMMA_2_25 = 1.1330030963193463475


def test_unit_ball_volume_golden():
    assert unit_ball_volume(2.0) == pytest.approx(math.pi, rel=1e-13)
    assert unit_ball_volume(3.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13)
    assert unit_ball_volume(2.5) == pytest.approx(OMEGA_2_5, rel=1e-13)


def test_gamma_against_frozen_value():
    assert gamma(2.25) == pytest.approx(GAMMA_2_25, rel=1e-13)
    # Integer factorials are exact anchors.
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)
    # Half-integer anchor: Gamma(1/2) = sqrt(pi), exercised via recurrence.
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_unit_ball_volume_rejects_bad_dimension(bad):
    with pytest.raises(DomainError):
        unit_ball_volume(bad)


@pytest.mark.parametrize("n", range(3, 11))
def test_ball_volume_recurrence(n):
    # omega_N = omega_{N-2} * 2 pi / N
    assert unit_ball_volume(float(n)) == pytest.approx(
        unit_ball_volume(float(n - 2)) * 2.0 * math.pi / n, rel=1e-12
    )


def test_invert_monotone_identity_and_square():
    assert invert_monotone(lambda x: x, 0.3, 0.0, 1.0) == pytest.approx(0.3, abs=1e-12)
    assert invert_monotone(lambda x: x * x, 0.25, 0.0, 1.0) == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("g", [lambda x: x, lambda x: x * x, lambda x: -math.expm1(-x)])
@pytest.mark.parametrize("target_frac", [0.05, 0.3, 0.5, 0.77, 0.95])
def test_invert_monotone_roundtrip(g, target_frac):
    lo, hi = 0.0, 1.0
    target = g(lo) + target_frac * (g(hi) - g(lo))
    x = invert_monotone(g, target, lo, hi)
    assert g(x) == pytest.approx(target, abs=1e-11)


def test_invert_monotone_bracket_and_monotonicity_errors():
    with pytest.raises(BracketError):
        invert_monotone(lambda x: x, 2.0, 0.0, 1.0)
    with pytest.raises(PreconditionError):
        invert_monotone(lambda x: -x, 0.5, 0.0, 1.0)


def test_tolerance_validation():
    with pytest.raises(DomainError):
        Tolerance(abs_tol=0.0)
    with pytest.raises(DomainError):
        Tolerance(rel_tol=-1.0)
