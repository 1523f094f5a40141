"""minimal_mcp_dimension against a plain bisection over the same ratio check."""

import math
from typing import Optional

import numpy as np
import pytest

from mcp_iso import (
    ConstantDensity,
    MonomialDensity,
    PiecewiseMonomialDensity,
    SharpDensity,
    TabulatedDensity,
)
from mcp_iso import density
from mcp_iso.density import (
    _BISECT_WIDTH,
    _RATIO_RTOL,
    _ratio_check,
    _sampled_witness,
    _secant_guess,
    minimal_mcp_dimension,
)

INF = math.inf
# The two checks at guess * (1 -+ 1e-11), the ~7 midpoints the bisection
# scans inside that bracket and a few steps of slack (n_lo and n_hi are
# checked only when the bracket leaves them open); a bisection from
# [1.01, 30] down to 1e-12 takes ~47 checks.
MAX_CHECKS = 12
# The same when the first bracket misses and the guess * (1 -+ 1e-8) rung
# holds the answer: ~16 midpoints inside it.
MAX_CHECKS_ON_A_MISS = 24


def reference_minimal_dimension(h, D, n_lo, n_hi, grid_points) -> Optional[float]:
    """Bisection from [n_lo, n_hi] with a scan at every midpoint."""
    check = _ratio_check(h, D, grid_points)[0]
    if not check(n_hi).passed:
        return None
    if check(n_lo).passed:
        return float(n_lo)
    lo, hi = float(n_lo), float(n_hi)
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if check(mid).passed:
            hi = mid
        else:
            lo = mid
    return hi


def _pieces(breaks, exponents):
    """A continuous piecewise monomial density starting at x^p0."""
    pieces = [(1.0, exponents[0])]
    for b, p in zip(breaks, exponents[1:]):
        c0, p0 = pieces[-1]
        pieces.append((c0 * b ** p0 / b ** p, p))
    return PiecewiseMonomialDensity(tuple(breaks), tuple(pieces))


def _corpus(rng):
    """(h, D, grid_points) over every family, 64 of each kind."""
    for _ in range(64):
        nb = int(rng.integers(1, 3))
        breaks = tuple(np.sort(rng.uniform(0.2, 2.5, nb)).tolist())
        exps = [float(rng.uniform(0.0, 3.0))] + rng.uniform(-1.5, 3.0, nb).tolist()
        h = _pieces(breaks, exps)
        yield h, float(rng.uniform(breaks[-1] + 0.1, 4.0)), 128
        yield h, INF, 128

        D = float(rng.uniform(1.0, 4.0))
        grid = np.linspace(0.0, D, int(rng.integers(3, 40)))
        values = rng.uniform(0.1, 3.0, grid.size)
        values[[0, -1]] = 0.0
        yield TabulatedDensity(tuple(grid), tuple(values)), D, 128

        D, freq = float(rng.uniform(1.0, 4.0)), float(rng.uniform(0.3, 2.0))
        grid = np.linspace(0.0, D, 80)
        bump = 1.0 + 0.5 * np.cos(2.0 * math.pi * freq * grid / D)
        yield TabulatedDensity(tuple(grid), tuple(bump)), D, 128

        D = INF if rng.random() < 0.5 else float(rng.uniform(0.5, 4.0))
        yield MonomialDensity(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 5.0))), D, 64
        yield ConstantDensity(float(rng.uniform(0.5, 2.0))), D, 64
        avr, mass = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.5, 2.0))
        yield SharpDensity(avr, mass, float(rng.uniform(1.1, 8.0))), D, 64
        yield _pieces((1.0,), [float(rng.uniform(0.0, 4.0)), 0.5]), INF, 128


def test_matches_plain_bisection_on_a_seeded_corpus():
    rng = np.random.default_rng(20261018)
    cases = list(_corpus(rng))
    assert len(cases) >= 500
    kinds = set()
    for h, D, grid_points in cases:
        expected = reference_minimal_dimension(h, D, 1.01, 30.0, grid_points)
        found = minimal_mcp_dimension(h, D, 1.01, 30.0, grid_points)
        assert repr(found) == repr(expected), (h, D)
        kinds.add("none" if found is None else "n_lo" if found == 1.01 else "bisected")
    assert kinds == {"none", "n_lo", "bisected"}


def test_none_and_lower_end_results():
    # x^2 on [0, 3] needs N = 3: above n_hi, at n_lo and inside [n_lo, n_hi].
    h = _pieces((1.0,), [2.0, 2.0])
    for n_lo, n_hi in ((1.5, 2.5), (3.5, 10.0), (1.01, 30.0)):
        expected = reference_minimal_dimension(h, 3.0, n_lo, n_hi, 256)
        assert repr(minimal_mcp_dimension(h, 3.0, n_lo, n_hi, 256)) == repr(expected)
    assert minimal_mcp_dimension(h, 3.0, 1.5, 2.5, 256) is None
    assert minimal_mcp_dimension(h, 3.0, 3.5, 10.0, 256) == 3.5


def _exp_table(end, lam):
    grid = np.linspace(0.1, end, 160)
    return TabulatedDensity(tuple(grid), tuple(np.exp(lam * grid)))


def _workload_shapes():
    """The seven densities of the density-check benchmark at their nominal
    parameters, with their sample counts, and the one whose merged table
    knots leave a dust gap in the samples."""
    D = 3.0
    grid = np.linspace(0.0, D, 160)
    hump = grid ** 0.8 * (D - grid) ** 0.9
    hump[-1] = 0.0
    bump = 1.0 + 0.5 * np.cos(2.0 * math.pi * grid / D)
    return {
        "pw-bounded-pass": (_pieces((1.35,), [1.5, 0.6]), D, 384),
        "pw-bounded-tail": (_pieces((1.5,), [1.0, -1.0]), D, 384),
        "pw-halfline-pass": (_pieces((1.2,), [1.5, 0.6]), INF, 384),
        "pw-bounded-fail": (_pieces((1.35,), [2.0, 0.8]), D, 384),
        "tab-bounded-pass": (TabulatedDensity(tuple(grid), tuple(hump)), D, 256),
        "tab-bounded-fail": (TabulatedDensity(tuple(grid), tuple(bump)), D, 256),
        "tab-halfline-fail": (_exp_table(3.0, 1.25), INF, 256),
        "tab-halfline-dust": (_exp_table(2.94392427045866, 1.287038242951649), INF, 256),
    }


@pytest.fixture
def checked(monkeypatch):
    """The N of each check (one O(n) scan of each sample set) made through
    density._ratio_check, in order."""
    calls = []

    def counted_ratio_check(*args):
        check, samples = _ratio_check(*args)

        def counted(N):
            calls.append(N)
            return check(N)

        return counted, samples

    monkeypatch.setattr(density, "_ratio_check", counted_ratio_check)
    return calls


@pytest.mark.parametrize("name", list(_workload_shapes()))
def test_guess_saves_scans_on_the_benchmark_shapes(name, checked):
    h, D, grid_points = _workload_shapes()[name]
    expected = reference_minimal_dimension(h, D, 1.01, 30.0, grid_points)
    checked.clear()
    found = minimal_mcp_dimension(h, D, 1.01, 30.0, grid_points)
    assert repr(found) == repr(expected)
    assert len(checked) <= MAX_CHECKS


@pytest.mark.parametrize("name", list(_workload_shapes()))
def test_true_guess_checks_neither_end(name, checked):
    # The bracket around the guess holds a failed and a passed N, which
    # decide n_lo and n_hi by upward closure.
    h, D, grid_points = _workload_shapes()[name]
    minimal_mcp_dimension(h, D, 1.01, 30.0, grid_points)
    assert checked and 1.01 not in checked and 30.0 not in checked


def test_dust_gaps_do_not_steer_the_guess():
    # np.unique keeps a sample and a table knot an ulp apart; their secant
    # is rounding noise (here it put the guess at 5.0 against ~4.7974).
    h, D, grid_points = _workload_shapes()["tab-halfline-dust"]
    samples = _ratio_check(h, D, grid_points)[1]
    assert np.diff(np.log(samples[0][0])).min() < 1e-12
    found = minimal_mcp_dimension(h, D, 1.01, 30.0, grid_points)
    assert _secant_guess(samples, D) == pytest.approx(found, rel=1e-11)


@pytest.mark.parametrize("name", list(_workload_shapes()))
def test_a_missed_first_bracket_keeps_the_result(name, checked, monkeypatch):
    # Off by -+1e-9 the guess leaves the 1e-11 bracket and the 1e-8 rung
    # holds the answer; at n_hi both rungs miss and the bisection scans on.
    h, D, grid_points = _workload_shapes()[name]
    expected = reference_minimal_dimension(h, D, 1.01, 30.0, grid_points)
    guess = _secant_guess(_ratio_check(h, D, grid_points)[1], D)
    for wrong, budget in (
        (guess * (1.0 - 1e-9), MAX_CHECKS_ON_A_MISS),
        (guess * (1.0 + 1e-9), MAX_CHECKS_ON_A_MISS),
        (30.0, INF),
    ):
        monkeypatch.setattr(density, "_secant_guess", lambda samples, D: wrong)
        checked.clear()
        assert repr(minimal_mcp_dimension(h, D, 1.01, 30.0, grid_points)) == repr(expected)
        assert len(checked) <= budget


def test_guess_keeps_the_mean_scan_count_low(checked):
    # ~7.8 checks per call here (~9.2 when both ends were always checked);
    # the +-1e-8 bracket alone, around a guess that ignores _RATIO_RTOL,
    # took ~16.4.
    cases = list(_corpus(np.random.default_rng(20261018)))
    checked.clear()
    for h, D, grid_points in cases:
        minimal_mcp_dimension(h, D, 1.01, 30.0, grid_points)
    assert len(checked) / len(cases) <= 8.5


def test_prepared_scans_match_fresh_ones_in_any_order_of_n():
    # Each sample set is prepared once and scanned at many N, up and down,
    # reusing its buffers; a scan prepared afresh at each N must agree.
    rng = np.random.default_rng(20261019)
    ns = rng.permutation(np.concatenate([np.geomspace(1.01, 30.0, 20), [2.0, 3.0, 2.0, 1.01]]))
    kinds, passed = set(), set()
    for h, D, grid_points in _corpus(np.random.default_rng(20261018)):
        check, samples = _ratio_check(h, D, grid_points)
        for xs, _ in samples:
            kinds.add("bounded" if D < INF else "half-line" if len(xs) > 2 else "tail pair")
        for N in ns:
            verdict = check(N)
            fresh = (_sampled_witness(xs, hv, D, N, _RATIO_RTOL) for xs, hv in samples)
            witness = next((w for w in fresh if w is not None), None)
            assert repr(verdict.witness) == repr(witness), (h, D, N)
            passed.add(verdict.passed)
    assert kinds == {"bounded", "half-line", "tail pair"}
    assert passed == {True, False}
