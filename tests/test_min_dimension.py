"""minimal_mcp_dimension against a plain bisection over the same ratio check."""

import itertools
import math
from typing import Optional

import numpy as np
import pytest

from mcp_iso import (
    ConstantDensity,
    DomainError,
    MonomialDensity,
    PiecewiseMonomialDensity,
    SharpDensity,
    TabulatedDensity,
)
from mcp_iso import density
from mcp_iso.density import (
    _BISECT_WIDTH,
    _GUESS_LEVELS,
    _bisection_path,
    _RATIO_RTOL,
    _ratio_check,
    _sampled_witness,
    _secant_guess,
    minimal_mcp_dimension,
)

INF = math.inf
# The two ends of the cell 3 levels above the last of the bisection path
# replayed from the guess (8 final cells wide), the 3 midpoints the
# bisection scans inside it and a few checks of slack for a guess near that
# cell's edge (n_lo and n_hi are checked only when the cells leave them
# open); a bisection from [1.01, 30] down to 1e-12 takes ~47 checks.
MAX_CHECKS = 8
# The same when the guess is thousands of cells off and the cell 17 levels
# up holds the answer: ~17 midpoints inside it, fewer where the missed
# cells left known ends inside it.
MAX_CHECKS_ON_A_MISS = 24


def reference_minimal_dimension(h, D, n_lo, n_hi, grid_points) -> Optional[float]:
    """Bisection from [n_lo, n_hi] with a scan at every midpoint."""
    return _plain_bisection(_ratio_check(h, D, grid_points)[0], n_lo, n_hi)


def _plain_bisection(check, n_lo, n_hi) -> Optional[float]:
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


def test_matches_plain_bisection_on_ranges_that_end_near_the_answer():
    # n_lo and n_hi within delta of the answer r on [1.01, 30], on either
    # side: the checks of the ends that the replayed cells leave open decide
    # the result, and it must still be the plain bisection's.
    cases = list(itertools.islice(_corpus(np.random.default_rng(20261020)), 32))
    cases += _workload_shapes().values()
    ranges = 0
    for h, D, grid_points in cases:
        r = minimal_mcp_dimension(h, D, 1.01, 30.0, grid_points)
        if r is None or r == 1.01:
            continue
        check = _ratio_check(h, D, grid_points)[0]
        for delta in (1e-12, 1e-9, 1e-6):
            for n_lo, n_hi in ((r - delta, r + 1.0), (r - 1.0, r + delta),
                               (r + delta, r + 2.0), (r - 2.0, r - delta)):
                n_lo = max(n_lo, 0.5 * (1.0 + r))
                found = minimal_mcp_dimension(h, D, n_lo, n_hi, grid_points)
                assert repr(found) == repr(_plain_bisection(check, n_lo, n_hi)), (h, D, n_lo, n_hi)
                ranges += 1
    assert ranges >= 300


def test_none_and_lower_end_results():
    # x^2 on [0, 3] needs N = 3: above n_hi, at n_lo and inside [n_lo, n_hi].
    h = _pieces((1.0,), [2.0, 2.0])
    for n_lo, n_hi in ((1.5, 2.5), (3.5, 10.0), (1.01, 30.0)):
        expected = reference_minimal_dimension(h, 3.0, n_lo, n_hi, 256)
        assert repr(minimal_mcp_dimension(h, 3.0, n_lo, n_hi, 256)) == repr(expected)
    assert minimal_mcp_dimension(h, 3.0, 1.5, 2.5, 256) is None
    assert minimal_mcp_dimension(h, 3.0, 3.5, 10.0, 256) == 3.5



def test_bisection_path_stops_at_neighbouring_floats():
    # Above N = 8192 neighbouring floats lie more than _BISECT_WIDTH apart,
    # so the path ends where the midpoint no longer moves.
    path = _bisection_path(1e4, 2e4, lambda n: n >= 15000.3)
    lo, hi = path[-1]
    assert hi - lo > _BISECT_WIDTH and math.nextafter(lo, INF) == hi
    assert lo < 15000.3 <= hi


def test_a_guess_above_8192_names_the_range_error():
    # The secant between the nodes 1 and 1.001 puts the guess at ~69114,
    # where x^(N-1) leaves the float range at x = 3: the replay from the
    # guess ends at neighbouring floats and the first check raises.
    h = TabulatedDensity((0.0, 1.0, 1.001, 3.0), (1.0, 1.0, 1e30, 1e30))
    with pytest.raises(DomainError, match=r"x\^\(N-1\) leaves the float range at N=6911"):
        minimal_mcp_dimension(h, 3.0, 1.01, 1e5)

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
    # The replayed cell around the guess holds a failed and a passed N,
    # which decide n_lo and n_hi by upward closure.
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
    # Off by -+1e-9 (~6000 cells) the guess leaves the cells 3 and 7 levels
    # up and the one 17 levels up holds the answer; at n_hi every cell
    # misses and the bisection scans on.
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


def _replayed_cell_ends(guess, n_lo, n_hi):
    """n_lo, n_hi and the ends of the cells _GUESS_LEVELS above the last of
    the bisection from [n_lo, n_hi] whose midpoints the guess decides."""
    lo, hi = n_lo, n_hi
    path = [(lo, hi)]
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if mid >= guess else (mid, hi)
        path.append((lo, hi))
    return {n_lo, n_hi}.union(*(path[max(len(path) - 1 - up, 0)] for up in _GUESS_LEVELS))


@pytest.mark.parametrize("name", list(_workload_shapes()))
def test_checks_before_the_bisection_are_replayed_cell_ends(name, checked, monkeypatch):
    # Each N checked is a cell end of the path replayed from the guess, or
    # n_lo or n_hi, until the bisection scans inside the bracket they leave;
    # off by -+1e-9 and outside [n_lo, n_hi] the guess takes the wider cells.
    h, D, grid_points = _workload_shapes()[name]
    check, samples = _ratio_check(h, D, grid_points)
    guess = _secant_guess(samples, D)
    for wrong in (guess, guess * (1.0 - 1e-9), guess * (1.0 + 1e-9), 1.0, 30.0, 40.0):
        monkeypatch.setattr(density, "_secant_guess", lambda samples, D: wrong)
        ends = _replayed_cell_ends(wrong, 1.01, 30.0)
        checked.clear()
        minimal_mcp_dimension(h, D, 1.01, 30.0, grid_points)
        first = next((k for k, n in enumerate(checked) if n not in ends), len(checked))
        outcomes = [(n, check(n).passed) for n in checked[:first]]
        failed = max([n for n, ok in outcomes if not ok], default=1.01)
        passed = min([n for n, ok in outcomes if ok], default=30.0)
        assert all(failed < n < passed for n in checked[first:]), (name, wrong)


def test_a_sampled_pass_set_gap_one_cell_wide_keeps_the_result(monkeypatch):
    # The sampled pass set of this density (the seed-8 pw-bounded-tail of
    # density-check) is not upward closed within one bisection cell: the
    # answer r passes, r + cell fails and r + 2 cells passes.  A check off
    # the bisection's own path, such as the end of a bracket relative to the
    # guess, can land in that gap; only cell ends of the path are checked,
    # so any guess within 80 cells gives r.
    h = PiecewiseMonomialDensity(
        (1.4975532367290025,),
        ((1.0, 0.9906406431523179), (2.2552637138486737, -1.0232307253867656)),
    )
    D = 2.9720210513880687
    check = _ratio_check(h, D, 384)[0]
    lo, hi = 1.01, 30.0
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if check(mid).passed else (mid, hi)
    r, cell = hi, hi - lo
    assert repr(r) == "2.00739136855181"
    assert [check(r + k * cell).passed for k in (0, 1, 2)] == [True, False, True]
    for k in range(-80, 81):
        monkeypatch.setattr(density, "_secant_guess", lambda samples, D: r + k * cell)
        assert repr(minimal_mcp_dimension(h, D, 1.01, 30.0, 384)) == repr(r), k


def test_guess_keeps_the_mean_scan_count_low(checked):
    # ~5.1 checks per call here; the plain bisection takes ~47.
    cases = list(_corpus(np.random.default_rng(20261018)))
    checked.clear()
    for h, D, grid_points in cases:
        minimal_mcp_dimension(h, D, 1.01, 30.0, grid_points)
    assert len(checked) / len(cases) <= 5.5


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
