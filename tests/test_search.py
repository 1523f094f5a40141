"""Brute-force search: enumeration, tie-breaking, certification."""

import math

import numpy as np
import pytest

from mcp_iso import (
    ConstantDensity,
    DomainError,
    InfeasibleSearchError,
    IntervalUnion,
    MonomialDensity,
    PiecewiseMonomialDensity,
    SearchConfig,
    SharpDensity,
    TabulatedDensity,
    WeightedInterval,
    avr_lower_bound,
    brute_force_profile,
    certify_bound,
    sharp_space,
    unit_ball_volume,
)
from mcp_iso.search import _grid_and_measures


def unit_space():
    return WeightedInterval(1.0, ConstantDensity(1.0))


def test_uniform_single_interval():
    cfg = SearchConfig(target_volume=0.3, volume_tolerance=0.002, grid_points=512)
    out = brute_force_profile(unit_space(), cfg)
    (s, t), = out.best_set.components
    assert s == 0.0
    assert t == pytest.approx(0.3, abs=0.002)
    assert out.content == pytest.approx(1.0)
    assert out.sets_examined > 0


def test_tie_breaking_prefers_left_anchored_set():
    # [0, 0.3] and [0.7, 1] both have content 1; the lexicographically
    # smaller endpoint list must win regardless of enumeration internals.
    cfg = SearchConfig(target_volume=0.3, volume_tolerance=0.002, grid_points=512)
    out = brute_force_profile(unit_space(), cfg)
    assert out.best_set.components[0][0] == 0.0


def test_zero_volume_returns_empty_set():
    cfg = SearchConfig(target_volume=0.0, volume_tolerance=1e-6, grid_points=64)
    out = brute_force_profile(unit_space(), cfg)
    assert out.best_set == IntervalUnion.empty()
    assert out.content == 0.0


def test_sharp_space_attains_bound_with_two_components_allowed():
    a, mass, n = 1.0 / (2.0 * math.pi), 1.0, 2.0
    space, extremal = sharp_space(a, mass, n)
    cfg = SearchConfig(
        target_volume=mass, volume_tolerance=0.01, grid_points=512, max_components=2
    )
    out = brute_force_profile(space, cfg)
    bound = avr_lower_bound(n, a, mass)
    assert out.content == pytest.approx(bound, abs=0.02)
    (s, t), = out.best_set.components
    assert s == 0.0
    assert t == pytest.approx(space.h.x_star, abs=0.02)


def test_two_component_optimum_is_found():
    # Cheap unit plateaus at both ends, steep symmetric wall (x^6 up, x^-6
    # down) between: the best volume-2 set is [0,1] union [4,5].  Anchored
    # single intervals must reach into the wall and pay h > 2.
    h = PiecewiseMonomialDensity(
        (1.0, 2.0, 4.0),
        ((1.0, 0.0), (1.0, 6.0), (4096.0, -6.0), (1.0, 0.0)),
    )
    space = WeightedInterval(5.0, h)
    cfg = SearchConfig(
        target_volume=2.0, volume_tolerance=0.02, grid_points=256, max_components=2
    )
    out = brute_force_profile(space, cfg)
    assert len(out.best_set.components) == 2
    (s1, t1), (s2, t2) = out.best_set.components
    assert s1 == 0.0
    assert t1 == pytest.approx(1.0, abs=0.05)
    assert s2 == pytest.approx(4.0, abs=0.05)
    assert t2 == pytest.approx(5.0, abs=0.05)
    assert out.content == pytest.approx(2.0, abs=1e-9)

    single = brute_force_profile(
        space,
        SearchConfig(target_volume=2.0, volume_tolerance=0.02, grid_points=256),
    )
    assert single.content > out.content + 0.4


def test_refinement_never_worsens_on_nested_grids():
    cfg_coarse = SearchConfig(target_volume=0.3, volume_tolerance=0.01, grid_points=129)
    cfg_fine = SearchConfig(target_volume=0.3, volume_tolerance=0.01, grid_points=257)
    space = WeightedInterval(1.0, MonomialDensity(1.0, 1.0))
    coarse = brute_force_profile(space, cfg_coarse)
    fine = brute_force_profile(space, cfg_fine)
    assert fine.content <= coarse.content + 1e-12


def test_search_is_deterministic():
    cfg = SearchConfig(
        target_volume=0.4, volume_tolerance=0.01, grid_points=128, max_components=2
    )
    space = WeightedInterval(2.0, MonomialDensity(1.0, 0.5))
    first = brute_force_profile(space, cfg)
    second = brute_force_profile(space, cfg)
    assert first == second


def test_infeasible_window_raises():
    cfg = SearchConfig(target_volume=0.315, volume_tolerance=1e-9, grid_points=8)
    with pytest.raises(InfeasibleSearchError):
        brute_force_profile(unit_space(), cfg)


def test_half_line_without_window_rejected():
    space = WeightedInterval(math.inf, MonomialDensity(1.0, 1.0))
    cfg = SearchConfig(target_volume=0.5, volume_tolerance=0.01, grid_points=64)
    with pytest.raises(DomainError):
        brute_force_profile(space, cfg)
    # explicit window unblocks it
    out = brute_force_profile(
        space,
        SearchConfig(
            target_volume=0.5, volume_tolerance=0.01, grid_points=128, window=3.0
        ),
    )
    assert out.content > 0.0


def test_config_validation():
    with pytest.raises(DomainError):
        SearchConfig(target_volume=0.1, volume_tolerance=0.0)
    with pytest.raises(DomainError):
        SearchConfig(target_volume=0.1, volume_tolerance=0.1, grid_points=1)
    with pytest.raises(DomainError):
        SearchConfig(target_volume=0.1, volume_tolerance=0.1, max_components=0)
    with pytest.raises(DomainError):
        SearchConfig(target_volume=0.1, volume_tolerance=0.1, max_components=3)
    with pytest.raises(DomainError):
        SearchConfig(target_volume=-0.1, volume_tolerance=0.1)


def test_certify_bound_sharp_space_margins():
    a, mass, n = 1.0 / (2.0 * math.pi), 1.0, 2.0
    space, _ = sharp_space(a, mass, n)
    cfg = SearchConfig(
        target_volume=0.0, volume_tolerance=1e-9, grid_points=256, max_components=2
    )
    report = certify_bound(space, n, a, [0.25, 0.5, mass, 2.0], cfg)
    assert report.passed
    by_volume = {row.v: row for row in report.rows}
    assert abs(by_volume[mass].margin) <= 2.0 * by_volume[mass].slack
    for row in report.rows:
        assert row.margin >= -row.slack
        assert row.bound == pytest.approx(avr_lower_bound(n, a, row.v), rel=1e-12)


def test_certify_bound_euclidean_cone_has_positive_margins():
    n = 2.0
    c = n * unit_ball_volume(n)
    space = WeightedInterval(math.inf, MonomialDensity(c, n - 1.0))
    cfg = SearchConfig(
        target_volume=0.0, volume_tolerance=1e-9, grid_points=256, max_components=2
    )
    report = certify_bound(space, n, 1.0, [0.5, 1.0, 2.0], cfg)
    assert report.passed
    # content/bound ratio for the anchored ball is N^((N-1)/N) > 1
    for row in report.rows:
        assert row.margin > 0.0
        assert row.content / row.bound == pytest.approx(
            n ** ((n - 1.0) / n), abs=0.05
        )


def test_certify_bound_trivial_on_zero_avr():
    space = unit_space()
    cfg = SearchConfig(target_volume=0.0, volume_tolerance=1e-9, grid_points=128)
    report = certify_bound(space, 2.0, 0.0, [0.2, 0.5], cfg)
    assert report.passed
    for row in report.rows:
        assert row.bound == 0.0


def naive_search(prefix, left_w, right_w, v, tau, components):
    """O(n^4) enumeration of the empty set and of unions of up to two
    disjoint grid intervals [x_i, x_j] with measure within tau of v.

    Returns the smallest (content, endpoint indices) and the count of
    candidates, in the search's tie order.
    """
    n = len(prefix)
    intervals = [
        (float(prefix[j] - prefix[i]), float(left_w[i] + right_w[j]), i, j)
        for i in range(n)
        for j in range(i, n)
    ]
    best, count = None, 0
    if abs(v) <= tau:
        best, count = (0.0, ()), 1
    for m, c, i, j in intervals:
        if v - tau <= m <= v + tau:
            count += 1
            cand = (c, (i, j))
            best = cand if best is None or cand < best else best
        if components < 2:
            continue
        for m2, c2, i2, j2 in intervals:
            if i2 > j and v - tau <= m + m2 <= v + tau:
                count += 1
                cand = (c + c2, (i, j, i2, j2))
                best = cand if best is None or cand < best else best
    return best, count


def _random_space(family, rng):
    """A seeded space of the family and a search window inside it."""
    if family == "constant":
        D = rng.uniform(0.5, 3.0)
        return WeightedInterval(D, ConstantDensity(rng.uniform(0.2, 3.0))), D
    if family == "monomial":
        D = rng.uniform(0.5, 3.0)
        return WeightedInterval(D, MonomialDensity(rng.uniform(0.2, 3.0), rng.uniform(0.0, 3.0))), D
    if family == "piecewise":
        b = np.sort(rng.uniform(0.3, 2.7, size=2))
        p = (rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        c = [1.0]
        for k in range(2):
            c.append(c[-1] * b[k] ** (p[k] - p[k + 1]))
        h = PiecewiseMonomialDensity(tuple(b), tuple(zip(c, p)))
        return WeightedInterval(3.0, h), 3.0
    if family == "sharp":
        h = SharpDensity(rng.uniform(0.05, 1.0), rng.uniform(0.3, 2.0), rng.uniform(1.2, 4.0))
        return WeightedInterval(math.inf, h), h.x_star * rng.uniform(1.2, 4.0)
    grid = np.sort(np.concatenate([[0.0, 2.0], rng.uniform(0.0, 2.0, size=4)]))
    h = TabulatedDensity(tuple(grid), tuple(rng.uniform(0.1, 2.0, size=6)))
    return WeightedInterval(2.0, h), 2.0


@pytest.mark.parametrize("components", [1, 2])
@pytest.mark.parametrize("family", ["constant", "monomial", "piecewise", "sharp", "tabulated"])
def test_search_matches_naive_enumeration(family, components):
    rng = np.random.default_rng([components, len(family)])
    for _ in range(4):
        space, window = _random_space(family, rng)
        n = int(rng.integers(8, 32))
        xs, prefix, left_w, right_w = _grid_and_measures(space, window, n)
        v = rng.uniform(0.05, 0.7) * prefix[-1]
        tau = rng.uniform(0.3, 2.0) * float(np.diff(prefix).max())
        cfg = SearchConfig(target_volume=v, volume_tolerance=tau, grid_points=n,
                           max_components=components, window=window)
        best, count = naive_search(prefix, left_w, right_w, v, tau, components)
        if best is None:
            with pytest.raises(InfeasibleSearchError):
                brute_force_profile(space, cfg)
            continue
        out = brute_force_profile(space, cfg)
        assert out.sets_examined == count
        ends = tuple(e for comp in out.best_set.components for e in comp)
        assert ends == tuple(float(xs[k]) for k in best[1])
        assert out.content == pytest.approx(best[0], rel=1e-12)
