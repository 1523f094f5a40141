"""Brute-force search: enumeration, tie-breaking, certification."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mcp_iso import (
    ConstantDensity,
    DomainError,
    IntervalUnion,
    MonomialDensity,
    PiecewiseMonomialDensity,
    SearchConfig,
    SharpDensity,
    TabulatedDensity,
    WeightedInterval,
    avr,
    avr_lower_bound,
    brute_force_profile,
    certify_bound,
    sharp_space,
    unit_ball_volume,
)
from mcp_iso import measure, minkowski_content, search
from mcp_iso.profile import cone_radius, log_cone_coefficient
from mcp_iso.search import (
    _by_measure,
    _grid_and_measures,
    _join,
    _merge_rank,
    _pair_window,
    _prune,
    _cone_window,
    _range_min,
    _window,
)

from corpus import envelope_corpus, power_corpus, product_corpus

# The refusal of a search whose window no candidate set meets.
INFEASIBLE = "no grid-aligned candidate has measure within"


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
    assert out.best_set == IntervalUnion(())
    assert out.content == 0.0


def test_sharp_space_attains_bound_with_two_components_allowed():
    a, mass, n = 1.0 / (2.0 * math.pi), 1.0, 2.0
    space, extremal = sharp_space(a, mass, n)
    cfg = SearchConfig(
        target_volume=mass, volume_tolerance=0.01, grid_points=512, max_components=2,
        window=4 * space.h.x_star,
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
    with pytest.raises(DomainError, match=INFEASIBLE):
        brute_force_profile(unit_space(), cfg)


def test_half_line_without_window_rejected():
    space = WeightedInterval(math.inf, MonomialDensity(1.0, 1.0))
    cfg = SearchConfig(target_volume=0.5, volume_tolerance=0.01, grid_points=64)
    for half_line in (space, sharp_space(0.2, 1.0, 2.0)[0]):
        with pytest.raises(DomainError, match="requires an explicit window"):
            brute_force_profile(half_line, cfg)
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
    for counts in ({"grid_points": 96.5}, {"max_components": 1.0}, {"max_components": True}):
        with pytest.raises(DomainError, match="must be an integer"):
            SearchConfig(0.3, 0.01, **counts)
    assert SearchConfig(0.3, 0.01, grid_points=np.int64(64)).grid_points == 64
    with pytest.raises(DomainError):
        SearchConfig(target_volume=-0.1, volume_tolerance=0.1)
    with pytest.raises(DomainError):
        SearchConfig(target_volume=math.nan, volume_tolerance=0.1)
    with pytest.raises(DomainError, match="inf"):
        SearchConfig(target_volume=math.inf, volume_tolerance=0.1)
    with pytest.raises(DomainError):
        SearchConfig(target_volume=0.1, volume_tolerance=math.inf)
    with pytest.raises(DomainError):
        SearchConfig(target_volume=0.1, volume_tolerance=0.1, window=math.inf)
    with pytest.raises(DomainError):  # a window beyond the domain [0, 1]
        brute_force_profile(unit_space(), SearchConfig(0.1, 0.1, grid_points=8, window=2.0))


@pytest.mark.parametrize(
    "space, avr_value, volumes",
    [
        (WeightedInterval(1.0, ConstantDensity(1.0)), -1.0, [0.5]),
        (WeightedInterval(1.0, ConstantDensity(1.0)), math.nan, [0.5]),
        (WeightedInterval(1.0, ConstantDensity(1.0)), 0.0, [-0.5]),
        (WeightedInterval(1.0, ConstantDensity(1.0)), 0.0, [math.nan]),
        (WeightedInterval(1.0, ConstantDensity(1.0)), 0.0, []),
        (WeightedInterval(math.inf, MonomialDensity(1.0, 1.0)), 0.0, [0.5]),
        (WeightedInterval(1.0, ConstantDensity(1.0)), math.inf, [0.5]),
        (WeightedInterval(1.0, ConstantDensity(1.0)), 0.0, [math.inf]),
        (WeightedInterval(math.inf, MonomialDensity(1.0, 1.0)), 1.0, [0.5, math.inf]),
    ],
    ids=[
        "avr-negative", "avr-nan", "v-negative", "v-nan", "no-volumes", "half-line-avr-zero",
        "avr-inf", "v-inf", "half-line-v-inf",
    ],
)
def test_certify_bound_rejects_bad_arguments(space, avr_value, volumes):
    cfg = SearchConfig(target_volume=0.0, volume_tolerance=1e-9, grid_points=16)
    with pytest.raises(DomainError):
        certify_bound(space, 2.0, avr_value, volumes, cfg)


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


def test_certify_slack_takes_max_h_over_the_whole_grid():
    # h falls from 2 at x = 0 to 1 at x = 1, so its max sits on the grid's
    # first point, which carries no left-end weight.
    space = WeightedInterval(1.0, TabulatedDensity((0.0, 1.0), (2.0, 1.0)))
    cfg = SearchConfig(target_volume=0.0, volume_tolerance=1e-9, grid_points=11)
    report = certify_bound(space, 2.0, 0.0, [0.5], cfg)
    gap = float(np.diff(_grid_and_measures(space, 1.0, 11)[1]).max())
    assert report.rows[0].slack == gap * 2.0


def _counting(h, calls):
    """A copy of density h that counts its point evaluations and integrals
    in calls, a dict keyed by method name."""
    base = type(h)

    def counted(name):
        def method(self, *args):
            calls[name] = calls.get(name, 0) + 1
            return getattr(base, name)(self, *args)
        return method

    cls = type("Counting" + base.__name__, (base,), {n: counted(n) for n in ("__call__", "integral")})
    return cls(**{f.name: getattr(h, f.name) for f in dataclasses.fields(h)})


@pytest.mark.parametrize("grid_points", [512, 4096])
def test_certify_bound_builds_one_grid_per_volume(grid_points, monkeypatch):
    # On the half line each volume sizes its own window, so gets its own
    # grid; brute_force_profile, still called once per volume through the
    # module attribute, searches the grid certify_bound read its slack from.
    sharp, _ = sharp_space(0.2, 1.0, 2.0)
    calls = {}
    space = WeightedInterval(math.inf, _counting(sharp.h, calls))
    searched = []
    bfp = search.brute_force_profile
    monkeypatch.setattr(search, "brute_force_profile", lambda *a: searched.append(a) or bfp(*a))
    cfg = SearchConfig(target_volume=0.0, volume_tolerance=1e-9, grid_points=grid_points)
    volumes = [0.25, 0.5, 1.0, 2.0]
    report = certify_bound(space, 2.0, 0.2, volumes, cfg)
    assert calls == {"__call__": len(volumes), "integral": len(volumes)}
    assert [run_cfg.target_volume for _, run_cfg in searched] == volumes
    assert report.rows == certify_bound(sharp, 2.0, 0.2, volumes, cfg).rows
    # A bounded space searches [0, D] at every volume: one grid in all.
    calls.clear()
    space = WeightedInterval(1.0, _counting(ConstantDensity(1.0), calls))
    certify_bound(space, 2.0, 0.0, volumes[:3], cfg)
    assert calls == {"__call__": 1, "integral": 1}


def test_grid_is_served_again_only_to_the_same_space_window_and_size():
    space = WeightedInterval(1.0, MonomialDensity(1.0, 1.0))
    grid = _grid_and_measures(space, 1.0, 64)
    assert _grid_and_measures(space, 1.0, 64) is grid
    for other, window, n in (
        (WeightedInterval(1.0, MonomialDensity(1.0, 1.0)), 1.0, 64),  # equal, not the same
        (space, 0.5, 64),
        (space, 1.0, 65),
    ):
        assert other == space
        fresh = _grid_and_measures(other, window, n)
        assert fresh is not grid
        xs = np.linspace(0.0, window, n)
        np.testing.assert_array_equal(fresh[0], xs)
        np.testing.assert_array_equal(fresh[1], other.h.integral(0.0, xs))
        grid = fresh
    for array in grid:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0


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


# (v, tau) on the unit grid of step 0.1 under h = 1, where interval
# measures such as 0.3 - 0.1 round to either side of an end of the window.
KNIFE_EDGES = ((0.15, 0.05), (0.19, 0.01), (0.1, 0.1), (0.3, 0.1))
# (D, n, v, tau) under h = 1 where a sum of two measures rounds onto an end
# of the window that neither partner's own measure decides.
PAIR_KNIFE_EDGES = ((1.0, 11, 0.28, 0.02), (1.0, 11, 0.4, 0.1), (0.6, 7, 0.1, 0.1))


def _narrow_case(space, window, rng, max_points=31):
    """(space, window, n, v, tau): a seeded grid of 8 to max_points points
    and a volume window a few measure gaps wide."""
    n = int(rng.integers(8, max_points + 1))
    prefix = _grid_and_measures(space, window, n)[1]
    v = rng.uniform(0.05, 0.7) * prefix[-1]
    tau = rng.uniform(0.3, 2.0) * float(np.diff(prefix).max())
    return space, window, n, v, tau


def _naive_cases(family, components):
    """Four seeded (space, window, n, v, tau), for the constant family the
    knife-edge windows of one and of two components, and for one component
    two wide windows (tau up to 0.4 of the mass, up to 300 grid points)."""
    rng = np.random.default_rng([components, len(family)])
    for _ in range(4):
        yield _narrow_case(*_random_space(family, rng), rng)
    if family == "constant":
        for v, tau in KNIFE_EDGES:
            yield WeightedInterval(1.0, ConstantDensity(1.0)), 1.0, 11, v, tau
        for D, n, v, tau in PAIR_KNIFE_EDGES:
            yield WeightedInterval(D, ConstantDensity(1.0)), D, n, v, tau
    for _ in range(2 if components == 1 else 0):
        space, window = _random_space(family, rng)
        n = int(rng.integers(100, 301))
        mass = _grid_and_measures(space, window, n)[1][-1]
        yield space, window, n, rng.uniform(0.05, 0.9) * mass, rng.uniform(0.05, 0.4) * mass


def _assert_window(x, a, v, tau):
    """_window(x, a, v, tau) against the test v - tau <= fl(a + x[k]) <= v + tau
    made at every k: each range holds exactly the k that pass, and starts
    after the k whose sums fall below the window, so an empty one too."""
    x, a = np.asarray(x, dtype=float), np.asarray(a, dtype=float)
    lo, hi = _window(x, a, v, tau)
    ranges = []
    for offset, lo_k, hi_k in zip(a.tolist(), lo.tolist(), hi.tolist()):
        sums = [offset + xk for xk in x.tolist()]
        inside = [k for k, s in enumerate(sums) if v - tau <= s <= v + tau]
        assert inside == list(range(lo_k, hi_k))
        assert lo_k == sum(s < v - tau for s in sums)
        ranges.append((lo_k, hi_k))
    return ranges


def test_window_matches_the_test_at_every_slot():
    rng = np.random.default_rng(21)
    for _ in range(300):
        # Runs of equal values on a step of 0.1, and windows on steps of 0.05:
        # sums such as 0.1 + 0.2 round to either side of an end.
        values = np.sort(rng.choice(np.arange(-10, 11), int(rng.integers(1, 8)), replace=False))
        x = np.repeat(values * 0.1, rng.integers(1, 4, len(values)))
        a = np.sort(rng.integers(-10, 11, int(rng.integers(1, 6))) * 0.1)
        v, tau = rng.integers(0, 21) * 0.05, rng.integers(1, 5) * 0.05
        # Offsets of both signs, either order, and a = -x as for single
        # intervals, a = x[::-1] as for pairs.
        for offsets in (a, a[::-1], -x, x[::-1]):
            _assert_window(x, offsets, v, tau)


def test_window_on_exact_ends_empty_windows_and_one_slot():
    # Dyadic values: every sum is exact, and some hit an end of [0.5, 0.75].
    x = np.repeat([0.25, 0.5, 0.75, 1.0], [2, 3, 1, 2])
    assert _assert_window(x, [-0.25, 0.0, 0.25], 0.625, 0.125) == [(5, 8), (2, 6), (0, 5)]
    # Runs of equal values at both ends of [0.1, fl(0.2 + 0.1)].
    x = [0.1, 0.1, 0.2, 0.3, 0.3, 0.3, 0.5, 0.5]
    assert _assert_window(x, [0.0], 0.2, 0.1) == [(0, 6)]
    # Windows between two values, below all and above all.
    assert _assert_window([0.0, 1.0], [-2.0, 0.0, 2.0], 0.5, 0.25) == [(2, 2), (1, 1), (0, 0)]
    # One slot: inside, below and above the window.
    assert _assert_window([0.3], [-0.3, 0.0, 0.1], 0.3, 0.05) == [(1, 1), (0, 1), (0, 0)]


def _reference_window(x, a, v, tau, block=128):
    """(lo, hi) from the per-offset test v - tau <= fl(a + x[k]) <= v + tau,
    made in numpy blocks of offsets; asserts each window is one slot range."""
    lo, hi = np.empty(len(a), dtype=np.intp), np.empty(len(a), dtype=np.intp)
    slots = np.arange(len(x))
    for at in range(0, len(a), block):
        with np.errstate(over="ignore"):
            sums = a[at:at + block, None] + x[None, :]
        inside = (v - tau <= sums) & (sums <= v + tau)
        lo[at:at + block] = (sums < v - tau).sum(axis=1)
        hi[at:at + block] = lo[at:at + block] + inside.sum(axis=1)
        ranges = (lo[at:at + block, None] <= slots) & (slots < hi[at:at + block, None])
        assert np.array_equal(inside, ranges)
    return lo, hi


def _assert_window_matches_reference(x, a, v, tau):
    np.testing.assert_array_equal(_window(x, a, v, tau), _reference_window(x, a, v, tau))


# The one-component search-1c cases at grid 4096: (space, N, avr, volumes).
SEARCH_1C = (
    (sharp_space(1.0 / (2.0 * math.pi), 1.0, 2.0)[0], 2.0, 1.0 / (2.0 * math.pi), (0.6, 1.4)),
    (sharp_space(0.5, 2.0, 3.0)[0], 3.0, 0.5, (1.2, 2.8)),
    (WeightedInterval(math.inf, MonomialDensity(2.0 * math.pi, 1.0)), 2.0, 1.0, (0.7, 1.6)),
    (WeightedInterval(3.0, PiecewiseMonomialDensity((1.35,), ((1.0, 1.5), (1.35 ** 0.825, 0.675)))),
     3.0, 0.0, (0.35, 0.7)),
)


def _certify_grid(space, N, avr_value, v, grid_points):
    """(prefix, v, tau) of the grid certify_bound searches at volume v."""
    window = _cone_window(N, avr_value, v) if avr_value > 0.0 else space.D
    prefix = _grid_and_measures(space, window, grid_points)[1]
    if avr_value == 0.0:
        v *= float(prefix[-1])  # a share of the bounded space's mass
    return prefix, v, max(1e-9, 1.05 * float(np.diff(prefix).max()))


@pytest.mark.parametrize("case", range(len(SEARCH_1C)))
def test_window_matches_the_reference_on_benchmark_grids(case):
    space, N, avr_value, volumes = SEARCH_1C[case]
    for v in volumes:
        prefix, v, tau = _certify_grid(space, N, avr_value, v, 4096)
        _assert_window_matches_reference(prefix, -prefix, v, tau)


def test_pair_window_matches_the_reference_at_benchmark_size():
    # The cone's intervals at grid 512, as certify-2c pairs them.
    space, N, avr_value, _ = SEARCH_1C[2]
    prefix, v, tau = _certify_grid(space, N, avr_value, 2.0, 512)
    lo, hi = _window(prefix, -prefix, v, tau)
    starts = np.arange(len(prefix))
    iv_i = np.repeat(starts, hi - starts)
    iv_j = np.concatenate([np.arange(i, h) for i, h in zip(starts.tolist(), hi.tolist())])
    x = np.sort(prefix[iv_j] - prefix[iv_i])
    assert len(x) == 37455
    every = slice(None, None, 97)
    expected = _reference_window(x, x[::-1][every], v, tau)
    np.testing.assert_array_equal(_pair_window(x, v, tau)[:, every], expected)
    np.testing.assert_array_equal(_window(x, x[::-1], v, tau)[:, every], expected)


def test_merge_rank_is_searchsorted_on_long_runs_zeros_and_infinities():
    rng = np.random.default_rng(39)
    for _ in range(40):
        # Runs of 64 to 200 equal values, so the merge gallops.
        values = np.sort(rng.choice(np.arange(-6, 7), int(rng.integers(1, 6)), replace=False))
        x = np.repeat(values * 0.1, rng.integers(64, 201, len(values)))
        keys = np.sort(np.repeat(rng.integers(-8, 9, int(rng.integers(1, 5))) * 0.1,
                                 rng.integers(1, 150, 1)))
        for k in (keys, keys[::-1]):
            for side in ("left", "right"):
                assert np.array_equal(_merge_rank(x, k, side), np.searchsorted(x, k, side))
        v, tau = rng.integers(-10, 11) * 0.05, rng.integers(1, 5) * 0.05
        for offsets in (keys, keys[::-1], -x, x[::-1]):
            _assert_window_matches_reference(x, offsets, v, tau)
    # +-0.0 ties either way, one-element arrays and keys past the float range.
    edges = (
        (np.array([-0.0, -0.0, 0.0, 0.0]), np.array([0.0, -0.0])),
        (np.array([0.0]), np.array([-0.0])),
        (np.array([1.0]), np.array([1.0])),
        (np.array([-1e308, 1.0, 1e308]), np.array([-np.inf, -np.inf, 0.0, np.inf])),
    )
    for x, keys in edges:
        for k in (keys, keys[::-1]):
            for side in ("left", "right"):
                assert np.array_equal(_merge_rank(x, k, side), np.searchsorted(x, k, side))
    big = np.repeat([-1.7e308, 0.0, 1.7e308], 64)
    with np.errstate(over="ignore"):  # the widened keys overflow to +-inf
        for offsets in (big, big[::-1], np.array([1.7e308]), np.array([-0.0])):
            for v, tau in ((0.0, 1.0), (1.5e308, 1e308), (-1.5e308, 1e308), (0.0, 1e-300)):
                _assert_window_matches_reference(big, offsets, v, tau)
                _assert_window_matches_reference(np.array([0.0]), offsets, v, tau)


@pytest.mark.parametrize("components", [1, 2])
@pytest.mark.parametrize("family", ["constant", "monomial", "piecewise", "sharp", "tabulated"])
def test_search_matches_naive_enumeration(family, components):
    for case in _naive_cases(family, components):
        _assert_matches_naive(*case, components)


@pytest.mark.parametrize("components", [1, 2])
def test_envelope_corpus_matches_naive_enumeration(components):
    # Densities that never fall, so the right weights take _range_min's
    # table-free branch.
    rng = np.random.default_rng(components)
    envelopes = envelope_corpus(16, seed=38)
    for member in envelopes + power_corpus(envelopes, seed=38) + product_corpus(envelopes):
        case = _narrow_case(WeightedInterval(member.D, member.h), member.window, rng, 24)
        _assert_matches_naive(*case, components)


def test_best_sets_meet_the_volume_growth_bound():
    # The paper's inequality on the search's own output, with no slack: each
    # best set E of a half-line space at its own avr has content(E) >=
    # B(measure(E)); the empty set passes, as B(0) = 0.
    envelopes = envelope_corpus(16, seed=38)
    members = envelopes + power_corpus(envelopes, seed=38) + product_corpus(envelopes)
    spaces = [(WeightedInterval(m.D, m.h), m.label) for m in members if m.D == math.inf]
    spaces = [(space, N, avr(space, N)) for space, N in spaces]
    spaces = [case for case in spaces if case[2] > 0.0]
    assert len(spaces) == 9
    for N in (2.0, 3.0, 5.0, 10.0):
        spaces += [(sharp_space(lam, lam, N)[0], N, lam) for lam in (1e-3, 1.0, 1e3)]
    for (space, N, avr_value), grid_points, components in itertools.product(
            spaces, (64, 512), (1, 2)):
        cfg = SearchConfig(target_volume=0.0, volume_tolerance=1e-9,
                           grid_points=grid_points, max_components=components)
        # Volumes around the one whose cone ball has radius 1.
        mass = math.exp(log_cone_coefficient(N, avr_value)) / N
        report = certify_bound(space, N, avr_value, [0.3 * mass, 2.0 * mass], cfg)
        for row in report.rows:
            least = avr_lower_bound(N, avr_value, measure(space, row.best_set))
            assert minkowski_content(space, row.best_set) == row.content
            assert row.content >= least * (1.0 - 1e-12), (space, N, row)


def _assert_matches_naive(space, window, n, v, tau, components=1):
    """The search against naive_search: the count, the endpoints and the
    content, bit for bit, or the INFEASIBLE refusal (then None) where no set
    meets the window."""
    xs, prefix, left_w, right_w = _grid_and_measures(space, window, n)
    cfg = SearchConfig(target_volume=v, volume_tolerance=tau, grid_points=n,
                       max_components=components, window=window)
    best, count = naive_search(prefix, left_w, right_w, v, tau, components)
    if best is None:
        with pytest.raises(DomainError, match=INFEASIBLE):
            brute_force_profile(space, cfg)
        return None
    out = brute_force_profile(space, cfg)
    assert out.sets_examined == count
    ends = tuple(e for comp in out.best_set.components for e in comp)
    assert ends == tuple(float(xs[k]) for k in best[1])
    assert out.content == best[0]  # the same floats, added in the same order
    return out


def test_range_min_matches_naive_min():
    rng = np.random.default_rng(22)
    for width in (1, 2, 3, 7, 8, 9, 64, 100):
        # Few distinct values, so minima tie, and +inf among them.
        values = rng.choice([0.5, 1.0, 2.0, math.inf], width)
        rising = np.sort(values)  # ties and +inf: no table
        falling_last = np.append(rising[1:], 0.25)  # only the last value falls: no table
        falls_once = rising.copy()  # from width 3, one fall in the middle: the table
        falls_once[width // 2] = 0.25
        lo = rng.integers(0, width, 50)
        hi = rng.integers(lo + 1, width + 1)
        # Every range width from 1 to the full length, so every row of the table.
        lo = np.concatenate([lo, np.zeros(width, dtype=lo.dtype)])
        hi = np.concatenate([hi, np.arange(1, width + 1)])
        for run in (values, rising, falling_last, falls_once):
            expected = [min(run[a:b]) for a, b in zip(lo.tolist(), hi.tolist())]
            assert _range_min(run, lo, hi).tolist() == expected


def test_rounding_tie_in_one_row_goes_to_the_least_end():
    # On [x5, x_j], j = 6..10, the left weight 2^60 absorbs the distinct
    # right weights 5, 4, 3, 2 and 0 (x10 = D) in rounding: every sum is
    # 2^60, so the least end j = 6 wins, not the least right weight at j = 10.
    h = TabulatedDensity(
        (0.0, 0.1, 0.2, 0.3, 0.4, 0.499, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0**60, 5.0, 4.0, 3.0, 2.0, 1.0),
    )
    space = WeightedInterval(1.0, h)
    xs, prefix = _grid_and_measures(space, 1.0, 11)[:2]
    v = float(prefix[10] - prefix[5])
    out = _assert_matches_naive(space, 1.0, 11, v, 1e-3 * v)
    assert out.best_set.components == ((xs[5], xs[6]),)
    assert (out.content, out.sets_examined) == (2.0**60, 5)


def test_rounding_tie_across_rows_goes_to_the_first_row():
    # [x5, x6] costs fl(1 + 2^-53) = 1, [x9, x10] costs 1 + 0 (x10 = D)
    # exactly: the rounded contents tie, and the first row wins.
    xs = np.linspace(0.0, 1.0, 11)  # the search grid, so h(x_k) is exact
    h = TabulatedDensity(tuple(xs), (2, 2, 2, 2, 2, 1, 2.0**-53, 2, 2, 1, 1))
    out = _assert_matches_naive(WeightedInterval(1.0, h), 1.0, 11, 0.075, 0.03)
    assert out.best_set.components == ((xs[5], xs[6]),)
    assert (out.content, out.sets_examined) == (1.0, 3)


def _assert_pair_window(x, v, tau):
    """_pair_window(x, v, tau) equals _window(x, x[::-1], v, tau) exactly and
    in C order; returns the number of offsets read off by symmetry."""
    x = np.sort(np.asarray(x, dtype=float))
    got = _pair_window(x, v, tau)
    np.testing.assert_array_equal(got, _window(x, x[::-1], v, tau))
    assert got.dtype == np.intp and got.flags.c_contiguous
    return int(np.searchsorted(x + x, v - tau, side="left"))


def test_pair_window_matches_the_window_on_reversed_offsets():
    rng = np.random.default_rng(24)
    heads, exact_ends = set(), 0
    for _ in range(400):
        # Runs of equal values on a step of 0.1, zeros among them.
        m = int(rng.integers(1, 40))
        x = np.sort(np.repeat(rng.integers(0, 8, m) * 0.1, rng.integers(1, 4, m)))
        if rng.integers(2):
            x[: int(rng.integers(0, len(x) + 1))] = 0.0
        m = len(x)
        # Both ends on a rounded sum fl(x_a + x_b): ends hit exactly.
        lo_end, hi_end = np.sort(x[rng.integers(0, m, 2)] + x[rng.integers(0, m, 2)])
        tau = max((hi_end - lo_end) / 2.0, 0.05)
        for v, t in (
            (lo_end + tau, tau),
            (rng.integers(0, 33) * 0.05, rng.integers(1, 5) * 0.05),
            (rng.uniform(0.0, 0.2), rng.uniform(0.2, 0.5)),  # v - tau <= 0: no head
            (2.0 * x[-1] + 1.0, 0.5),  # every 2x below v - tau: no tail
        ):
            head = _assert_pair_window(x, v, t)
            heads.add("no head" if head == 0 else "no tail" if head == m else "both")
            exact_ends += bool(np.isin([v - t, v + t], np.add.outer(x, x)).any())
    assert heads == {"no head", "both", "no tail"}
    assert exact_ends > 300


def test_pair_window_on_exact_ends_and_subnormal_sums():
    # Dyadic values: every sum is exact, and the ends of [0.5, 1.0] are sums.
    x = [0.0, 0.0, 0.25, 0.25, 0.5, 0.75, 0.75, 1.0]
    for v, tau in ((0.75, 0.25), (0.5, 0.5), (0.125, 0.0625), (4.0, 1.0), (1.0, 1e-300)):
        _assert_pair_window(x, v, tau)
    # fl(0.1 + 0.2) lies above 0.3: a window ending at 0.3 leaves it out.
    for v in (0.2, 0.25, 0.3 + 0.1):
        _assert_pair_window([0.1, 0.1, 0.2, 0.3, 0.3], v, 0.1)
    # Subnormal sums, where halving the window end would round.
    tiny = np.array([0.0, 5e-324, 1e-323, 1.5e-323, 2e-323])
    for v, tau in ((1e-323, 5e-324), (2.5e-323, 5e-324), (5e-324, 5e-324)):
        _assert_pair_window(tiny, v, tau)
    # Sums that overflow rank last, as in the window.
    with np.errstate(over="ignore"):
        _assert_pair_window([1.0, 1e308, 1.7e308], 1.5e308, 1e308)
    # One slot, inside and outside its own window.
    for v in (0.6, 1.0):
        _assert_pair_window([0.3], v, 0.05)


def test_one_component_search_builds_no_interval_arrays():
    # Every start has a wide window: 6.7 million candidate intervals, whose
    # endpoint and content arrays alone would take hundreds of MiB.
    cfg = SearchConfig(target_volume=0.5, volume_tolerance=0.4, grid_points=4096)
    tracemalloc.start()
    try:
        out = brute_force_profile(unit_space(), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.sets_examined == 6710886
    assert out.content == 1.0 and out.best_set.components[0][0] == 0.0
    assert peak < 8 * 2**20


class _MinCountTree:
    """Segment tree over measure-sorted slots: point insert, range min+count.

    Values are (content, i, j) tuples so equal contents break ties toward
    the lexicographically smallest endpoint pair.
    """

    __slots__ = ("size", "vals", "counts")
    SENTINEL = (math.inf, -1, -1)

    def __init__(self, n: int):
        size = 1
        while size < max(n, 1):
            size <<= 1
        self.size = size
        self.vals = [self.SENTINEL] * (2 * size)
        self.counts = [0] * (2 * size)

    def insert(self, pos: int, val) -> None:
        i = pos + self.size
        self.vals[i] = val
        self.counts[i] = 1
        i >>= 1
        vals, counts = self.vals, self.counts
        while i:
            left, right = vals[2 * i], vals[2 * i + 1]
            vals[i] = left if left <= right else right
            counts[i] = counts[2 * i] + counts[2 * i + 1]
            i >>= 1

    def query(self, lo: int, hi: int):
        """Min value and count over inserted slots in [lo, hi)."""
        best = self.SENTINEL
        count = 0
        lo += self.size
        hi += self.size
        vals, counts = self.vals, self.counts
        while lo < hi:
            if lo & 1:
                if vals[lo] < best:
                    best = vals[lo]
                count += counts[lo]
                lo += 1
            if hi & 1:
                hi -= 1
                if vals[hi] < best:
                    best = vals[hi]
                count += counts[hi]
            lo >>= 1
            hi >>= 1
        return best, count



def reference_join(xs, prefix, left_w, right_w, v, tau):
    """The two-component search with the join swept over j1 in Python
    through a segment tree of (content, i, j) tuples: the implementation
    the vectorized join replaced, kept as its oracle at grids the O(n^4)
    enumeration cannot reach.

    Returns the least (content, endpoints) or None, and sets_examined.
    """
    n = len(xs)
    best = None
    examined = 0

    def consider(content, endpoints):
        nonlocal best
        cand = (content, endpoints)
        if best is None or cand < best:
            best = cand

    if abs(v) <= tau:
        consider(0.0, ())
        examined += 1

    starts = np.arange(n)
    widen = 16.0 * np.finfo(float).eps * (np.abs(prefix).max() + abs(v) + tau)
    j_hi = np.searchsorted(prefix, prefix + (v + tau + widen), side="right") - 1
    counts = np.maximum(j_hi - starts + 1, 0)
    iv_i = np.repeat(starts, counts)
    iv_j = np.arange(len(iv_i)) - np.repeat(np.cumsum(counts) - counts - starts, counts)
    iv_m = prefix[iv_j] - prefix[iv_i]
    iv_c = left_w[iv_i] + right_w[iv_j]

    singles = (iv_m >= v - tau) & (iv_m <= v + tau)
    examined += int(singles.sum())
    if singles.any():
        cand_c = iv_c[singles]
        cand_i = iv_i[singles]
        cand_j = iv_j[singles]
        order = np.lexsort((cand_j, cand_i, cand_c))
        k = order[0]
        consider(float(cand_c[k]), (float(xs[cand_i[k]]), float(xs[cand_j[k]])))

    if len(iv_i) > 0:
        # Offline join: walk first-interval groups by right endpoint j1 in
        # descending order, inserting second intervals with start j1 + 1, so
        # the tree always holds exactly the disjoint continuations.
        order_m = np.lexsort((iv_i * n + iv_j, iv_m))
        slot = np.empty(len(order_m), dtype=np.int64)
        slot[order_m] = np.arange(len(order_m))
        m_sorted = iv_m[order_m]

        by_start = np.flatnonzero(np.diff(iv_i, prepend=-1))  # first index of each i-block
        block_bounds = list(by_start) + [len(iv_i)]
        start_ranges = {
            int(iv_i[block_bounds[k]]): (int(block_bounds[k]), int(block_bounds[k + 1]))
            for k in range(len(block_bounds) - 1)
        }

        order_j = np.argsort(iv_j, kind="stable")
        j_sorted = iv_j[order_j]

        tree = _MinCountTree(len(iv_i))
        for j1 in range(n - 2, -1, -1):
            rng = start_ranges.get(j1 + 1)
            if rng is not None:
                for u in range(rng[0], rng[1]):
                    tree.insert(int(slot[u]), (float(iv_c[u]), int(iv_i[u]), int(iv_j[u])))
            g_lo = int(np.searchsorted(j_sorted, j1, side="left"))
            g_hi = int(np.searchsorted(j_sorted, j1, side="right"))
            for t in range(g_lo, g_hi):
                u = int(order_j[t])
                m1 = float(iv_m[u])
                # Partners with v - tau <= m1 + m2 <= v + tau, exactly.
                a = int(np.searchsorted(m_sorted, v - tau - widen - m1, side="left"))
                while a < len(m_sorted) and m1 + m_sorted[a] < v - tau:
                    a += 1
                b = int(np.searchsorted(m_sorted, v + tau + widen - m1, side="right"))
                while b > a and m1 + m_sorted[b - 1] > v + tau:
                    b -= 1
                if a >= b:
                    continue
                val, count = tree.query(a, b)
                examined += count
                if val[0] < math.inf:
                    c2, i2, j2 = val
                    consider(
                        float(iv_c[u]) + c2,
                        (
                            float(xs[iv_i[u]]),
                            float(xs[iv_j[u]]),
                            float(xs[i2]),
                            float(xs[j2]),
                        ),
                    )


    return best, examined


def _assert_join_matches(space, window, n, v, tau):
    xs, prefix, left_w, right_w = _grid_and_measures(space, window, n)
    best, examined = reference_join(xs, prefix, left_w, right_w, v, tau)
    cfg = SearchConfig(target_volume=v, volume_tolerance=tau, grid_points=n,
                       max_components=2, window=window)
    if best is None:
        with pytest.raises(DomainError, match=INFEASIBLE):
            brute_force_profile(space, cfg)
        return None
    out = brute_force_profile(space, cfg)
    assert out.sets_examined == examined
    assert tuple(e for comp in out.best_set.components for e in comp) == best[1]
    assert out.content == best[0]
    return out


@pytest.mark.parametrize("family", ["constant", "monomial", "piecewise", "sharp", "tabulated"])
def test_join_matches_reference_sweep(family):
    rng = np.random.default_rng([7, len(family)])
    for n in (2, 3):
        # The volume of one random cell: single cells, and unions of a cell
        # with a one-point component, meet the window.
        space, window = _random_space(family, rng)
        prefix = _grid_and_measures(space, window, n)[1]
        k = int(rng.integers(1, n))
        v = float(prefix[k] - prefix[k - 1])
        _assert_join_matches(space, window, n, v, 0.25 * float(np.diff(prefix).min()))
    for n in rng.integers(40, 129, size=3):
        space, window = _random_space(family, rng)
        prefix = _grid_and_measures(space, window, int(n))[1]
        gap = float(np.diff(prefix).max())
        v = rng.uniform(0.05, 0.7) * prefix[-1]
        _assert_join_matches(space, window, int(n), v, rng.uniform(0.3, 3.0) * gap)
    # A volume within the tolerance of 0 also counts the empty set.
    _assert_join_matches(space, window, int(n), 0.4 * gap, gap)
    # The join's wavelet matrix has one level per bit of the largest start
    # n - 1: n = 2^k fills k levels and n = 2^k + 1 opens one more.  One
    # volume is that of a tail [x_k, x_{n-1}], so intervals ending at the
    # last grid point (no start lies past them) meet the window.
    for n in (2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65):
        space, window = _random_space(family, rng)
        prefix = _grid_and_measures(space, window, n)[1]
        gap = float(np.diff(prefix).max())
        tail = float(prefix[-1] - prefix[rng.integers(0, n - 1)])
        for v in (tail, rng.uniform(0.05, 0.7) * prefix[-1]):
            _assert_join_matches(space, window, n, v, rng.uniform(0.3, 3.0) * gap)


def test_join_matches_reference_sweep_on_tied_partners():
    # h = x^2 on [0, 1], then 1 on [1, 2]: the one-point component [0, 0]
    # costs h(0) = 0, and every second interval [x, 2] on the plateau costs
    # 1, so the tie order of (content, i, j) alone picks the partner.  The
    # union [0, 0] + [x, 2] beats the single [x, 2] of the same content on
    # its endpoint list (zero-length components are allowed by design).
    h = PiecewiseMonomialDensity((1.0,), ((1.0, 2.0), (1.0, 0.0)))
    out = _assert_join_matches(WeightedInterval(2.0, h), 2.0, 81, 0.6, 0.1)
    assert out.best_set.components[0] == (0.0, 0.0)


@pytest.fixture
def join_calls(monkeypatch):
    """(intervals, search) of every call of the join, each call also checked
    to count as many pairs without the search as with it."""
    calls = []

    def checked(iv_i, *args, search):
        # The join moves the window's bounds in place: one copy per call.
        *arrays, bounds = args
        counted = _join(iv_i, *arrays, bounds.copy(), search=False)
        full = _join(iv_i, *arrays, bounds.copy(), search=True)
        assert counted[0] == full[0]
        calls.append((len(iv_i), search))
        return full if search else counted

    monkeypatch.setattr("mcp_iso.search._join", checked)
    return calls


@pytest.mark.parametrize("family", ["constant", "monomial", "piecewise", "sharp", "tabulated"])
def test_join_count_part_matches_full_join(family, join_calls):
    test_join_matches_reference_sweep(family)
    assert join_calls


def test_join_without_a_single_searches_all_intervals_once(join_calls):
    # No single interval meets the window: tau is half the least miss of
    # any single measure, so nothing bounds the pair and nothing is pruned;
    # the count runs over all intervals, then the search over all of them.
    space, n, v = WeightedInterval(1.0, MonomialDensity(1.0, 1.0)), 96, 0.2325
    prefix = _grid_and_measures(space, 1.0, n)[1]
    tau = 0.5 * np.abs((prefix[None, :] - prefix[:, None])[np.triu_indices(n)] - v).min()
    out = _assert_join_matches(space, 1.0, n, v, tau)
    assert len(out.best_set.components) == 2
    (total, counted), (kept, searched) = join_calls
    assert (counted, searched) == (False, True)
    assert kept == total


def test_pruned_join_finds_the_winning_pair(join_calls):
    # The space of test_two_component_optimum_is_found: the best single sets
    # the bound, the count runs over all intervals and the search over the
    # ones cheap enough to beat it, under half of them, and a pair wins.
    h = PiecewiseMonomialDensity(
        (1.0, 2.0, 4.0),
        ((1.0, 0.0), (1.0, 6.0), (4096.0, -6.0), (1.0, 0.0)),
    )
    out = _assert_join_matches(WeightedInterval(5.0, h), 5.0, 256, 2.0, 0.02)
    assert len(out.best_set.components) == 2
    (total, counted), (kept, searched) = join_calls
    assert (counted, searched) == (False, True)
    assert 0 < kept < total / 2


@pytest.mark.parametrize("family", ["constant", "monomial", "piecewise", "sharp", "tabulated"])
def test_prune_keeps_both_intervals_of_every_pair_within_the_bound(family):
    # Every interval [x_i, x_j], i <= j, in (i, j) order.  A bound at the
    # least pair sum, at a low quantile of the sums and at the best single
    # content: each in-window disjoint pair with fl(c_u + c_w) <= bound must
    # keep both u and w, and the prune keeps no more than c_u + min(c).
    rng = np.random.default_rng([25, len(family)])
    dropped = 0
    for n in rng.integers(16, 49, size=3):
        space, window = _random_space(family, rng)
        _, prefix, left_w, right_w = _grid_and_measures(space, window, int(n))
        iv_i, iv_j = np.triu_indices(int(n))
        iv_c = left_w[iv_i] + right_w[iv_j]
        iv_m = prefix[iv_j] - prefix[iv_i]
        v = rng.uniform(0.2, 0.8) * prefix[-1]
        tau = rng.uniform(0.3, 3.0) * float(np.diff(prefix).max())
        slot_iv, (lo, _) = _by_measure(iv_m, v, tau)
        m = iv_m[:, None] + iv_m[None, :]
        pair = (iv_i[None, :] > iv_j[:, None]) & (v - tau <= m) & (m <= v + tau)
        sums = iv_c[:, None] + iv_c[None, :]
        in_window = np.sort(sums[pair])
        single = (v - tau <= iv_m) & (iv_m <= v + tau)
        bounds = [in_window[0], in_window[len(in_window) // 10], iv_c[single].min()]
        for bound in bounds:
            kept = _prune(iv_c, slot_iv, lo, bound)
            u, w = np.nonzero(pair & (sums <= bound))
            assert np.isin(u, kept).all() and np.isin(w, kept).all()
            assert (np.diff(kept) > 0).all()
            assert np.isin(kept, np.flatnonzero(iv_c + iv_c.min() <= bound)).all()
            dropped += len(iv_c) - len(kept)
    assert dropped


def test_prune_drops_an_interval_without_partners_only_below_an_infinite_bound():
    # Measures 0.1 and 0.3 cannot reach v - tau = 0.95 together: both
    # windows are empty at lo = M, where least is inf.
    iv_c = np.array([1.0, 2.0])
    slot_iv = np.array([0, 1])
    lo, hi = _pair_window(np.array([0.1, 0.3]), 1.0, 0.05)
    assert (lo == 2).all() and (hi == 2).all()
    assert len(_prune(iv_c, slot_iv, lo, 100.0)) == 0
    assert list(_prune(iv_c, slot_iv, lo, math.inf)) == [0, 1]


@pytest.mark.parametrize("offset", [0, 2**15 - 30, 2**16 - 30, 2**31 - 61])
def test_join_matches_brute_force_across_coordinate_widths(offset):
    # Starts and ends run as int16 below 2**15, as int32 from there on: the
    # intervals cross 2**15 and 2**16, or reach the top of int32.
    rng = np.random.default_rng(offset)
    ends = np.sort(rng.integers(0, 60, size=(300, 2)), axis=1) + offset
    ends = ends[np.lexsort((ends[:, 1], ends[:, 0]))]
    iv_i, iv_j = ends[:, 0], ends[:, 1]
    iv_m = rng.integers(0, 8, size=300) * 0.125
    iv_c = rng.integers(0, 20, size=300) * 0.5
    v, tau = 1.0, 0.125
    slot_iv, bounds = _by_measure(iv_m, v, tau)
    count, u, w = _join(iv_i, iv_j, iv_c, slot_iv, bounds.copy(), search=True)
    assert _join(iv_i, iv_j, iv_c, slot_iv, bounds, search=False)[0] == count
    m = iv_m[:, None] + iv_m[None, :]
    pair = (iv_i[None, :] > iv_j[:, None]) & (v - tau <= m) & (m <= v + tau)
    assert count == pair.sum() > 0
    has = np.flatnonzero(pair.any(axis=1))
    least = [min(np.flatnonzero(row), key=lambda k: (iv_c[k], k)) for row in pair[has]]
    order = np.argsort(u)
    assert (u[order] == has).all() and (w[order] == least).all()


def test_cone_search_join_gets_under_one_percent_of_the_intervals(join_calls):
    # The criterion-6 cone: the rule c_u + min(c) <= bound kept about 21.6%
    # of the intervals for the search join, the partner window's least
    # content keeps under 1%.  The count join still gets them all.
    cone = WeightedInterval(math.inf, MonomialDensity(2.0 * math.pi, 1.0))
    cfg = SearchConfig(target_volume=0.0, volume_tolerance=1e-9, grid_points=512,
                       max_components=2)
    for v in (0.2, 1.0, 2.0):
        join_calls.clear()
        certify_bound(cone, 2.0, 1.0, [v], cfg)
        (total, counted), *searches = join_calls
        assert not counted and total > 10_000
        assert sum(kept for kept, _ in searches) < 0.01 * total


def _assert_matches_naive_and_reference(space, window, n, v, tau):
    out = _assert_join_matches(space, window, n, v, tau)
    assert _assert_matches_naive(space, window, n, v, tau, 2) == out
    return out


@pytest.mark.parametrize(
    "b, window, n, v, tau, expected",
    [
        (1.5, 3.0, 8, 0.9112614985597599, 0.02863169629325866, ((0.0, 0.0), (0.4286, 1.7143))),
        (2.0, 2.0, 9, 0.3168017015121583, 0.007683742651180248, ((0.0, 0.0), (1.0, 1.5))),
    ],
)
def test_two_component_tie_at_least_sum_goes_to_least_first_interval(
    b, window, n, v, tau, expected
):
    # h = x/b up to b, then 1: several first intervals tie at the least sum,
    # and only the (content, endpoints) order picks among them.
    space = WeightedInterval(3.0, PiecewiseMonomialDensity((b,), ((1.0 / b, 1.0), (1.0, 0.0))))
    out = _assert_matches_naive_and_reference(space, window, n, v, tau)
    assert np.allclose(out.best_set.components, expected, atol=1e-4)


@pytest.mark.parametrize(
    "n, v, tau, x", [(22, 0.52, 0.06, 1.4285714285714284), (37, 0.9, 0.08, 1.0555555555555556)]
)
def test_two_component_partner_tie_goes_to_least_second_interval(n, v, tau, x):
    # The space of the tied-partners test above, at sizes where the order of
    # the ranks among the partners [x, 2] of content 1 decides the answer: an
    # unstable sort of the contents reorders them.
    h = PiecewiseMonomialDensity((1.0,), ((1.0, 2.0), (1.0, 0.0)))
    out = _assert_matches_naive_and_reference(WeightedInterval(2.0, h), 2.0, n, v, tau)
    assert out.best_set.components == ((0.0, 0.0), (x, 2.0))


@pytest.mark.parametrize("n, avr, mass", [(1.01, 1e-6, 3.0), (2.0, 0.2, 1.0), (7.5, 40.0, 1e-4)])
def test_cone_constants_have_one_home(n, avr, mass):
    # The sharp density and certify_bound's half-line window take the model
    # cone's constants from profile.py, bit for bit.
    h = SharpDensity(avr, mass, n)
    assert h.tail_coefficient == math.exp(log_cone_coefficient(n, avr))
    assert h.x_star == cone_radius(n, avr, mass)
    assert h.level == avr_lower_bound(n, avr, mass)
    for v in (0.5 * mass, 2.0 * mass):
        assert _cone_window(n, avr, v) == 4.0 * cone_radius(n, avr, v)
