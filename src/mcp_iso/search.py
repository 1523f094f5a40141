"""Brute-force boundary-minimization oracle over grid-aligned interval unions.

The search enumerates every union of at most max_components grid-aligned
closed intervals whose measure falls inside the volume window, and reports
the one of minimal boundary content.  It makes no claim below grid
resolution; certify_bound reports the discretization slack of each row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .density import SharpDensity
from .errors import DomainError, InfeasibleSearchError
from .numerics import require_count, require_dimension
from .profile import avr_lower_bound, cone_radius
from .space import IntervalUnion, WeightedInterval

__all__ = [
    "SearchConfig",
    "SearchOutcome",
    "CertifyRow",
    "CertifyReport",
    "brute_force_profile",
    "certify_bound",
]


@dataclass(frozen=True)
class SearchConfig:
    target_volume: float
    volume_tolerance: float
    grid_points: int = 512
    max_components: int = 1
    window: Optional[float] = None  # right end of the search window; default [0, D]

    def __post_init__(self):
        require_count("grid_points", self.grid_points, 2)
        if require_count("max_components", self.max_components, 1) > 2:
            raise DomainError(f"max_components must be 1 or 2, got {self.max_components}")
        if not 0.0 < self.volume_tolerance < math.inf:
            raise DomainError("volume_tolerance must be positive and finite")
        if not 0.0 <= self.target_volume < math.inf:
            raise DomainError(f"target_volume must be finite and >= 0, got {self.target_volume}")
        if self.window is not None and not (
            math.isfinite(self.window) and self.window > 0.0
        ):
            raise DomainError(f"window must be positive and finite, got {self.window}")


@dataclass(frozen=True)
class SearchOutcome:
    best_set: IntervalUnion
    content: float
    sets_examined: int


def _resolve_window(space: WeightedInterval, cfg: SearchConfig) -> float:
    if cfg.window is not None:
        if math.isfinite(space.D) and cfg.window > space.D:
            raise DomainError(f"window {cfg.window} exceeds the domain [0, {space.D}]")
        return float(cfg.window)
    if math.isfinite(space.D):
        return space.D
    h = space.h
    if isinstance(h, SharpDensity):
        # The extremal set and its competitors at comparable volume live well
        # inside four switch radii.
        return 4.0 * cone_radius(h.N, h.avr, max(cfg.target_volume, h.mass))
    raise DomainError("searching a half-line space requires an explicit window")


def _grid_and_measures(space: WeightedInterval, window: float, grid_points: int):
    xs = np.linspace(0.0, window, grid_points)
    prefix = space.h.integral(0.0, xs)
    hv = space.h(xs)
    left_w = np.where(xs > 0.0, hv, 0.0)
    right_w = np.where(xs < space.D, hv, 0.0)
    return xs, prefix, left_w, right_w


def brute_force_profile(space: WeightedInterval, cfg: SearchConfig) -> SearchOutcome:
    """Minimal boundary content over grid-aligned interval unions.

    Enumerates all unions of <= max_components intervals with endpoints on
    the grid whose measure lies within volume_tolerance of target_volume.
    Ties in content go to the lexicographically smallest endpoint list;
    sets_examined counts the candidates that met the volume window.

    A component may be one grid point [x_i, x_i], as IntervalUnion allows.
    So where h(0) = 0 a two-component search can report the one-interval
    set [a, b] as [[0.0, 0.0], [a, b]], and sets_examined counts such
    unions.  The two-component join costs O(M log^2 M) for M candidate
    intervals, all of it in numpy.
    """
    window = _resolve_window(space, cfg)
    xs, prefix, left_w, right_w = _grid_and_measures(space, window, cfg.grid_points)
    v, tau = cfg.target_volume, cfg.volume_tolerance
    n = len(xs)

    # (content, endpoints) of the best empty, one- and two-component sets; the least wins.
    candidates: list[tuple[float, tuple[float, ...]]] = []
    examined = 0
    if abs(v) <= tau:
        candidates.append((0.0, ()))
        examined += 1

    # Every interval [x_i, x_j] light enough to take part, ordered by (i, j):
    # measure <= v + tau, and with one component also >= v - tau.  That lower
    # end is widened past the rounding of the prefix sums and then applied
    # exactly below, so the window loses no interval.
    starts = np.arange(n)
    j_hi = np.searchsorted(prefix, prefix + v + tau, side="right") - 1
    j_lo = starts
    if cfg.max_components == 1:
        widen = 16.0 * np.finfo(float).eps * (np.abs(prefix).max() + abs(v) + tau)
        lower = np.searchsorted(prefix, prefix + (v - tau - widen), side="left")
        j_lo = np.maximum(lower, starts)
    counts = np.maximum(j_hi - j_lo + 1, 0)
    iv_i = np.repeat(starts, counts)
    iv_j = np.arange(len(iv_i)) - np.repeat(np.cumsum(counts) - counts - j_lo, counts)
    iv_m = prefix[iv_j] - prefix[iv_i]
    iv_c = left_w[iv_i] + right_w[iv_j]

    # Single intervals inside the window.
    singles = iv_m >= v - tau
    examined += int(singles.sum())
    if singles.any():
        # The intervals come in (i, j) order, so the first least content wins.
        single = np.flatnonzero(singles)
        k = single[np.argmin(iv_c[single])]
        candidates.append((float(iv_c[k]), (float(xs[iv_i[k]]), float(xs[iv_j[k]]))))

    if cfg.max_components == 2 and len(iv_i) > 0:
        # Join every first interval u = (i1, j1) at once: count the second
        # intervals with i2 > j1 and measure in [max(v - tau - m1, 0),
        # v + tau - m1], and find the least (content, i2, j2) among them.
        # Slots order the intervals by measure, so u asks about one slot
        # range [lo, hi), and ranks order them by (content, i, j).  A static
        # merge-sort tree answers every range bottom-up: at level l, node t
        # holds slots [t << l, (t + 1) << l) sorted by descending start, so
        # "i2 > j1" is a prefix of the node, found by one searchsorted, and a
        # running max of t * (total + 1) - rank over the node gives the
        # prefix's least rank.
        total = len(iv_i)
        slots = np.arange(total)
        slot_iv = np.argsort(iv_m)  # a range takes or leaves all of a tie
        m_sorted = iv_m[slot_iv]
        by_rank = np.argsort(iv_c, kind="stable")  # ties keep (i, j) order
        rank = np.empty(total, dtype=np.int64)
        rank[by_rank] = slots
        slot_rank = rank[slot_iv]
        slot_after = n - iv_i[slot_iv]  # i2 > j1  <=>  n - i2 <= n - 1 - j1

        # Queries by descending m1, so lo, hi and the searched keys ascend.
        first = slot_iv[::-1]
        after = n - 1 - iv_j[first]
        hi_m = v + tau - iv_m[first]
        lo = np.searchsorted(m_sorted, np.maximum(v - tau - iv_m[first], 0.0), side="left")
        hi = np.where(hi_m < 0.0, 0, np.searchsorted(m_sorted, hi_m, side="right"))
        partners = np.zeros(total, dtype=np.int64)
        least = np.full(total, total, dtype=np.int64)  # total: no partner
        level = 0
        while (live := lo < hi).any():
            node = slots >> level  # of each slot, and of each position once sorted
            key = node * (n + 1) + slot_after
            order = np.argsort(key)
            key = key[order]
            run_max = np.maximum.accumulate(node * (total + 1) - slot_rank[order])
            take_lo = np.flatnonzero(live & (lo & 1 == 1))
            take_hi = np.flatnonzero(live & (hi & 1 == 1))
            for take, t in ((take_lo, lo[take_lo]), (take_hi, hi[take_hi] - 1)):
                p = np.searchsorted(key, t * (n + 1) + after[take], side="right")
                found = p - (t << level)
                partners[take] += found
                node_least = np.where(found > 0, t * (total + 1) - run_max[p - 1], total)
                least[take] = np.minimum(least[take], node_least)
            # Step past the taken nodes; a spent range (lo >= hi) stays spent.
            lo = (lo + 1) >> 1
            hi >>= 1
            level += 1
        examined += int(partners.sum())

        # Best partner per u first, then the least (content, endpoints) over u.
        u = first[least < total]
        w = by_rank[least[least < total]]
        finite = iv_c[w] < math.inf  # a partner of infinite content is no candidate
        u, w = u[finite], w[finite]
        if len(u):
            c = iv_c[u] + iv_c[w]
            # One partner per u: a tie at the least sum goes to the least u.
            tied = np.flatnonzero(c == c.min())
            k = tied[np.argmin(u[tied])]
            ends_k = (iv_i[u[k]], iv_j[u[k]], iv_i[w[k]], iv_j[w[k]])
            candidates.append((float(c[k]), tuple(float(xs[e]) for e in ends_k)))

    if not candidates:
        raise InfeasibleSearchError(
            f"no grid-aligned candidate has measure within {tau} of {v}; "
            "refine the grid or widen the volume tolerance"
        )
    content, endpoints = min(candidates)
    components = [(endpoints[k], endpoints[k + 1]) for k in range(0, len(endpoints), 2)]
    return SearchOutcome(IntervalUnion.of(components), content, examined)


@dataclass(frozen=True)
class CertifyRow:
    v: float
    content: float
    bound: float
    margin: float
    slack: float
    best_set: IntervalUnion


@dataclass(frozen=True)
class CertifyReport:
    rows: tuple[CertifyRow, ...]
    passed: bool


def certify_bound(
    space: WeightedInterval,
    N: float,
    avr_value: float,
    volumes: Sequence[float],
    cfg: SearchConfig,
) -> CertifyReport:
    """Sweep volumes and assert searched content >= volume-growth bound - slack.

    cfg.target_volume is ignored; each swept volume replaces it.  The slack
    of a row is (max consecutive-gridpoint measure gap) * (max h on the
    window), and the per-volume tolerance is widened to at least the measure
    gap so the window is always feasible.
    """
    N = require_dimension(N)
    if not 0.0 <= avr_value < math.inf:
        raise DomainError(f"avr must be non-negative and finite, got {avr_value}")
    volumes = [float(v) for v in volumes]
    if not volumes:
        raise DomainError("certification needs at least one volume")
    for v in volumes:
        if not 0.0 <= v < math.inf:
            raise DomainError(f"swept volume must be non-negative and finite, got {v}")
    rows = []
    for v in volumes:
        if cfg.window is None and not math.isfinite(space.D):
            if avr_value <= 0.0:
                raise DomainError("half-line certification needs avr > 0 to size the window")
            window = 4.0 * cone_radius(N, avr_value, v)
        else:
            window = _resolve_window(space, cfg)
        _, prefix, left_w, right_w = _grid_and_measures(space, window, cfg.grid_points)
        gap = float(np.diff(prefix).max())
        slack = gap * float(np.maximum(left_w, right_w).max())  # max h on the grid
        run_cfg = replace(
            cfg,
            target_volume=v,
            volume_tolerance=max(cfg.volume_tolerance, 1.05 * gap),
            window=window,
        )
        outcome = brute_force_profile(space, run_cfg)
        bound = avr_lower_bound(N, avr_value, v)
        rows.append(
            CertifyRow(v, outcome.content, bound, outcome.content - bound, slack, outcome.best_set)
        )
    passed = all(row.margin >= -row.slack for row in rows)
    return CertifyReport(tuple(rows), passed)
