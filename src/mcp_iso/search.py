"""Brute-force boundary-minimization oracle over grid-aligned interval unions.

The search enumerates every union of at most max_components grid-aligned
closed intervals whose measure falls inside the volume window, and reports
the one of minimal boundary content.  It makes no claim below grid
resolution; the discretization slack is reported explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .density import SharpDensity
from .errors import DomainError, InfeasibleSearchError
from .numerics import require_dimension, unit_ball_volume
from .profile import avr_lower_bound
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
        if self.grid_points < 2:
            raise DomainError(f"grid_points must be >= 2, got {self.grid_points}")
        if self.max_components not in (1, 2):
            raise DomainError(f"max_components must be 1 or 2, got {self.max_components}")
        if not self.volume_tolerance > 0.0:
            raise DomainError("volume_tolerance must be positive")
        if self.target_volume < 0.0:
            raise DomainError("target_volume must be non-negative")
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
        ref = max(cfg.target_volume, h.mass)
        return 4.0 * (ref / h.tail_coefficient) ** (1.0 / h.N)
    raise DomainError("searching a half-line space requires an explicit window")


def _grid_and_measures(space: WeightedInterval, window: float, grid_points: int):
    xs = np.linspace(0.0, window, grid_points)
    prefix = space.h.integral(0.0, xs)
    hv = space.h(xs)
    left_w = np.where(xs > 0.0, hv, 0.0)
    right_w = np.where(xs < space.D, hv, 0.0)
    return xs, prefix, left_w, right_w


def _grid_slack(prefix: np.ndarray, hv_max: float) -> float:
    return float(np.diff(prefix).max()) * hv_max


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


def brute_force_profile(space: WeightedInterval, cfg: SearchConfig) -> SearchOutcome:
    """Minimal boundary content over grid-aligned interval unions.

    Enumerates all unions of <= max_components intervals with endpoints on
    the grid whose measure lies within volume_tolerance of target_volume.
    Ties in content go to the lexicographically smallest endpoint list;
    sets_examined counts the candidates that met the volume window.
    """
    window = _resolve_window(space, cfg)
    xs, prefix, left_w, right_w = _grid_and_measures(space, window, cfg.grid_points)
    v, tau = cfg.target_volume, cfg.volume_tolerance
    n = len(xs)

    best: Optional[tuple[float, tuple[float, ...]]] = None
    examined = 0

    def consider(content: float, endpoints: tuple[float, ...]) -> None:
        nonlocal best
        cand = (content, endpoints)
        if best is None or cand < best:
            best = cand

    if abs(v) <= tau:
        consider(0.0, ())
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
        cand_c = iv_c[singles]
        cand_i = iv_i[singles]
        cand_j = iv_j[singles]
        order = np.lexsort((cand_j, cand_i, cand_c))
        k = order[0]
        consider(float(cand_c[k]), (float(xs[cand_i[k]]), float(xs[cand_j[k]])))

    if cfg.max_components == 2 and len(iv_i) > 0:
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
                hi_m = v + tau - m1
                if hi_m < 0.0:
                    continue
                lo_m = max(v - tau - m1, 0.0)
                a = int(np.searchsorted(m_sorted, lo_m, side="left"))
                b = int(np.searchsorted(m_sorted, hi_m, side="right"))
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

    if best is None:
        raise InfeasibleSearchError(
            f"no grid-aligned candidate has measure within {tau} of {v}; "
            "refine the grid or widen the volume tolerance"
        )
    content, endpoints = best
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
    if avr_value < 0.0:
        raise DomainError("avr must be non-negative")
    rows = []
    for v in volumes:
        v = float(v)
        if v < 0.0:
            raise DomainError(f"swept volume must be non-negative, got {v}")
        if cfg.window is None and not math.isfinite(space.D):
            if avr_value <= 0.0:
                raise DomainError("half-line certification needs avr > 0 to size the window")
            window = 4.0 * (v / (N * unit_ball_volume(N) * avr_value)) ** (1.0 / N)
        else:
            window = _resolve_window(space, cfg)
        xs, prefix, _, _ = _grid_and_measures(space, window, cfg.grid_points)
        hv_max = float(space.h(xs).max())
        slack = _grid_slack(prefix, hv_max)
        gap = float(np.diff(prefix).max())
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
