"""Brute-force boundary-minimization oracle over grid-aligned interval unions.

The search covers every union of at most max_components grid-aligned
closed intervals whose measure falls inside the volume window, and reports
the one of minimal boundary content.  One helper, _window, decides that
window exactly, for single intervals and pairs alike, as a naive
enumeration would; the ends of its windows come from one stable merge per
end (_merge_rank), in O(n), not from binary search.  It makes no claim
below grid resolution; certify_bound reports the discretization slack of
each row.

Each searched grid is built once: _grid_and_measures keeps the last grid,
so certify_bound and the brute_force_profile it calls per volume share it.

Single intervals are not listed: a range minimum of the right-end weights
over each start's window gives its least content.  Where those weights
never fall before the last grid point (a density that never falls, as on
the needles of a space with Euclidean volume growth), each minimum sits at
the window's first slot or at the last point, in O(n); else a sparse table
gives it in O(n log w).

Two-component unions are counted and searched in two parts, over one
measure order of the M candidate intervals and one pair window, both built
once per volume.  The count joins all M intervals but ranks none of them.
The search for the best pair joins only the intervals u with
c_u + least[lo_u] <= bound.  Here bound is the content of the best empty or
one-interval set (inf if there is none), lo_u the lower end of u's partner
window and least[p] the least content at measure slots >= p (inf past the
end).  Every partner w of u has its slot in u's window, so least[lo_u] <=
c_w, and the window is symmetric in u and w; rounding is monotone, so
fl(c_u + c_w) <= bound keeps both u and w, and every pair left out loses to
that set.  The test runs only on the u with c_u + min(c) <= bound, often
none.  On the needle the best set is mostly one interval [0, r], and few or
no intervals are kept.  A pair's window is symmetric in its two intervals,
so _pair_window reads about half of it off the other half.  The join's
level loop holds starts and ends as int16 on grids below 2**15 points.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .numerics import require_count, require_dimension, require_nonnegative, require_positive
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
        require_positive("volume_tolerance", self.volume_tolerance)
        require_nonnegative("target_volume", self.target_volume)
        if self.window is not None:
            require_positive("window", self.window)


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
    raise DomainError("searching a half-line space requires an explicit window")


def _cone_window(N: float, avr: float, volume: float) -> float:
    """Four radii of the cone ball of this volume; a DomainError past the float range."""
    with contextlib.suppress(OverflowError):
        window = 4.0 * cone_radius(N, avr, volume)
        if window < math.inf:
            return window
    raise DomainError(f"the search window leaves the float range at v={volume}, N={N}, avr={avr}")


# The last grid built: (space, window, grid_points, arrays).  It holds the
# space itself, so no later space can reuse its id.
_last_grid: tuple = (None, None, None, ())


def _grid_and_measures(space: WeightedInterval, window: float, grid_points: int):
    """The grid xs on [0, window], its prefix measures and the left- and
    right-end weights, as read-only arrays.  A prefix measure past the float
    range, also inside a table whose integral is finite, is a DomainError.

    The last grid is kept and served again to the same space object (not to
    an equal one), window and grid size: certify_bound reads a volume's gap
    and slack from the grid that brute_force_profile then searches."""
    global _last_grid
    last_space, last_window, last_points, arrays = _last_grid
    if last_space is space and last_window == window and last_points == grid_points:
        return arrays
    xs = np.linspace(0.0, window, grid_points)
    with np.errstate(over="ignore", invalid="ignore"):
        prefix = space.h.integral(0.0, xs)
    if not prefix.max() < math.inf:  # NaN if any prefix is
        raise DomainError(f"the prefix measures on the window [0, {window}] leave the float range")
    hv = space.h(xs)
    left_w = np.where(xs > 0.0, hv, 0.0)
    right_w = np.where(xs < space.D, hv, 0.0)
    arrays = (xs, prefix, left_w, right_w)
    for array in arrays:
        array.flags.writeable = False
    _last_grid = (space, window, grid_points, arrays)
    return arrays


def _range_min(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """min(values[lo[q]:hi[q]]) for every q, each range non-empty.

    Where the values never fall before the last one, a range's minimum is
    its first value, or the last value where that is less and the range
    reaches it: O(n).  Else (a fall, or a NaN, before the last value) from
    a sparse table whose row k holds the minima of the runs of 2**k values:
    O(n log w), w the widest range."""
    width = len(values)
    if np.all(values[1:-1] >= values[:-2]):
        least = values[lo]
        return np.minimum(least, values[-1], out=least, where=hi == width)
    k = np.frexp(hi - lo)[1].astype(np.intp) - 1  # floor(log2(hi - lo))
    table = np.empty((int(k.max()) + 1, width), dtype=values.dtype)
    table[0] = values
    for row in range(1, len(table)):
        half, runs = 1 << (row - 1), width - (1 << row) + 1
        np.minimum(table[row - 1, :runs], table[row - 1, half:half + runs], out=table[row, :runs])
    flat, at = table.ravel(), k * width
    return np.minimum(flat[at + lo], flat[at + hi - (1 << k)])


def _merge_rank(x, keys, side):
    """np.searchsorted(x, keys, side) for the ascending x and the monotone
    keys, from one stable merge: O(len(x) + len(keys)).

    A stable argsort of two sorted runs merges them.  On the left side the
    keys come first, so a key sorts before the values equal to it; on the
    right side after them.  The keys keep their order, so the one at rank k
    among them has k keys before it in the merge and the rest are values.
    Descending keys are merged reversed and their ranks reversed back."""
    flip = keys[0] > keys[-1]
    if flip:
        keys = keys[::-1]
    if side == "left":
        merged = np.argsort(np.concatenate((keys, x)), kind="stable")
        at = np.flatnonzero(merged < len(keys))
    else:
        merged = np.argsort(np.concatenate((x, keys)), kind="stable")
        at = np.flatnonzero(merged >= len(x))
    at -= np.arange(len(keys))
    return at[::-1] if flip else at


def _window(x, a, v, tau):
    """For each offset in the monotone array a, the slot range [lo, hi) of
    the k with v - tau <= fl(a + x[k]) <= v + tau in the ascending array x,
    as the rows (lo, hi) of one array; lo <= hi, as fl(v - tau) <= fl(v + tau).

    Each end is the rank of a key widened past the rounding of a + x[k]
    among x, from one stable merge (_merge_rank), so it starts at or
    outside its exact place.  fl(a + x[k]) is monotone in x[k], so an end
    moves inward, one distinct value at a time, only while the exact test
    fails; few queries sit that close to an end."""
    ends = np.abs([x[0], x[-1], a[0], a[-1]])  # |x| and |a| peak at their ends
    widen = 16.0 * np.finfo(float).eps * (ends[:2].max() + ends[2:].max() + abs(v) + tau)
    bounds = np.empty((2, len(a)), dtype=np.intp)
    bounds[0] = _merge_rank(x, v - tau - widen - a, side="left")
    bounds[1] = _merge_rank(x, v + tau + widen - a, side="right")
    lo, hi = bounds
    # x_ext[len(x)] = inf and x_ext[-1] = -inf stand for the slots past
    # either end, which end the moves.
    x_ext = np.concatenate((x, [math.inf, -math.inf]))
    out = np.flatnonzero(a + x_ext[lo] < v - tau)
    while len(out):
        lo[out] = np.searchsorted(x, x[lo[out]], side="right")
        out = out[a[out] + x_ext[lo[out]] < v - tau]
    out = np.flatnonzero(a + x_ext[hi - 1] > v + tau)
    while len(out):
        hi[out] = np.searchsorted(x, x[hi[out] - 1], side="left")
        out = out[a[out] + x_ext[hi[out] - 1] > v + tau]
    return bounds


def _pair_window(x, v, tau):
    """_window(x, x[::-1], v, tau) for the ascending array x, with _window run
    on the tail of offsets only.

    Let f(k) = #{l : fl(x_l + x_k) < v - tau}, the lower end for offset x_k.
    fl(x_k + x_l) = fl(x_l + x_k), so f(k) > l iff f(l) > k.  The K offsets
    with fl(x_k + x_k) < v - tau lie in their own prefix, so for k < K every
    l < K counts and f(k) = K + #{l >= K : f(l) > k}, where each f(l) <= K.
    The upper end, with <= v + tau, follows the same way from its own K."""
    m = len(x)
    doubled = x + x  # fl(x_k + x_k), ascending as x is
    heads = (np.searchsorted(doubled, v - tau, side="left"),
             np.searchsorted(doubled, v + tau, side="right"))
    bounds = np.empty((2, m), dtype=np.intp)  # C order: the join's gathers read it row-wise
    if heads[0] < m:
        bounds[:, :m - heads[0]] = _window(x, x[heads[0]:][::-1], v, tau)
    for end, k in zip(bounds, heads):
        # end[:m - k] holds the offsets k..m-1 in descending order, end[m - k:]
        # the head, descending too: #{l >= k : end > t} for t = k - 1, ..., 0.
        end[m - k:] = k + np.cumsum(np.bincount(end[:m - k], minlength=k + 1)[:0:-1])
    return bounds


def _by_measure(iv_m, v, tau):
    """The slot order of the intervals by measure and its pair window, as
    _join takes them."""
    slot_iv = np.argsort(iv_m)  # a range takes or leaves all of a tie
    return slot_iv, _pair_window(iv_m[slot_iv], v, tau)


def _prune(iv_c, slot_iv, lo, bound):
    """The intervals u, ascending, with c_u + least[lo_u] <= bound: least[p]
    is the least content at slots >= p (inf past the end) and lo the lower
    ends of the pair window, queries by descending measure.  The test runs
    only on the u with c_u + min(c) <= bound, often none; it keeps both
    intervals of every pair that can beat or tie bound (module docstring)."""
    cheap = np.flatnonzero(iv_c + iv_c.min() <= bound)
    if not len(cheap):
        return cheap
    total = len(iv_c)
    least = np.empty(total + 1)
    least[total] = math.inf
    least[:total] = np.minimum.accumulate(iv_c[slot_iv[::-1]])[::-1]
    slot = np.empty(total, dtype=np.intp)
    slot[slot_iv] = np.arange(total)
    # lo holds the queries by descending measure: u's is at total - 1 - slot.
    lo_cheap = lo[total - 1 - slot[cheap]]
    return cheap[iv_c[cheap] + least[lo_cheap] <= bound]


def _join(iv_i, iv_j, iv_c, slot_iv, bounds, search):
    """The two-component join over the given intervals, each one both a
    first interval u = (i1, j1) and a second one.

    Returns the count of pairs with i2 > j1 and v - tau <= m1 + m2 <= v + tau
    and, if search, for each u that has a partner the least one in
    (content, i, j) order, as index arrays (u, w); else (count, None, None).
    The intervals, at least one, must come in (i, j) order.  (slot_iv,
    bounds) = _by_measure(m, v, tau) sorts them by measure m and holds each
    u's slot range [lo, hi), queries by descending m1; the join moves bounds
    in place, so a caller that reads them again passes a copy.

    Slots order the intervals by measure, so u asks about one slot range
    [lo, hi), symmetric in u and its partner (_pair_window), and ranks order
    them by (content, i, j).  A wavelet matrix over the slots, keyed by the
    start i2, answers every range at once in one level per bit of the
    largest end j (no start exceeds it).  Level b splits the slots on bit b
    of i2, zeros first, each side in the order of the level above (the
    slots of equal higher bits stay contiguous).  A range follows the side
    of bit b of j1; where that bit is 0, the range's ones all have i2 > j1
    (their higher bits equal those of j1), so they are counted and, if
    search, _range_min over the ones' ranks gives their least rank.  What
    is left after bit 0 has i2 = j1, no partner.
    """
    total = len(iv_i)
    # Counts and ranks are at most total; int32 halves their traffic, and
    # int16 starts and ends halve it again on grids below 2**15 points.
    small = np.int32 if total < 2**31 else np.intp
    levels = int(iv_j.max()).bit_length()
    coord = np.int16 if levels <= 15 else small
    first = slot_iv[::-1]  # queries by descending m1
    j1 = iv_j[first].astype(coord)
    start = iv_i[slot_iv].astype(coord)
    if search:
        by_rank = np.argsort(iv_c, kind="stable")  # ties keep (i, j) order
        rank = np.empty(total, dtype=small)
        rank[by_rank] = np.arange(total)
        slot_rank = rank[slot_iv]
        least = np.full(total, total, dtype=np.intp)  # total: no partner
    examined = 0
    ones_before = np.zeros(total + 1, dtype=small)
    for b in reversed(range(levels)):
        # Stable order putting the slots whose start has bit b clear first;
        # ones_before[p] counts the set bits in start[:p].
        bit = (start >> b) & 1
        np.cumsum(bit, dtype=small, out=ones_before[1:])
        is_one = bit.astype(bool)
        order = np.concatenate((np.flatnonzero(~is_one), np.flatnonzero(is_one)))
        start = start[order]
        zero_count = total - int(ones_before[-1])
        ones = ones_before[bounds]
        follow_ones = (j1 >> b) & 1
        found = ones[1] - ones[0]
        found *= 1 - follow_ones
        examined += int(found.sum())
        if search:
            slot_rank = slot_rank[order]
            take = np.flatnonzero(found)
            if len(take):
                level_least = _range_min(slot_rank[zero_count:], ones[0, take], ones[1, take])
                least[take] = np.minimum(least[take], level_least)
        # A bound p moves to p - ones among the zeros or to zero_count + ones
        # among the ones.  Blending in place stands in for np.where, which a
        # mask as irregular as these bits makes several times slower.
        bounds -= ones
        ones += zero_count
        ones -= bounds
        ones *= follow_ones
        bounds += ones
    if not search:
        return examined, None, None
    has = least < total
    return examined, first[has], by_rank[least[has]]


def brute_force_profile(space: WeightedInterval, cfg: SearchConfig) -> SearchOutcome:
    """Minimal boundary content over grid-aligned interval unions.

    Searches all unions of <= max_components intervals with endpoints on
    the grid whose measure lies within volume_tolerance of target_volume;
    the grid spans [0, window], and a half-line space needs a window.
    Ties in content go to the lexicographically smallest endpoint list;
    sets_examined counts the candidates that met the volume window.

    A component may be one grid point [x_i, x_i], as IntervalUnion allows.
    So where h(0) = 0 a two-component search can report the one-interval
    set [a, b] as [[0.0, 0.0], [a, b]], and sets_examined counts such
    unions.

    One component costs O(n) time and memory on n grid points where the
    right-end weights never fall before the last point, else O(n log w), w
    the widest window of one start, with no interval arrays.  Two components
    list the M intervals light enough for a pair, for the join only: a
    wavelet matrix over their starts, O(M log M * log n) numpy work in two
    parts that share one measure order and pair window; the best pair is
    searched only among the intervals whose least partner content in that
    window can beat or tie the best single set (module docstring).  _window
    decides exactly which intervals and pairs meet the window,
    v - tau <= fl(m) <= v + tau, as naive enumeration.
    """
    window = _resolve_window(space, cfg)
    xs, prefix, left_w, right_w = _grid_and_measures(space, window, cfg.grid_points)
    v, tau = cfg.target_volume, cfg.volume_tolerance

    # (content, endpoints) of the best empty, one- and two-component sets; the least wins.
    candidates: list[tuple[float, tuple[float, ...]]] = []
    examined = 0
    if abs(v) <= tau:
        candidates.append((0.0, ()))
        examined += 1

    # [x_i, x_j] meets the window exactly where max(lo[i], i) <= j < hi[i],
    # as fl(prefix[j] - prefix[i]) is fl(-prefix[i] + prefix[j]).
    starts = np.arange(len(xs))
    lo, hi = _window(prefix, -prefix, v, tau)
    j_lo = np.maximum(lo, starts)
    rows = np.flatnonzero(hi > j_lo)
    examined += int((hi[rows] - j_lo[rows]).sum())
    if len(rows):
        # fl(left_w[i] + r) is monotone in r.  The first row of least content
        # wins, and in it the first j of least rounded sum: (i, j) tie order.
        i = rows[np.argmin(left_w[rows] + _range_min(right_w, j_lo[rows], hi[rows]))]
        j = j_lo[i] + np.argmin(left_w[i] + right_w[j_lo[i]:hi[i]])
        candidates.append((float(left_w[i] + right_w[j]), (float(xs[i]), float(xs[j]))))

    if cfg.max_components == 2:
        # Every interval j < hi[i] (hi[i] > i) in (i, j) order.  Measures
        # are >= 0, so one past v + tau is in no pair: fl(m1 + m2) >= m1.
        counts = hi - starts
        iv_i = np.repeat(starts, counts)
        iv_j = np.arange(len(iv_i)) - np.repeat(np.cumsum(counts) - hi, counts)
        iv_c = left_w[iv_i] + right_w[iv_j]
        iv_m = prefix[iv_j] - prefix[iv_i]
        # The count and the prune share one measure order and pair window.
        slot_iv, bounds = _by_measure(iv_m, v, tau)
        # Only a pair of kept intervals can beat or tie the best set so far
        # (module docstring); the count needs all of them but no ranks.
        bound = min(candidates)[0] if candidates else math.inf
        kept = _prune(iv_c, slot_iv, bounds[0], bound)
        pairs, _, _ = _join(iv_i, iv_j, iv_c, slot_iv, bounds, search=False)
        examined += pairs
        u = w = kept[:0]
        if len(kept):
            kept_arrays = (a[kept] for a in (iv_i, iv_j, iv_c))
            _, u, w = _join(*kept_arrays, *_by_measure(iv_m[kept], v, tau), search=True)
            u, w = kept[u], kept[w]

        # Best partner per u first, then the least (content, endpoints) over u.
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
        raise DomainError(
            f"no grid-aligned candidate has measure within {tau} of {v}; "
            "refine the grid or widen the volume tolerance"
        )
    content, endpoints = min(candidates)
    components = [(endpoints[k], endpoints[k + 1]) for k in range(0, len(endpoints), 2)]
    return SearchOutcome(IntervalUnion(components), content, examined)


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
    gap so the window is always feasible.  Each volume builds one grid: the
    brute_force_profile call that searches it gets the grid the gap and slack
    were read from.  A window or a slack that leaves the float range is a
    DomainError naming the volume, N and avr; the window is checked before
    its grid is built.
    """
    N = require_dimension(N)
    avr_value = require_nonnegative("avr", avr_value)
    volumes = [require_nonnegative("swept volume", float(v)) for v in volumes]
    if not volumes:
        raise DomainError("certification needs at least one volume")
    rows = []
    for v in volumes:
        if cfg.window is None and not math.isfinite(space.D):
            if avr_value <= 0.0:
                raise DomainError("half-line certification needs avr > 0 to size the window")
            # At v = 0 the window is sized as for the volume tolerance.
            window = _cone_window(N, avr_value, max(v, cfg.volume_tolerance))
        else:
            window = _resolve_window(space, cfg)
        _, prefix, left_w, right_w = _grid_and_measures(space, window, cfg.grid_points)
        gap = float(np.diff(prefix).max())
        max_h = float(np.maximum(left_w, right_w).max())
        slack = gap * max_h
        if not math.isfinite(slack):
            raise DomainError(
                f"the slack gap * max h = {gap} * {max_h} leaves the float range "
                f"at v={v}, N={N}, avr={avr_value}"
            )
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
