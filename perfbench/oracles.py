"""Output checks made apart from the program.

Every check recomputes what an operation must return from formulas written
here: closed-form densities and prefix measures in numpy, a naive O(n^4)
enumeration of two-component sets, an O(n) monotonicity form of the density
ratio bounds, and the model profile solved in mpmath at 50 digits.  Each
``check_*`` function takes the cases of one round and their outputs and
returns a list of problems; an empty list means every output is right.
"""

from __future__ import annotations

import csv
import dataclasses
import math

import numpy as np

REL_TOL = 1e-12  # the program's default rel_tol, used by its ratio checks


# ---------------------------------------------------------------- densities


def unit_ball_volume(N: float) -> float:
    return math.pi ** (N / 2.0) / math.gamma(N / 2.0 + 1.0)


def _sharp_constants(h):
    tc = h.N * unit_ball_volume(h.N) * h.avr
    x_star = (h.mass / tc) ** (1.0 / h.N)
    level = tc ** (1.0 / h.N) * h.mass ** ((h.N - 1.0) / h.N)
    return tc, x_star, level


def h_values(h, x) -> np.ndarray:
    """The density at the points x, from its parameters."""
    x = np.asarray(x, dtype=float)
    if h.kind == "constant":
        return np.full_like(x, h.c)
    if h.kind == "monomial":
        return h.c * x ** h.p
    if h.kind == "piecewise_monomial":
        k = np.searchsorted(np.asarray(h.break_values), x, side="left")
        c = np.asarray([c for c, _ in h.pieces])[k]
        p = np.asarray([p for _, p in h.pieces])[k]
        return c * x ** p
    if h.kind == "paper_sharp":
        tc, x_star, level = _sharp_constants(h)
        return np.where(x <= x_star, level, tc * x ** (h.N - 1.0))
    if h.kind == "tabulated":
        return np.interp(x, np.asarray(h.grid), np.asarray(h.values))
    raise ValueError(f"no formula for density kind {h.kind}")


def cumulative(h, x) -> np.ndarray:
    """The integral of the density over [0, x], in closed form."""
    x = np.asarray(x, dtype=float)
    if h.kind == "monomial":
        q = h.p + 1.0
        return h.c * x ** q / q
    if h.kind == "piecewise_monomial":
        bounds = (0.0,) + tuple(h.break_values) + (math.inf,)
        total = np.zeros_like(x)
        for (c, p), lo, hi in zip(h.pieces, bounds, bounds[1:]):
            top = np.clip(x, lo, hi)
            q = p + 1.0
            total += c * (top ** q - lo ** q) / q
        return total
    if h.kind == "paper_sharp":
        tc, x_star, level = _sharp_constants(h)
        flat = level * np.minimum(x, x_star)
        top = np.maximum(x, x_star)
        return flat + tc * (top ** h.N - x_star ** h.N) / h.N
    raise ValueError(f"no closed-form integral for density kind {h.kind}")


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


# ------------------------------------------------------------ certification


def _certify_grid(case):
    """Window, grid, prefix measures, window tolerance and slack of one row."""
    space, N = case.space, case.N
    if math.isinf(space.D):
        window = 4.0 * (case.v / (N * unit_ball_volume(N) * case.avr)) ** (1.0 / N)
    else:
        window = space.D
    xs = np.linspace(0.0, window, case.grid)
    prefix = cumulative(space.h, xs)
    gap = float(np.diff(prefix).max())
    tau = max(1e-9, 1.05 * gap)
    slack = gap * float(h_values(space.h, xs).max())
    return window, xs, prefix, tau, slack


def _content(space, components) -> float:
    total = 0.0
    for s, t in components:
        if s > 0.0:
            total += float(h_values(space.h, s))
        if t < space.D:
            total += float(h_values(space.h, t))
    return total


def _check_row(case, report, problems: list) -> tuple:
    """Checks shared by both search workloads; returns the oracle grid."""
    tag = case.label
    if len(report.rows) != 1:
        problems.append(f"{tag}: {len(report.rows)} rows for one volume")
        return None
    row = report.rows[0]
    window, xs, prefix, tau, slack = _certify_grid(case)
    if case.avr > 0.0:
        N = case.N
        bound = (N * unit_ball_volume(N) * case.avr) ** (1.0 / N) * case.v ** ((N - 1.0) / N)
    else:
        bound = 0.0
    if not _close(row.bound, bound, 1e-12):
        problems.append(f"{tag}: bound {row.bound!r} != {bound!r}")
    if not _close(row.slack, slack, 1e-9):
        problems.append(f"{tag}: slack {row.slack!r} != {slack!r}")
    if not _close(row.margin, row.content - row.bound, 1e-12, 1e-15):
        problems.append(f"{tag}: margin is not content - bound")
    # The theorem: no set beats the volume-growth bound beyond grid slack.
    if not (row.content >= row.bound - row.slack and report.passed):
        problems.append(f"{tag}: content {row.content!r} < bound - slack")
    if case.designed and not abs(row.content - row.bound) <= 2.0 * row.slack:
        problems.append(f"{tag}: designed volume misses the bound by > 2 slack")
    comps = row.best_set.components
    if not 1 <= len(comps) <= case.components:
        problems.append(f"{tag}: best set has {len(comps)} components")
    ends = np.asarray([e for c in comps for e in c])
    on_grid = np.abs(ends[:, None] - xs[None, :]).min(axis=1) <= 1e-12 * window
    if not on_grid.all() or np.any(np.diff(ends) < 0.0):
        problems.append(f"{tag}: best set {comps} is not grid-aligned and ordered")
    content = _content(case.space, comps)
    if not _close(row.content, content, 1e-12, 1e-15):
        problems.append(f"{tag}: content {row.content!r} != recomputed {content!r}")
    mass = sum(float(cumulative(case.space.h, t) - cumulative(case.space.h, s)) for s, t in comps)
    if not abs(mass - case.v) <= tau * (1.0 + 1e-9) + 1e-12:
        problems.append(f"{tag}: best set measure {mass!r} outside {case.v!r} +- {tau!r}")
    return xs, prefix, tau


def _weights(space, xs):
    hv = h_values(space.h, xs)
    left = np.where(xs > 0.0, hv, 0.0)
    right = np.where(xs < space.D, hv, 0.0)
    return left, right


def single_interval_search(space, xs, prefix, v, tau, block: int = 256):
    """Best content and count of [x_i, x_j] with |m - v| <= tau, i <= j."""
    left, right = _weights(space, xs)
    n = len(xs)
    best = (math.inf, -1, -1)
    count = 0
    cols = np.arange(n)
    for i0 in range(0, n, block):
        rows = np.arange(i0, min(i0 + block, n))
        m = prefix[None, :] - prefix[rows, None]
        ok = (cols[None, :] >= rows[:, None]) & (m >= v - tau) & (m <= v + tau)
        count += int(ok.sum())
        if ok.any():
            c = np.where(ok, left[rows, None] + right[None, :], math.inf)
            k = int(np.argmin(c))  # row-major: ties go to the smallest (i, j)
            i, j = divmod(k, n)
            cand = (float(c[i, j]), int(rows[i]), j)
            if cand < best:
                best = cand
    return best, count


def naive_two_component(space, xs, prefix, v, tau):
    """O(n^4) enumeration of the empty set, one and two disjoint intervals."""
    left, right = _weights(space, xs)
    n = len(xs)
    intervals = [
        (float(prefix[j] - prefix[i]), float(left[i] + right[j]), i, j)
        for i in range(n)
        for j in range(i, n)
    ]
    best = None
    count = 0
    if abs(v) <= tau:
        best, count = (0.0, ()), 1
    for m, c, i, j in intervals:
        if v - tau <= m <= v + tau:
            count += 1
            cand = (c, (i, j))
            best = cand if best is None or cand < best else best
        for m2, c2, i2, j2 in intervals:
            if i2 > j and v - tau <= m + m2 <= v + tau:
                count += 1
                cand = (c + c2, (i, j, i2, j2))
                best = cand if best is None or cand < best else best
    return best, count


def check_certify(cases, outputs, small_grids=(12, 16, 20)) -> list:
    """certify-2c: theorem property, recomputed rows, naive small grids."""
    from mcp_iso import SearchConfig, search

    problems = []
    for case, (report, _) in zip(cases, outputs):
        _check_row(case, report, problems)
    # The naive enumeration on a few small grids, one per corpus space.
    seen = {}
    for case in cases:
        seen.setdefault(id(case.space), case)
    for n, case in zip(small_grids, seen.values()):
        window, xs, prefix, tau, _ = _certify_grid(dataclasses.replace(case, grid=n))
        cfg = SearchConfig(
            target_volume=case.v, volume_tolerance=tau, grid_points=n,
            max_components=2, window=window,
        )
        out = search.brute_force_profile(case.space, cfg)
        (content, idx), count = naive_two_component(case.space, xs, prefix, case.v, tau)
        ends = tuple(float(xs[k]) for k in idx)
        got = tuple(e for c in out.best_set.components for e in c)
        tag = f"{case.label} at n={n}"
        if out.sets_examined != count:
            problems.append(f"{tag}: sets_examined {out.sets_examined} != naive {count}")
        if not _close(out.content, content, 1e-12, 1e-15):
            problems.append(f"{tag}: content {out.content!r} != naive {content!r}")
        if not np.allclose(got, ends, rtol=0.0, atol=1e-12 * window):
            problems.append(f"{tag}: best set {got} != naive {ends}")
    return problems


def check_search(cases, outputs) -> list:
    """search-1c: single-interval enumeration with closed-form prefixes."""
    problems = []
    for case, (report, examined) in zip(cases, outputs):
        grid = _check_row(case, report, problems)
        if grid is None:
            continue
        xs, prefix, tau = grid
        (content, _, _), count = single_interval_search(case.space, xs, prefix, case.v, tau)
        row = report.rows[0]
        if examined != count:
            problems.append(f"{case.label}: sets_examined {examined} != enumeration {count}")
        if not _close(row.content, content, 1e-12, 1e-15):
            problems.append(f"{case.label}: content {row.content!r} != enumeration {content!r}")
    return problems


# ------------------------------------------------------------------ profile


def _v_float(N: float, a: float) -> float:
    """v(a) on the unit diameter in double precision; 0 where x^(1-N) overflows."""
    try:
        f = N / ((1.0 - a) ** (1.0 - N) + a ** (1.0 - N) - 1.0)
    except OverflowError:
        return 0.0
    return f * -math.expm1(N * math.log1p(-a)) / (N * (1.0 - a) ** (N - 1.0))


def solve_v(mp, N: float, v: float) -> tuple[float, float]:
    """(a, f(a)) with v(a) = v on the unit diameter.

    Bisection on log a in double precision, then a 50-digit check that v(a)
    - v changes sign within a relative 1e-10 of the root; f(a) in mpmath.
    """
    lo, hi = math.log(1e-300), math.log1p(-1e-16)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _v_float(N, math.exp(mid)) < v:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    a = math.exp(0.5 * (lo + hi))
    Nm = mp.mpf(N)

    def f_mp(x):
        return Nm / ((1 - x) ** (1 - Nm) + x ** (1 - Nm) - 1)

    def v_mp(x):
        return f_mp(x) * (1 - (1 - x) ** Nm) / (Nm * (1 - x) ** (Nm - 1))

    below, above = mp.mpf(a) * (1 - mp.mpf("1e-10")), mp.mpf(a) * (1 + mp.mpf("1e-10"))
    if not (v_mp(below) < v < v_mp(above)):
        raise ArithmeticError(f"no root of v(a) = {v!r} within 1e-10 of a = {a!r} at N = {N}")
    return a, float(f_mp(mp.mpf(a)))


def sweep_values(a: float, b: float, k: int, log: bool) -> list:
    if log:
        la, lb = math.log(a), math.log(b)
        return [math.exp(la + (lb - la) * i / (k - 1)) for i in range(k)]
    return [a + (b - a) * i / (k - 1) for i in range(k)]


def check_profile(cases, outputs, rel_profile: float = 1e-6) -> list:
    """profile-sweep: every row against v(a) = v solved and checked at 50
    digits, the diameter scaling D I_D(v) = I_1(v) and, on linear sweeps,
    the symmetry I(v) = I(1 - v)."""
    import mpmath

    mp = mpmath.mp
    mp.dps = 50
    problems = []
    tables = {}
    solved = {}
    for case, text in zip(cases, outputs):
        rows = list(csv.reader(text.splitlines()))
        tag = case.label
        if rows[0] != ["N", "D", "v", "a", "f_at_a", "profile"]:
            problems.append(f"{tag}: header {rows[0]}")
            continue
        body = [[float(x) for x in r] for r in rows[1:]]
        a, b, k, log = case.sweep
        expect_v = sweep_values(a, b, k, log)
        if len(body) != k:
            problems.append(f"{tag}: {len(body)} rows, expected {k}")
            continue
        for r, v_in in zip(body, expect_v):
            N, D, v, a_out, f_at_a, prof = r
            if N != case.N or D != case.D or not _close(v, v_in, 1e-11):
                problems.append(f"{tag}: row inputs {r[:3]} != {case.N}, {case.D}, {v_in}")
                break
            if f_at_a != prof:
                problems.append(f"{tag}: f_at_a {f_at_a!r} != profile {prof!r}")
                break
            key = (case.N, v)
            if key not in solved:
                try:
                    solved[key] = solve_v(mp, case.N, v)
                except ArithmeticError as exc:
                    problems.append(f"{tag}: {exc}")
                    break
            a_unit, f_unit = solved[key]
            if not _close(prof, f_unit / D, rel_profile):
                problems.append(f"{tag}: profile({v!r}) = {prof!r}, mpmath {f_unit / D!r}")
                break
            if not _close(a_out, a_unit * D, rel_profile):
                problems.append(f"{tag}: a({v!r}) = {a_out!r}, mpmath {a_unit * D!r}")
                break
        tables[(case.N, case.D, case.sweep)] = body
    for (N, D, sweep), body in tables.items():
        unit = tables.get((N, 1.0, sweep))
        if D != 1.0 and unit is not None:
            worst = max(abs(D * r[5] - u[5]) / u[5] for r, u in zip(body, unit))
            if worst > 1e-10:
                problems.append(f"N={N} D={D}: D I_D(v) vs I_1(v) off by {worst:.2e}")
        if not sweep[3]:  # linear sweeps are symmetric about v = 1/2
            worst = max(abs(r[5] - s[5]) / r[5] for r, s in zip(body, body[::-1]))
            if worst > 1e-9:
                problems.append(f"N={N}: I(v) vs I(1 - v) off by {worst:.2e}")
    return problems


# ------------------------------------------------------------------ density


def sample_points(h, D: float, grid_points: int) -> np.ndarray:
    """The points the ratio checks sample: an even grid plus junctions."""
    lo = max(0.0, h.support_start)
    if math.isinf(D):
        hi = h.support_end
        if math.isinf(hi):
            bps = tuple(h.breakpoints())
            hi = max(bps) if bps else 1.0
    else:
        hi = min(D, h.support_end)
    pts = np.linspace(lo, hi, grid_points)
    extra = [b for b in h.breakpoints() if lo < b < hi]
    return np.unique(np.concatenate([pts, extra])) if extra else pts


def linear_witness(xs, hv, D: float, N: float, rel: float = REL_TOL):
    """First violating pair of the ratio bounds, from two monotone scans.

    Upper bound over all pairs <=> g = h / x^(N-1) is non-increasing; lower
    bound <=> q = h / (D - x)^(N-1) (h itself on the half line) is
    non-decreasing.  The smallest violating i is found from suffix extrema
    in O(n); its smallest partner j by one more O(n) scan.
    Returns (i, j, side) or None.
    """
    n = len(xs)
    pos = xs > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(pos, hv / xs ** (N - 1.0), -np.inf)  # x = 0 never violates
        if math.isinf(D):
            q = hv.astype(float)
        else:
            q = np.where(xs < D, hv / (D - xs) ** (N - 1.0), np.inf)  # x = D never violates
    suf_max = np.maximum.accumulate(g[::-1])[::-1]
    suf_min = np.minimum.accumulate(q[::-1])[::-1]
    nxt_max = np.append(suf_max[1:], -np.inf)
    nxt_min = np.append(suf_min[1:], np.inf)
    with np.errstate(invalid="ignore"):
        up = pos & (nxt_max > g + rel * np.maximum(nxt_max, g))
        lo = nxt_min < q - rel * np.maximum(nxt_min, q)
    bad = np.flatnonzero(up | lo)
    if len(bad) == 0:
        return None
    i = int(bad[0])
    j = np.arange(i + 1, n)
    with np.errstate(invalid="ignore"):
        up_j = pos[i] & (g[j] > g[i] + rel * np.maximum(g[j], g[i]))
        lo_j = q[j] < q[i] - rel * np.maximum(q[j], q[i])
    k = int(np.flatnonzero(up_j | lo_j)[0])
    return i, i + 1 + k, "upper" if up_j[k] else "lower"


def secant_dimension(xs, hv, D: float) -> float:
    """Smallest N with both ratio bounds on the samples, from adjacent
    secant slopes of (log x, log h) and (-log(D - x), log h).

    Samples closer than a relative 1e-9 to their left neighbour are dropped
    first: where the even grid and a density's own junctions nearly
    coincide, the slope across the rounding gap is noise, and no such pair
    can violate the cross-multiplied bounds beyond their 1e-12 tolerance.
    """
    keep = np.concatenate([[True], np.diff(xs) > 1e-9 * xs[1:]])
    xs, hv = xs[keep], hv[keep]
    with np.errstate(divide="ignore", invalid="ignore"):
        pos = xs > 0.0
        lx, lh = np.log(xs[pos]), np.log(hv[pos])
        upper = np.nanmax(np.diff(lh) / np.diff(lx)) if pos.sum() > 1 else -np.inf
        if math.isinf(D):
            lower = 0.0 if np.all(np.diff(hv) >= -REL_TOL * hv[1:]) else math.inf
        else:
            inner = xs < D
            t, lq = -np.log(D - xs[inner]), np.log(hv[inner])
            slopes = np.diff(lq) / np.diff(t)
            slopes = slopes[~np.isnan(slopes)]
            lower = -np.min(slopes) if len(slopes) else -np.inf
    return 1.0 + max(float(upper), float(lower), 0.0)


def check_density(cases, outputs, dim_tol: float = 1e-6) -> list:
    """density-check: verdicts against the O(n) scans, minimal dimension
    against the secant-slope formula, on the same sample points."""
    problems = []
    for case, (verdict, n_min) in zip(cases, outputs):
        tag = case.label
        h, D, N = case.h, case.D, case.N
        xs = sample_points(h, D, case.n_check)
        hv = h_values(h, xs)
        if verdict.samples_used != len(xs):
            problems.append(f"{tag}: samples_used {verdict.samples_used} != {len(xs)}")
        found = linear_witness(xs, hv, D, N)
        # On the half line the last monomial piece must itself pass.
        tail_p = h.pieces[-1][1] if h.kind == "piecewise_monomial" and math.isinf(D) else None
        tail_ok = tail_p is None or 0.0 <= tail_p <= N - 1.0
        if (found is None and tail_ok) != verdict.passed:
            problems.append(f"{tag}: verdict {verdict.status}, O(n) scan says {found}")
        elif found is not None:
            i, j, side = found
            w = verdict.witness
            if (w.x0, w.x1, w.side) != (float(xs[i]), float(xs[j]), side):
                problems.append(f"{tag}: witness {(w.x0, w.x1, w.side)} != {(xs[i], xs[j], side)}")
        xs_m = sample_points(h, D, case.n_min)
        need = secant_dimension(xs_m, h_values(h, xs_m), D)
        if tail_p is not None:
            need = max(need, 1.0 + tail_p) if tail_p >= 0.0 else math.inf
        if need > case.n_hi:
            expect = None
        else:
            expect = max(need, case.n_lo)
        if (expect is None) != (n_min is None) or (
            expect is not None and abs(n_min - expect) > dim_tol * expect
        ):
            problems.append(f"{tag}: minimal dimension {n_min!r}, secant formula {expect!r}")
    return problems


CHECKS = {
    "certify-2c": check_certify,
    "search-1c": check_search,
    "profile-sweep": check_profile,
    "density-check": check_density,
}
