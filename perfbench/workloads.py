"""Seeded inputs and operations of the four workloads.

``build(name, seed)`` returns one round: a list of cases, each a plain
record of the inputs of one operation.  ``run_case`` performs the operation
through the module attributes of ``mcp_iso`` (looked up at call time, so the
traced run's wrappers see every call).  The same seed gives the same cases.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
from typing import Optional

import numpy as np

WORKLOADS = ("certify-2c", "search-1c", "profile-sweep", "density-check")

# The profile sweeps at N = 30 end in OverflowError today; their inputs do
# not depend on the seed, so every round fails the same number of times.
FAILING_PROFILE_ARGV = ("profile", "--N", "30", "--D", "1", "--v", "1e-6:0.5:150", "--log")


@dataclasses.dataclass(frozen=True)
class CertifyCase:
    label: str
    space: object  # mcp_iso.WeightedInterval
    N: float
    avr: float
    v: float
    grid: int
    components: int
    designed: bool = False  # v is the designed volume of a sharp space


@dataclasses.dataclass(frozen=True)
class ProfileCase:
    label: str
    argv: tuple
    N: float
    D: float
    sweep: tuple  # (a, b, k, log)


@dataclasses.dataclass(frozen=True)
class DensityCase:
    label: str
    h: object  # mcp_iso.Density
    D: float
    N: float
    n_check: int
    n_min: int
    n_lo: float = 1.01
    n_hi: float = 30.0


def _cone(mcp):
    return mcp.WeightedInterval(math.inf, mcp.MonomialDensity(2.0 * math.pi, 1.0))


def _jitter(rng, *values):
    """Each value moved by at most 3%: the seed varies the inputs while the
    cost of a round stays nearly the same."""
    out = [float(v) * float(rng.uniform(0.97, 1.03)) for v in values]
    return out if len(out) > 1 else out[0]


def _bounded_piecewise(mcp, rng):
    D, b_frac, p1, p2_frac = _jitter(rng, 3.0, 0.45, 1.5, 0.45)
    b, p2 = b_frac * D, p2_frac * p1
    h = mcp.PiecewiseMonomialDensity((b,), ((1.0, p1), (b ** (p1 - p2), p2)))
    return mcp.WeightedInterval(D, h), 1.0 + p1 + 0.5


def _certify_2c(mcp, rng):
    # The criterion-6 corpus: two sharp spaces and the N = 2 Euclidean cone
    # (h = 2 pi x, avr 1), ten volumes each.  Volumes off the designed one
    # are jittered by the seed; the designed volume v = mass stays exact.
    cases = []
    for a, mass, N in ((1.0 / (2.0 * math.pi), 1.0, 2.0), (0.5, 2.0, 3.0)):
        space, _ = mcp.sharp_space(a, mass, N)
        for k in range(1, 11):
            designed = k == 5
            v = mass * k / 5.0 if designed else _jitter(rng, mass * k / 5.0)
            cases.append(CertifyCase(f"sharp-N{N:g}-v{v:.4f}", space, N, a, v, 512, 2, designed))
    cone = _cone(mcp)
    for k in range(1, 11):
        v = _jitter(rng, 0.2 * k)
        cases.append(CertifyCase(f"cone-v{v:.4f}", cone, 2.0, 1.0, v, 512, 2))
    return cases


def _search_1c(mcp, rng):
    cases = []
    for a, mass, N, vols in ((1.0 / (2.0 * math.pi), 1.0, 2.0, (0.6, 1.4)), (0.5, 2.0, 3.0, (1.2, 2.8))):
        space, _ = mcp.sharp_space(a, mass, N)
        for v in _jitter(rng, *vols):
            cases.append(CertifyCase(f"sharp-N{N:g}-v{v:.4f}", space, N, a, v, 4096, 1))
    cone = _cone(mcp)
    for v in _jitter(rng, 0.7, 1.6):
        cases.append(CertifyCase(f"cone-v{v:.4f}", cone, 2.0, 1.0, v, 4096, 1))
    # A bounded space has asymptotic volume ratio 0, so its bound is 0; the
    # search itself is the work.
    space, N = _bounded_piecewise(mcp, rng)
    total = space.h.integral(0.0, space.D)
    for frac in _jitter(rng, 0.35, 0.7):
        v = frac * total
        cases.append(CertifyCase(f"piecewise-D{space.D:.3f}-v{v:.4f}", space, N, 0.0, v, 4096, 1))
    return cases


def _profile_sweep(mcp, rng):
    cases = []
    for N in (1.5, 2.0, 3.0, 5.0, 10.0):
        a = float(10.0 ** rng.uniform(-8.0, -6.0))
        b = float(rng.uniform(0.3, 0.5))
        D_alt = float(rng.choice([0.5, 2.0, 10.0]))
        for D in (1.0, D_alt):
            argv = ("profile", "--N", repr(N), "--D", repr(D), "--v", f"{a!r}:{b!r}:150", "--log")
            cases.append(ProfileCase(f"log-N{N:g}-D{D:g}", argv, N, D, (a, b, 150, True)))
        c = float(rng.uniform(0.01, 0.05))
        argv = ("profile", "--N", repr(N), "--D", "1.0", "--v", f"{c!r}:{1.0 - c!r}:151")
        cases.append(ProfileCase(f"lin-N{N:g}", argv, N, 1.0, (c, 1.0 - c, 151, False)))
    cases.append(ProfileCase("log-N30-D1", FAILING_PROFILE_ARGV, 30.0, 1.0, (1e-6, 0.5, 150, True)))
    return cases


def _density_check(mcp, rng):
    pw = mcp.PiecewiseMonomialDensity
    tab = mcp.TabulatedDensity

    def pieces(b, p1, p2):
        return pw((b,), ((1.0, p1), (b ** (p1 - p2), p2)))

    cases = []
    # Bounded, passing: increasing pieces x^p1 then c x^p2, p2 < p1 < N - 1.
    D, b, p1, p2, slack = _jitter(rng, 3.0, 1.35, 1.5, 0.6, 0.6)
    cases.append(DensityCase("pw-bounded-pass", pieces(b, p1, p2), D, 1.0 + p1 + slack, 4096, 384))

    # Bounded, passing, decreasing tail: the lower ratio bound binds there,
    # at N - 1 >= -p2 (D - b) / b.
    D, b, p1, p2, slack = _jitter(rng, 3.0, 1.5, 1.0, -1.0, 0.6)
    need = max(p1, -p2 * (D - b) / b)
    cases.append(DensityCase("pw-bounded-tail", pieces(b, p1, p2), D, 1.0 + need + slack, 2048, 384))

    # Half line, passing: the sampled window is [0, last breakpoint] and
    # the tail exponent p2 < N - 1 is checked exactly.
    b, p1, p2, slack = _jitter(rng, 1.2, 1.5, 0.6, 0.6)
    cases.append(DensityCase("pw-halfline-pass", pieces(b, p1, p2), math.inf, 1.0 + p1 + slack, 2048, 384))

    # Bounded, failing the upper bound: first exponent above N - 1.
    D, b, p1, p2, short = _jitter(rng, 3.0, 1.35, 2.0, 0.8, 0.45)
    cases.append(DensityCase("pw-bounded-fail", pieces(b, p1, p2), D, 1.0 + p1 - short, 2048, 384))

    # Tabulated x^q (D - x)^r on [0, D]: passes for N - 1 >= max(q, r, 1).
    D, q, r, slack = _jitter(rng, 3.0, 0.8, 0.9, 0.7)
    grid = np.linspace(0.0, D, 160)
    values = grid ** q * (D - grid) ** r
    values[-1] = 0.0
    h = tab(tuple(grid), tuple(values))
    cases.append(DensityCase("tab-bounded-pass", h, D, 1.0 + max(q, r, 1.0) + slack, 1024, 256))

    # Tabulated bump on [0, D]: decreases, then rises again; fails at small N.
    D, freq, N = _jitter(rng, 3.0, 1.0, 1.5)
    grid = np.linspace(0.0, D, 160)
    h = tab(tuple(grid), tuple(1.0 + 0.5 * np.cos(2.0 * math.pi * freq * grid / D)))
    cases.append(DensityCase("tab-bounded-fail", h, D, N, 1024, 256))

    # Tabulated e^(lam x) on the half line: fails (so no tail is needed).
    L, lam, N = _jitter(rng, 3.0, 1.25, 2.0)
    grid = np.linspace(0.1, L, 160)
    h = tab(tuple(grid), tuple(np.exp(lam * grid)))
    cases.append(DensityCase("tab-halfline-fail", h, math.inf, N, 1024, 256))
    return cases


_ROUNDS = {
    "certify-2c": _certify_2c,
    "search-1c": _search_1c,
    "profile-sweep": _profile_sweep,
    "density-check": _density_check,
}


def build(name: str, seed: int):
    """One round of cases; the order within the round is shuffled by the seed."""
    import mcp_iso

    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    cases = _ROUNDS[name](mcp_iso, rng)
    order = rng.permutation(len(cases))
    return [cases[k] for k in order]


def retrace(case, traced_density):
    """The same case with its density replaced by traced_density(h)."""
    from mcp_iso import WeightedInterval

    if isinstance(case, CertifyCase):
        space = WeightedInterval(case.space.D, traced_density(case.space.h))
        return dataclasses.replace(case, space=space)
    if isinstance(case, DensityCase):
        return dataclasses.replace(case, h=traced_density(case.h))
    return case


class OutcomeCapture:
    """Wraps search.brute_force_profile to keep the last SearchOutcome.

    certify_bound reports content and the best set but not sets_examined,
    which the output checks compare exactly.
    """

    def __init__(self, fn):
        self.fn = fn
        self.last: Optional[object] = None

    def __call__(self, *args, **kwargs):
        self.last = self.fn(*args, **kwargs)
        return self.last


def run_case(case, capture: Optional[OutcomeCapture] = None):
    """Perform one operation; returns its output, raises if it fails."""
    from mcp_iso import SearchConfig, cli, density, search

    if isinstance(case, CertifyCase):
        cfg = SearchConfig(
            target_volume=0.0,
            volume_tolerance=1e-9,
            grid_points=case.grid,
            max_components=case.components,
        )
        report = search.certify_bound(case.space, case.N, case.avr, [case.v], cfg)
        return report, capture.last.sets_examined
    if isinstance(case, ProfileCase):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(case.argv))
        if code != 0:
            raise RuntimeError(f"mcp-iso exited with {code}")
        return out.getvalue()
    verdict = density.check_mcp_density(case.h, case.D, case.N, grid_points=case.n_check)
    n_min = density.minimal_mcp_dimension(
        case.h, case.D, case.n_lo, case.n_hi, grid_points=case.n_min
    )
    return verdict, n_min
