"""The O(n) ratio-bound scan against the O(n^2) sweep over all sample pairs,
and its order in N, which the minimal-dimension search rests on."""

import math
from typing import Optional

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcp_iso import Witness
from mcp_iso.density import _sampled_witness, _secant_guess

REL_TOL = 1e-12


def pair_sweep(
    xs: np.ndarray, hv: np.ndarray, D: float, N: float, rel_tol: float
) -> Optional[Witness]:
    """Scan all sampled pairs; return the lexicographically smallest violation."""
    i_idx, j_idx = np.triu_indices(len(xs), k=1)
    xw = xs ** (N - 1.0)
    up_lhs = hv[j_idx] * xw[i_idx]
    up_rhs = hv[i_idx] * xw[j_idx]
    viol_up = up_lhs > up_rhs + rel_tol * np.maximum(up_lhs, up_rhs)
    if math.isinf(D):
        lo_lhs = hv[j_idx]
        lo_rhs = hv[i_idx]
    else:
        dw = (D - xs) ** (N - 1.0)
        lo_lhs = hv[j_idx] * dw[i_idx]
        lo_rhs = hv[i_idx] * dw[j_idx]
    viol_lo = lo_lhs < lo_rhs - rel_tol * np.maximum(lo_lhs, lo_rhs)
    viol = viol_up | viol_lo
    if not bool(viol.any()):
        return None
    k = int(np.argmax(viol))
    if viol_up[k]:
        return Witness(float(xs[i_idx[k]]), float(xs[j_idx[k]]), "upper",
                       float(up_lhs[k]), float(up_rhs[k]))
    return Witness(float(xs[i_idx[k]]), float(xs[j_idx[k]]), "lower",
                   float(lo_lhs[k]), float(lo_rhs[k]))


@st.composite
def samples(draw):
    """Sorted samples (with or without x = 0), a weight (1 + x)^a with
    optional jitter and zeros, a bounded or half-line domain and N in (1, 30).

    Gaps of at least 1e-3 keep x^(N-1) and (D - x)^(N-1) clear of underflow,
    where neither form of the bounds means anything.
    """
    n = draw(st.integers(2, 40))
    gaps = np.asarray(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    xs = np.cumsum(gaps)
    if draw(st.booleans()):
        xs = np.concatenate([[0.0], xs[:-1]])
    a = draw(st.floats(-2.0, 30.0))
    hv = (1.0 + xs) ** a
    if draw(st.booleans()):
        hv *= np.exp(draw(st.lists(st.sampled_from([0.0, 1e-13, -0.1, 0.3]), min_size=n,
                                   max_size=n)))
    if draw(st.booleans()):
        hv[np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 0.0
    if draw(st.booleans()):
        D = math.inf
    else:
        D = float(xs[-1] + draw(st.sampled_from([0.0, 1e-3, 0.5, 3.0])))
    N = draw(st.floats(1.0, 30.0, exclude_min=True, exclude_max=True))
    return xs, hv, D, N


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(samples())
@example((np.linspace(0.0, 3.0, 50), np.exp(np.linspace(0.0, 3.0, 50)), math.inf, 2.0))
@example((np.linspace(0.0, 2.0, 9), np.linspace(0.0, 2.0, 9) ** 2, 2.0, 3.0))
@example((np.linspace(0.0, 2.0, 9), 2.0 - np.linspace(0.0, 2.0, 9), math.inf, 2.0))
# Violates the cross-multiplied upper bound by a hair more than rel_tol, but
# not in the rounded quotients h/x^(N-1): the scan must allow for that rounding.
@example((np.array([1.0, float.fromhex("0x1.880adae6f1e75p+0")]),
          np.array([1.0, float.fromhex("0x1.f099125a08ef1p+2")]),
          math.inf, float.fromhex("0x1.73ad312eee48bp+2")))
def test_scan_matches_pair_sweep(case):
    xs, hv, D, N = case
    found = _sampled_witness(xs, hv, D, N, REL_TOL)
    expected = pair_sweep(xs, hv, D, N, REL_TOL)
    assert (found is None) == (expected is None)
    if found is not None:
        assert (found.x0, found.x1, found.side) == (expected.x0, expected.x1, expected.side)
        np.testing.assert_array_max_ulp(
            np.array([found.lhs, found.rhs]), np.array([expected.lhs, expected.rhs]), maxulp=4
        )


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(samples(), st.data())
def test_passing_set_is_upward_closed(case, data):
    """Both the plain bisection and minimal_mcp_dimension's skipped scans
    rest on this: a pass at N1 is a pass at every N2 >= N1 (1 + 1e-9)."""
    xs, hv, D, N = case
    guess = _secant_guess([(xs, hv)], D)
    if 1.0 < guess < 30.0 and data.draw(st.booleans()):
        # At or just below the least passing N, where the order could break.
        shift = data.draw(st.integers(-100, 100).map(lambda k: k * 1e-10) | st.floats(-0.1, 0.0))
        N = 1.0 + (guess - 1.0) * (1.0 + shift)
    if _sampled_witness(xs, hv, D, N, REL_TOL) is None:
        for grow in (0.0, 1e-9, 3e-9, 1e-8, 1e-6, 1e-3, data.draw(st.floats(0.0, 2.0))):
            N2 = N * (1.0 + 1e-9) * (1.0 + grow)
            assert _sampled_witness(xs, hv, D, N2, REL_TOL) is None, N2
