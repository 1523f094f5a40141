"""A seeded corpus of densities whose minimal MCP dimension is known exactly.

Each member is the pointwise min or max of 2-4 monomials c * x^p with c in
[1/e, e] and p in [0, 4], built as a PiecewiseMonomialDensity whose
breakpoints are the crossings of neighbouring envelope pieces in closed
form, x = (c_j / c_k)^(1 / (p_k - p_j)).  Draws with a crossing outside
[1/50, 50] are redrawn.  Every envelope comes twice: on the half line and
on [0, D] with D = 2 * (last breakpoint).

Every exponent is >= 0, so h never falls: the lower ratio bound holds for
every N, and log h is piecewise linear in log x with slopes p, so
h(x1)/h(x0) <= (x1/x0)^(N-1) holds for all pairs exactly when N - 1 is at
least every exponent that attains the envelope on an interval.  The label
of a member, its exact minimal N, is 1 plus the largest such exponent.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from mcp_iso import PiecewiseMonomialDensity

CROSSINGS = (1.0 / 50.0, 50.0)


class Member(NamedTuple):
    h: PiecewiseMonomialDensity
    D: float  # inf on the half line
    label: float  # the exact minimal N
    window: float  # a search window: D, or 2 * (last breakpoint) on the half line


def envelope(coefficients, exponents, upper):
    """(breakpoints, pieces) of the max (upper) or min envelope of the
    monomials c_k * x^p_k on (0, inf), pieces from left to right."""
    monomials = list(zip(coefficients, exponents))
    # Near 0 the least exponent leads the max and the largest the min; ties
    # go to the coefficient that leads there too.
    k = max(range(len(monomials)),
            key=lambda k: (-monomials[k][1], monomials[k][0]) if upper
            else (monomials[k][1], -monomials[k][0]))
    breaks, pieces, at = [], [monomials[k]], 0.0
    while True:
        c_k, p_k = monomials[k]
        # The monomials that overtake this piece to its right: steeper ones
        # for the max, flatter ones for the min.  The first crossing wins.
        with np.errstate(over="ignore"):  # nearly parallel: a crossing past the float range
            crossings = [
                (float(np.float64(c_j / c_k) ** (1.0 / (p_k - p_j))), -p_j if upper else p_j, j)
                for j, (c_j, p_j) in enumerate(monomials)
                if (p_j > p_k if upper else p_j < p_k)
            ]
        crossings = [c for c in crossings if c[0] > at]
        if not crossings:
            return tuple(breaks), tuple(pieces)
        at, _, k = min(crossings)
        breaks.append(at)
        pieces.append(monomials[k])


def envelope_corpus(count, seed):
    """2 * count members: count seeded envelopes, each on the half line and
    on [0, 2 * (last breakpoint)]."""
    rng = np.random.default_rng(seed)
    members = []
    while len(members) < 2 * count:
        size = int(rng.integers(2, 5))
        coefficients = np.exp(rng.uniform(-1.0, 1.0, size)).tolist()
        exponents = rng.uniform(0.0, 4.0, size).tolist()
        breaks, pieces = envelope(coefficients, exponents, upper=bool(rng.integers(2)))
        if not breaks or not CROSSINGS[0] <= breaks[0] <= breaks[-1] <= CROSSINGS[1]:
            continue
        h = PiecewiseMonomialDensity(breaks, pieces)
        label = 1.0 + max(p for _, p in pieces)
        D = 2.0 * breaks[-1]
        members += [Member(h, math.inf, label, D), Member(h, D, label, D)]
    return members
