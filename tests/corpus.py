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

Two closure rules build more members from envelopes, again non-decreasing
piecewise monomials whose pieces all attain on an interval, so their labels
are exact too:
- a power h^s has the pieces (c^s, s p) on h's breakpoints: labelled
  1 + s (label - 1), the rule "h admissible at N gives h^s at 1 + s (N - 1)";
- a product h1 h2 has the pieces (c1 c2, p1 + p2) on the merged
  breakpoints: labelled 1 + its largest exponent, at most N1 + N2 - 1 by
  the rule "h1 at N1 and h2 at N2 give h1 h2 at N1 + N2 - 1".
"""

from __future__ import annotations

import bisect
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


def on_both_domains(h, label):
    """The two members of h: on the half line and on [0, 2 * (last breakpoint)]."""
    D = 2.0 * h.break_values[-1]
    return [Member(h, math.inf, label, D), Member(h, D, label, D)]


def envelope_corpus(count, seed):
    """2 * count members: count seeded envelopes, each on both domains."""
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
        members += on_both_domains(h, 1.0 + max(p for _, p in pieces))
    return members


def _labels(members):
    """Each distinct density of members with its label, in order."""
    return list({m.h: m.label for m in members}.items())


def power_corpus(members, seed):
    """h^s for each density h of members, with a seeded s in [1/4, 2] (at
    most 8 / (label - 1), so the label stays below 9), on both domains."""
    rng = np.random.default_rng(seed)
    powers = []
    for h, label in _labels(members):
        s = float(rng.uniform(0.25, min(2.0, 8.0 / (label - 1.0))))
        pieces = tuple((c ** s, s * p) for c, p in h.pieces)
        powers += on_both_domains(PiecewiseMonomialDensity(h.break_values, pieces),
                                  1.0 + s * (label - 1.0))
    return powers


def product(h1, h2):
    """(breakpoints, pieces) of h1 h2: on each span between merged
    breakpoints, the product of the pieces of h1 and of h2 covering it."""
    breaks = tuple(sorted(set(h1.break_values) | set(h2.break_values)))
    pieces = []
    for right in breaks + (math.inf,):
        # piece k of h covers (b_{k-1}, b_k]: the one whose span ends at or after right
        (c1, p1), (c2, p2) = (h.pieces[bisect.bisect_left(h.break_values, right)]
                              for h in (h1, h2))
        pieces.append((c1 * c2, p1 + p2))
    return breaks, tuple(pieces)


def product_corpus(members):
    """h1 h2 for each pair of neighbouring densities of members (the first
    and second, the third and fourth, ...), on both domains."""
    densities = _labels(members)
    products = []
    for (h1, n1), (h2, n2) in zip(densities[::2], densities[1::2]):
        breaks, pieces = product(h1, h2)
        label = 1.0 + max(p for _, p in pieces)
        assert label <= n1 + n2 - 1.0 + 1e-12, (h1, h2)  # up to the rounding of the sums
        products += on_both_domains(PiecewiseMonomialDensity(breaks, pieces), label)
    return products
