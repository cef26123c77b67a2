"""Reference computations made apart from ``src/ragame``.

Nothing here imports the package under test.  Distance laws are rebuilt
from the generator's own knots, success probabilities follow the union-
measure definition (the same definition as ``tests/oracles.py``), and
equilibrium cut-offs come from the per-class closed form written in
complement/log form, which stays exact where ``c / (1 + c)`` rounds to 1.
"""

from __future__ import annotations

import math
from bisect import bisect_right


class Law:
    """Distance CDF on [0, radius]: uniform disk, or piecewise linear knots."""

    def __init__(self, radius, knots=None):
        self.radius = float(radius)
        self.xs = None if knots is None else [float(d) for d, _ in knots]
        self.ps = None if knots is None else [float(p) for _, p in knots]

    def spec(self) -> dict:
        if self.xs is None:
            return {"kind": "uniform-disk", "radius": self.radius}
        return {
            "kind": "piecewise-linear-cdf",
            "radius": self.radius,
            "knots": [[d, p] for d, p in zip(self.xs, self.ps)],
        }

    def cdf(self, d: float) -> float:
        if self.xs is None:
            return (d / self.radius) ** 2
        j = min(max(bisect_right(self.xs, d) - 1, 0), len(self.xs) - 2)
        x0, x1, p0, p1 = self.xs[j], self.xs[j + 1], self.ps[j], self.ps[j + 1]
        return p0 + (p1 - p0) * (d - x0) / (x1 - x0)

    def quantile(self, p: float) -> float:
        if self.xs is None:
            return self.radius * math.sqrt(p)
        j = min(max(bisect_right(self.ps, p) - 1, 0), len(self.ps) - 2)
        x0, x1, p0, p1 = self.xs[j], self.xs[j + 1], self.ps[j], self.ps[j + 1]
        return min(self.radius, x0 + (x1 - x0) * (p - p0) / (p1 - p0))


def merge(intervals):
    """Sorted union of (a, b] intervals, empties dropped, touching ones joined."""
    out = []
    for a, b in sorted((float(a), float(b)) for a, b in intervals if b > a):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def complement(intervals, radius):
    """Complement of a union of intervals within (0, radius]."""
    out, cursor = [], 0.0
    for a, b in merge(intervals):
        if a > cursor:
            out.append((cursor, a))
        cursor = b
    if cursor < radius:
        out.append((cursor, radius))
    return out


def success(law: Law, transmit_sets, i: int, d: float) -> float:
    """g_i(d) = prod_{j != i} mu((d, R] union backoff_j), straight from the definition."""
    g = 1.0
    for j, transmit in enumerate(transmit_sets):
        if j != i:
            union = merge([(d, law.radius)] + complement(transmit, law.radius))
            g *= sum(law.cdf(b) - law.cdf(a) for a, b in union)
    return g


def symmetric_cutoff(n: int, c: float, radius: float) -> float:
    """Symmetric uniform-disk cut-off, t = R sqrt(-expm1(-log1p(1/c) / (n - 1)))."""
    return radius * math.sqrt(-math.expm1(-math.log1p(1.0 / c) / (n - 1)))


def sequential_cutoffs(law: Law, costs) -> list[float]:
    """Equilibrium cut-off of every node from the per-class closed form.

    Classes are taken in decreasing cost.  A class of size k with e opponents
    still transmitting at its cut-off solves
    ``prefix * (1 - F(t))^e = c / (1 + c)`` in logs:
    ``log(1 - F(t)) = (-log1p(1/c) - log prefix) / e``.  A cheapest
    singleton class (e = 0) transmits everywhere.
    """
    classes: dict[float, list[int]] = {}
    for i, c in enumerate(costs):
        classes.setdefault(float(c), []).append(i)
    out = [0.0] * len(costs)
    remaining = len(costs)
    log_prefix = 0.0
    for c in sorted(classes, reverse=True):
        members = classes[c]
        remaining -= len(members)
        exponent = len(members) - 1 + remaining
        if exponent == 0:
            t = law.radius
        else:
            log_q = (-math.log1p(1.0 / c) - log_prefix) / exponent
            t = law.quantile(-math.expm1(log_q))
            log_prefix += len(members) * log_q
        for m in members:
            out[m] = t
    return out
