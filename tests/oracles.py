"""Independent numeric oracles used to freeze expected test values.

Everything here is computed straight from definitions -- merge interval
unions, sum CDF differences -- with no code shared with the library paths
under test.  The success-probability oracle evaluates

    g_i(d) = prod_{j != i} mu( (d, R]  union  backoff_j )

by literally building each union and measuring it, which is the defining
expression; the library computes the same quantity through the complement
identity, and the tests compare the two.

Three reference kernels, :func:`success_per_call`,
:func:`best_response_linear_scan` and :func:`closest_transmitter_distances`,
instead repeat the library's own arithmetic in its plainest form (two CDF
calls per interval per evaluation, a left-to-right breakpoint scan, every
Monte Carlo draw mapped to a distance), so that the library's faster paths
can be held to bit-for-bit equality with them.
"""

from __future__ import annotations

import math


def merge_intervals(intervals):
    """Sort and merge (a, b] intervals; drops empties, joins touching ones."""
    ivs = sorted((float(a), float(b)) for a, b in intervals if b > a)
    merged = []
    for a, b in ivs:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def complement_within(intervals, radius):
    """Complement of a merged interval list within (0, radius]."""
    out = []
    cursor = 0.0
    for a, b in merge_intervals(intervals):
        if a > cursor:
            out.append((cursor, a))
        cursor = b
    if cursor < radius:
        out.append((cursor, radius))
    return out


def union_measure(cdf, intervals):
    """Measure of a union of (a, b] intervals under the given CDF."""
    return sum(cdf(b) - cdf(a) for a, b in merge_intervals(intervals))


def success_direct(transmit_sets, cdf, radius, i, d):
    """g_i(d) from the definition: per opponent, measure of (d, R] union back-off."""
    g = 1.0
    for j, transmit in enumerate(transmit_sets):
        if j == i:
            continue
        backoff = complement_within(transmit, radius)
        g *= union_measure(cdf, [(d, radius)] + backoff)
    return g


def uniform_disk_cdf(radius):
    return lambda d: (d / radius) ** 2


def linear_cdf(radius):
    return lambda d: d / radius


def expected_utility_direct(transmit_sets, cdf, radius, i, d, cost):
    return (1.0 + cost) * success_direct(transmit_sets, cdf, radius, i, d) - cost


def first_zero_scan(fn, radius, n_points=400_001):
    """Brute-force first hit of zero of a non-increasing function on [0, R].

    Dense scan followed by local bisection refinement; used as a slow oracle
    for best-response cut-offs.
    """
    xs = [radius * k / (n_points - 1) for k in range(n_points)]
    prev = 0.0
    hit = None
    for x in xs:
        if fn(x) <= 0.0:
            hit = (prev, x)
            break
        prev = x
    if hit is None:
        return None
    lo, hi = hit
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def symmetric_cutoff_direct(n, c, radius):
    """Symmetric uniform-disk cut-off from the closed form."""
    return radius * math.sqrt(1.0 - (c / (1.0 + c)) ** (1.0 / (n - 1)))


def success_per_call(transmit_sets, cdf, i):
    """Scalar success of node i with two CDF calls per interval per evaluation.

    The clamped-CDF-sum kernel in its plain form: nothing is precomputed,
    every interval calls ``cdf`` at its clamped right end and at its left
    end.  The sums and products run in the same order as the library's
    kernel (intervals in order within an opponent, opponents in index
    order), so the two must agree bit for bit.
    """
    opponents = [list(t) for j, t in enumerate(transmit_sets) if j != i]

    def evaluate(d):
        out = 1.0
        for intervals in opponents:
            mass = 0.0
            for a, b in intervals:
                x = d if d < b else b
                if x > a:
                    mass += cdf(x) - cdf(a)
            out *= 1.0 - mass
        return out

    return evaluate


def best_response_linear_scan(transmit_sets, cdf, radius, i, cost, value_tol=1e-12, max_iter=200):
    """First zero of node i's transmit utility, by a left-to-right scan.

    Scans every opponent endpoint in order for the first one with util <= 0,
    then bisects keeping util(lo) > 0 >= util(hi), with the library's
    full-transmit and terminal-plateau rules.  Returns (threshold,
    boundary case, utility at the threshold).
    """
    success = success_per_call(transmit_sets, cdf, i)

    def util(d):
        return (1.0 + cost) * success(d) - cost

    util_end = util(radius)
    opponents = [t for j, t in enumerate(transmit_sets) if j != i]
    tail = max((t[-1][1] for t in opponents if t), default=0.0)
    if util_end > value_tol or tail == 0.0:
        return radius, "full-transmit", util_end
    edges = sorted({x for t in opponents for pair in t for x in pair})
    lo, hi = 0.0, None
    for edge in edges:
        if not 0.0 < edge <= tail:
            continue
        if util(edge) <= 0.0:
            hi = edge
            break
        lo = edge
    if hi is None:
        if tail == radius:
            return radius, "boundary-zero", util_end
        return tail, "interior", util_end
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if util(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi, "boundary-zero" if hi == radius else "interior", util(hi)


def closest_transmitter_distances(profile, cfg, i, rng, size):
    """Per trial, the distance of the closest transmitting opponent (inf if none).

    The Monte Carlo kernel in distance space: every draw goes through
    ``quantile`` and every opponent's ``transmit_mask``.  The library masks
    the draws in probability space instead and must agree bit for bit.
    """
    import numpy as np
    opponents = profile.opponents(i)
    u = rng.random((size, len(opponents)))
    distances = cfg.distribution.quantile(u)
    closest = np.full(size, np.inf)
    for j, s in enumerate(opponents):
        dj = distances[:, j]
        transmitting = s.transmit_mask(dj)
        closest = np.minimum(closest, np.where(transmitting, dj, np.inf))
    return closest


def monte_carlo_counts(profile, cfg, i, grid, samples, seed, chunk_size):
    """Successes per grid distance and distance ties, chunk by chunk as the library.

    Chunk c of ``chunk_size`` trials draws from the c-th child spawned from
    ``seed``; a trial succeeds at d when no transmitting opponent is
    strictly closer, and a tie is a drawn distance equal to d.
    """
    import numpy as np
    grid = np.asarray(grid, dtype=float)
    counts = np.zeros(grid.size, dtype=np.int64)
    ties = 0
    done = 0
    for child in np.random.SeedSequence(seed).spawn(math.ceil(samples / chunk_size)):
        size = min(chunk_size, samples - done)
        closest = closest_transmitter_distances(profile, cfg, i, np.random.default_rng(child), size)
        closest.sort()
        first = np.searchsorted(closest, grid, side="left")
        counts += size - first
        ties += int((np.searchsorted(closest, grid, side="right") - first).sum())
        done += size
    return counts.tolist(), ties
