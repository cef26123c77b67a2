"""Stochastic oracle for success probabilities and transmit utilities.

Everything analytic in this package reduces to interval algebra on the
distance law; this module checks those results by brute simulation instead:
opponents' distances are drawn i.i.d. through the inverse CDF, their
strategies are applied, and the packet from the conditioned node succeeds
when no transmitting opponent sits strictly closer.

Sampling runs in probability space.  ``quantile`` is non-decreasing in
floating point, so quantile(u) lies in a transmit interval (a, b] exactly
when the uniform draw u lies in (alpha, beta], alpha and beta being the
largest floats it maps to at most a and at most b.  These cut points are
found once per estimate by searching ``quantile`` itself; the draws are
masked against them, and only each trial's least transmitting draw goes
through ``quantile``, which commutes with the minimum.  So the distances
are bit for bit those of mapping every draw, and ``cdf`` is never called:
the oracle never touches the interval-measure code path it validates.

Reproducibility contract: the sample space is split into fixed-size chunks;
chunk c draws from a child seed spawned from (seed, c).  Estimates are exact
integer counts aggregated over chunks, so results are bit-identical for a
given (seed, samples) no matter how the chunks would be scheduled.

Distance ties between the conditioned node and an opponent are a null event
under an atomless law; if one ever occurs in floating point it is broken in
favour of the conditioned node and logged.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .errors import DomainError
from .strategy import GameConfig, StrategyProfile

logger = logging.getLogger(__name__)

#: Trials per chunk; fixed so the chunk layout depends only on `samples`.
CHUNK_SIZE = 1 << 16

#: Doubles in a block of draws and its cut table together, few enough to stay in cache.
BLOCK = 1 << 18


@dataclass(frozen=True)
class SimConfig:
    """Simulation size (an integer >= 1) and seed (an integer >= 0)."""

    samples: int
    seed: int

    def __post_init__(self):
        for name, least in (("samples", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(value, "__index__") or value < least:
                raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
            object.__setattr__(self, name, int(value))  # numpy integers too


@dataclass(frozen=True)
class SimEstimate:
    """Monte Carlo estimate with its CLT standard error."""

    mean: float
    std_error: float
    samples: int


def _cut_points(quantile, ends):
    """Per distance x in ``ends``, the largest float u in [0, 1] with quantile(u) <= x.

    The floats in [0, 1] are ordered like their bit patterns, so a bisection
    on the patterns finds every u at once, one ``quantile`` call per step and
    at most 62 steps.
    """
    import numpy as np
    lo = np.zeros(ends.shape, dtype=np.int64)  # quantile(0.0) == 0.0 <= x
    hi = np.full(ends.shape, 0x3FF0000000000001)  # one past 1.0, never probed
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        below = quantile(mid.view(np.float64)) <= ends
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return lo.view(np.float64)


def _closest_transmitter_distances(profile, cfg, i, sim):
    """Per chunk, its size and the sorted distances of its trials' closest transmitters.

    Chunk c's trials see the draws ``rng.random((size, n - 1))`` of child c,
    drawn in blocks of whole trials that continue the same stream.  Opponent
    j transmits on draw u when an odd number of its cut points lie below u.
    """
    import numpy as np
    opponents = profile.opponents(i)
    m, k = len(opponents), max(1, *(len(s.intervals) for s in opponents))
    ends = np.full((2 * k, m), cfg.radius)  # padding maps to the empty (1, 1]
    for j, s in enumerate(opponents):
        ends[: 2 * len(s.intervals), j] = [x for iv in s.intervals for x in iv]
    quantile = cfg.distribution.quantile
    rows = max(1, min(CHUNK_SIZE, sim.samples, BLOCK // (m * (2 * k + 1))))
    cuts = np.tile(_cut_points(quantile, ends), rows)  # laid out like a block of draws
    done = 0
    for child in np.random.SeedSequence(sim.seed).spawn(math.ceil(sim.samples / CHUNK_SIZE)):
        rng = np.random.default_rng(child)
        least = np.empty(min(CHUNK_SIZE, sim.samples - done))
        for r in range(0, least.size, rows):
            u = rng.random(min(rows, least.size - r) * m)
            off = u <= cuts[0, : u.size]
            for c in cuts[1:, : u.size]:
                off ^= u > c
            u += off  # a draw on which its opponent backs off moves to [1, 2)
            v = np.ascontiguousarray(u.reshape(-1, m).T)  # one row per opponent
            v.min(axis=0, out=least[r : r + v.shape[1]])  # each trial's least draw
        done += least.size
        # quantile is non-decreasing: it maps sorted draws to sorted distances
        yield least.size, quantile(np.sort(np.compress(least < 1.0, least)))


def _estimates(profile, cfg, i, grid, sim: SimConfig) -> list[SimEstimate]:
    """Per grid distance d, node i's estimated success probability from d.

    A trial succeeds when no transmitting opponent is strictly closer than d,
    so a distance tie counts as a success (and is logged).  Each chunk's
    sorted closest-transmitter distances count every grid point by binary
    search.
    """
    import numpy as np
    profile.check_index(i)
    grid = np.asarray(grid, dtype=float)
    outside = ~((grid >= 0) & (grid <= cfg.radius))
    if outside.any():
        raise DomainError(f"distance {float(grid[outside][0])!r} outside [0, {cfg.radius}]")
    counts = np.zeros(grid.size, dtype=np.int64)
    ties = 0
    for size, closest in _closest_transmitter_distances(profile, cfg, i, sim):
        first = np.searchsorted(closest, grid, side="left")
        counts += size - first
        ties += int((np.searchsorted(closest, grid, side="right") - first).sum())
    if ties:
        logger.warning("broke %d floating-point distance tie(s) in favour of node %d", ties, i)
    means = [successes / sim.samples for successes in counts.tolist()]
    return [SimEstimate(mu, math.sqrt(mu * (1.0 - mu) / sim.samples), sim.samples) for mu in means]


def estimate_success_probability(
    profile: StrategyProfile, cfg: GameConfig, i: int, d: float, sim: SimConfig
) -> SimEstimate:
    """Estimate node i's success probability with node i fixed at distance d.

    Node i is forced to transmit; success means no transmitting opponent is
    strictly closer than d.
    """
    (estimate,) = _estimates(profile, cfg, i, [d], sim)
    return estimate


def estimate_success_curve(
    profile: StrategyProfile, cfg: GameConfig, i: int, grid, sim: SimConfig
) -> list[SimEstimate]:
    """Estimate the success curve on a grid, sharing draws across distances.

    Every grid point sees the same opponent draws per trial, so the
    estimated curve is non-increasing in d exactly, not just statistically.
    """
    return _estimates(profile, cfg, i, grid, sim)


def estimate_expected_utility(
    profile: StrategyProfile, cfg: GameConfig, i: int, d: float, sim: SimConfig
) -> SimEstimate:
    """Estimate node i's expected utility at distance d under the profile.

    A node that backs off at d earns exactly zero (no transmission, no
    cost).  Otherwise each trial pays +1 on success and -cost on failure,
    which is the affine map (1 + cost) * success - cost of the success
    indicator, applied to the same trials as the success estimate.
    """
    profile.check_index(i)
    if profile.strategies[i].evaluate(d) == 0:
        return SimEstimate(mean=0.0, std_error=0.0, samples=sim.samples)
    c = cfg.costs[i]
    base = estimate_success_probability(profile, cfg, i, d, sim)
    return SimEstimate(
        mean=(1.0 + c) * base.mean - c,
        std_error=(1.0 + c) * base.std_error,
        samples=base.samples,
    )


def write_estimates_csv(grid, estimates, fileobj):
    """CSV rows d, estimate, std_error (header included)."""
    rows = (f"{d!r},{e.mean!r},{e.std_error!r}\n" for d, e in zip(map(float, grid), estimates))
    fileobj.write("d,estimate,std_error\n" + "".join(rows))
