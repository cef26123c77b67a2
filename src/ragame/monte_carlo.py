"""Stochastic oracle for success probabilities and transmit utilities.

Everything analytic in this package reduces to interval algebra on the
distance law; this module checks those results by brute simulation instead:
opponents' distances are drawn i.i.d. through the inverse CDF, their
strategies are applied, and the packet from the conditioned node succeeds
when no transmitting opponent sits strictly closer.  Inverse-CDF sampling
deliberately goes through ``quantile`` so the oracle never touches the
interval-measure code path it validates.

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


@dataclass(frozen=True)
class SimConfig:
    """Simulation size and seed."""

    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 1:
            raise DomainError(f"samples must be >= 1, got {self.samples}")


@dataclass(frozen=True)
class SimEstimate:
    """Monte Carlo estimate with its CLT standard error."""

    mean: float
    std_error: float
    samples: int


def _closest_transmitter_distances(profile, cfg, i, rng, size):
    """Per trial, the distance of the closest transmitting opponent (inf if none)."""
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


def _estimates(profile, cfg, i, grid, sim: SimConfig) -> list[SimEstimate]:
    """Per grid distance d, node i's estimated success probability from d.

    A trial succeeds when no transmitting opponent is strictly closer than d,
    so a distance tie counts as a success (and is logged).  Each chunk's
    closest-transmitter distances are sorted once and every grid point is
    counted by binary search.
    """
    import numpy as np
    profile.check_index(i)
    grid = np.asarray(grid, dtype=float)
    outside = ~((grid >= 0) & (grid <= cfg.radius))
    if outside.any():
        raise DomainError(f"distance {float(grid[outside][0])!r} outside [0, {cfg.radius}]")
    counts = np.zeros(grid.size, dtype=np.int64)
    ties = 0
    done = 0
    for child in np.random.SeedSequence(sim.seed).spawn(math.ceil(sim.samples / CHUNK_SIZE)):
        size = min(CHUNK_SIZE, sim.samples - done)
        closest = _closest_transmitter_distances(
            profile, cfg, i, np.random.default_rng(child), size
        )
        closest.sort()
        first = np.searchsorted(closest, grid, side="left")
        counts += size - first
        ties += int((np.searchsorted(closest, grid, side="right") - first).sum())
        done += size
    if ties:
        logger.warning(
            "broke %d floating-point distance tie(s) in favour of node %d", ties, i
        )
    estimates = []
    for successes in counts.tolist():
        mean = successes / sim.samples
        std_error = math.sqrt(mean * (1.0 - mean) / sim.samples)
        estimates.append(SimEstimate(mean=mean, std_error=std_error, samples=sim.samples))
    return estimates


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
