"""Seeded random instance generators shared by the property and acceptance tests."""

from __future__ import annotations

import numpy as np

from ragame import GameConfig, RadialDistribution, Strategy, StrategyProfile


def random_increasing_cdf(rng, radius, max_knots=8) -> RadialDistribution:
    """Random strictly-increasing piecewise-linear CDF on [0, radius].

    Slopes are kept within a moderate band so densities are bounded away
    from zero; that keeps strict-monotonicity checks well conditioned.
    """
    k = int(rng.integers(2, max_knots + 1))
    d = np.concatenate([[0.0], np.sort(rng.uniform(0.05 * radius, 0.95 * radius, k - 1)), [radius]])
    increments = rng.uniform(0.25, 4.0, k) * np.diff(d)
    cdf = np.concatenate([[0.0], np.cumsum(increments)])
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    return RadialDistribution.piecewise_linear_cdf(radius, np.column_stack([d, cdf]))


def random_distribution(rng, radius) -> RadialDistribution:
    if rng.random() < 0.5:
        return RadialDistribution.uniform_disk(radius)
    return random_increasing_cdf(rng, radius)


def random_strategy(rng, radius, max_intervals=4) -> Strategy:
    k = int(rng.integers(0, max_intervals + 1))
    endpoints = np.sort(rng.uniform(0.0, radius, 2 * k))
    intervals = [(endpoints[2 * m], endpoints[2 * m + 1]) for m in range(k)]
    return Strategy(radius=radius, intervals=tuple(intervals))


def random_profile(rng, n, radius, max_intervals=4) -> StrategyProfile:
    return StrategyProfile(tuple(random_strategy(rng, radius, max_intervals) for _ in range(n)))


def random_threshold_profile(rng, n, radius) -> StrategyProfile:
    return StrategyProfile(
        tuple(Strategy.threshold(rng.uniform(0.05 * radius, radius), radius) for _ in range(n))
    )


def random_costs(rng, n) -> tuple[float, ...]:
    """Cost vector with a random mix of repeated and distinct values.

    Distinct class costs are drawn log-uniform and separated by at least a
    factor 1.01 so class targets never collide within floating point.
    """
    n_classes = int(rng.integers(1, n + 1))
    while True:
        class_costs = np.sort(np.exp(rng.uniform(np.log(0.1), np.log(10.0), n_classes)))
        if n_classes == 1 or np.all(class_costs[1:] / class_costs[:-1] > 1.01):
            break
    assignment = np.concatenate(
        [np.arange(n_classes), rng.integers(0, n_classes, n - n_classes)]
    )
    return tuple(float(class_costs[a]) for a in assignment)


def random_config(rng, n, radius) -> GameConfig:
    return GameConfig(
        distribution=random_distribution(rng, radius),
        n=n,
        costs=random_costs(rng, n),
    )



def nudged_threshold_profile(rng, cutoffs, radius, max_ulps=3) -> StrategyProfile:
    """Cut-off profile with each given cut-off moved by up to max_ulps ulps."""
    moved = []
    for t, steps in zip(cutoffs, rng.integers(-max_ulps, max_ulps + 1, len(cutoffs))):
        toward = radius if steps > 0 else 0.0
        for _ in range(abs(int(steps))):
            t = float(np.nextafter(t, toward))
        moved.append(t)
    return StrategyProfile(tuple(Strategy.threshold(t, radius) for t in moved))


def random_near_tie_profile(rng, n, radius) -> StrategyProfile:
    """Cut-off profile whose cut-offs sit within a few ulps of one another."""
    base = float(rng.uniform(0.2 * radius, 0.9 * radius))
    return nudged_threshold_profile(rng, [base] * n, radius)
