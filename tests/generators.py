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


def random_cutoff_profile(rng, n, radius) -> StrategyProfile:
    """Cut-off profile with repeated cut-offs, silent nodes and nodes at R.

    Each cut-off is 0, R, a fresh uniform draw or one drawn before.
    """
    cutoffs = []
    for _ in range(n):
        kind = int(rng.choice(4, p=(0.1, 0.1, 0.6, 0.2))) if cutoffs else 2
        t = (0.0, radius, rng.uniform(0.0, radius), None)[kind]
        cutoffs.append(float(t if t is not None else cutoffs[rng.integers(0, len(cutoffs))]))
    return StrategyProfile(tuple(Strategy.threshold(t, radius) for t in cutoffs))


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


#: Piecewise laws on [0, 12] whose interpolated CDF, without the cap at the
#: next knot's value, would sit one ulp above F(knot) one float below their
#: second interior knot.
STEP_LAWS = tuple(
    RadialDistribution.piecewise_linear_cdf(12.0, knots)
    for knots in (
        [[0.0, 0.0], [1.509399679793486, 0.15426757470106794],
         [10.366272653055105, 0.7151474161140755], [12.0, 1.0]],
        [[0.0, 0.0], [0.6376568452365655, 0.2241355289375106],
         [6.816536601676825, 0.7521534574954655], [12.0, 1.0]],
        [[0.0, 0.0], [1.1144942272874407, 0.33675547684410023],
         [3.742966679191773, 0.7098987077509639], [12.0, 1.0]],
        [[0.0, 0.0], [2.1813623564706854, 0.062271451252217946],
         [7.004301470925062, 0.8313244835349772], [12.0, 1.0]],
    )
)


def random_knot_tie_game(rng, n, dist) -> tuple[GameConfig, StrategyProfile]:
    """Game on a piecewise law whose utility zeros sit on CDF knots.

    Each opponent cut-off is a knot or R, and each node's cost makes
    c/(1+c) its success at an interior knot, all moved by up to 2 ulps.
    """
    radius, knots = dist.radius, dist.knots_d
    picks = [knots[k] for k in rng.integers(1, len(knots), n)]
    picks += [knots[k] for k in rng.integers(1, len(knots) - 1, n)]
    moved = [s.cutoff for s in nudged_threshold_profile(rng, picks, radius, max_ulps=2).strategies]
    profile = StrategyProfile(tuple(Strategy.threshold(t, radius) for t in moved[:n]))
    costs = []
    for i, d in enumerate(moved[n:]):
        g = 1.0
        for j, t in enumerate(moved[:n]):
            if j != i:
                g *= 1.0 - dist.cdf_scalar(min(d, t))
        costs.append(g / (1.0 - g))
    return GameConfig(distribution=dist, n=n, costs=tuple(costs)), profile
