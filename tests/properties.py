"""Structural property checks on success curves, shared by the unit and
acceptance suites."""

from __future__ import annotations

import numpy as np

from ragame import success_curve


def density_sup(dist) -> float:
    """Supremum of the law's density: 2/R on the disk, else the largest knot slope."""
    if dist.kind == "uniform-disk":
        return 2.0 / dist.radius
    slopes = np.diff(dist.knots_cdf) / np.diff(dist.knots_d)
    return float(slopes.max())


def structure_checks(profile, cfg, i, grid_points=1000):
    """Assert the curve-shape properties of node i's success probability.

    Checks: value 1 at distance 0; exact monotone non-increase; the
    (1 - F)^(n-1) lower bound; strict loss at R when someone may transmit;
    constancy across all-silent stretches; strict decrease where an opponent
    transmits (strictly increasing CDFs only); and the (n-1) * sup-density
    Lipschitz bound.
    """
    dist = cfg.distribution
    curve = success_curve(profile, cfg, i, grid_size=grid_points)
    g = curve.values
    grid = curve.grid

    assert g[0] == 1.0 and grid[0] == 0.0
    assert np.all(np.diff(g) <= 0.0)  # exactly non-increasing

    lower = (1.0 - dist.cdf(grid)) ** (cfg.n - 1)
    assert np.all(g >= lower - 1e-12)

    b_total = sum(s.transmit_probability(dist) for s in profile.opponents(i))
    if b_total > 1e-9:
        assert g[-1] < 1.0

    opponents = profile.opponents(i)
    mids = 0.5 * (grid[:-1] + grid[1:])
    distinct = grid[1:] > grid[:-1]
    anyone = np.zeros(mids.shape, dtype=bool)
    for s in opponents:
        anyone |= s.transmit_mask(mids)
    silent = ~anyone & distinct
    assert np.all(np.abs(np.diff(g)[silent]) <= 1e-12)
    active = anyone & distinct
    if dist.strictly_increasing:
        assert np.all(np.diff(g)[active] < 0.0)

    lk = (cfg.n - 1) * density_sup(dist)
    assert np.all(np.abs(np.diff(g)) <= lk * np.diff(grid) + 1e-12)
