import io
import logging
import math

import numpy as np
import pytest

from ragame import (
    DomainError,
    GameConfig,
    RadialDistribution,
    SimConfig,
    Strategy,
    StrategyProfile,
    estimate_expected_utility,
    estimate_success_curve,
    estimate_success_probability,
    solve_symmetric_uniform,
    success_probability,
)
from ragame.monte_carlo import CHUNK_SIZE, _cut_points, write_estimates_csv

from tests.generators import random_distribution, random_increasing_cdf, random_profile
from tests.oracles import closest_transmitter_distances, monte_carlo_counts

R = 12.0
DISK = RadialDistribution.uniform_disk(R)


def cfg_n(n, c=1.0, dist=DISK):
    return GameConfig(distribution=dist, n=n, costs=(c,) * n)


def test_silent_opponents_always_succeed():
    cfg = cfg_n(3)
    profile = StrategyProfile((Strategy.always(R), Strategy.never(R), Strategy.never(R)))
    est = estimate_success_probability(profile, cfg, 0, 7.0, SimConfig(samples=2000, seed=1))
    assert est.mean == 1.0
    assert est.std_error == 0.0
    assert est.samples == 2000


def test_success_estimate_at_zero_is_one():
    cfg = cfg_n(2)
    profile = StrategyProfile((Strategy.always(R), Strategy.always(R)))
    est = estimate_success_probability(profile, cfg, 0, 0.0, SimConfig(samples=5000, seed=2))
    assert est.mean == 1.0


def test_against_analytic_threshold_opponent():
    # analytic value 1 - F(3) = 0.9375; a million samples pin it to ~1.5e-3
    cfg = cfg_n(2)
    profile = StrategyProfile((Strategy.always(R), Strategy.threshold(6.0, R)))
    est = estimate_success_probability(profile, cfg, 0, 3.0, SimConfig(samples=1_000_000, seed=3))
    assert abs(est.mean - 0.9375) <= 1.5e-3
    assert est.std_error == pytest.approx(np.sqrt(est.mean * (1 - est.mean) / 1e6))


def test_deterministic_given_seed():
    rng = np.random.default_rng(44)
    cfg = cfg_n(3, dist=random_distribution(rng, R))
    profile = random_profile(rng, 3, R)
    a = estimate_success_probability(profile, cfg, 0, 5.0, SimConfig(samples=70_000, seed=9))
    b = estimate_success_probability(profile, cfg, 0, 5.0, SimConfig(samples=70_000, seed=9))
    assert (a.mean, a.std_error) == (b.mean, b.std_error)
    c = estimate_success_probability(profile, cfg, 0, 5.0, SimConfig(samples=70_000, seed=10))
    assert c.mean != a.mean


def test_chunked_aggregation_spans_chunks():
    # more samples than one chunk; the layout is fixed by (seed, samples)
    cfg = cfg_n(2)
    profile = StrategyProfile((Strategy.always(R), Strategy.threshold(6.0, R)))
    n = CHUNK_SIZE + 12_345
    est = estimate_success_probability(profile, cfg, 0, 3.0, SimConfig(samples=n, seed=5))
    assert est.samples == n
    assert abs(est.mean - 0.9375) <= 5e-3
    # a curve point counts the same trials as the single-distance estimate
    curve = estimate_success_curve(profile, cfg, 0, [0.0, 3.0, R], SimConfig(samples=n, seed=5))
    assert curve[1] == est


def test_curve_estimates_monotone_exactly():
    rng = np.random.default_rng(50)
    for trial in range(5):
        n = int(rng.integers(2, 5))
        dist = random_distribution(rng, R)
        cfg = cfg_n(n, dist=dist)
        profile = random_profile(rng, n, R)
        grid = np.linspace(0.0, R, 50)
        ests = estimate_success_curve(profile, cfg, 0, grid, SimConfig(samples=20_000, seed=trial))
        means = [e.mean for e in ests]
        assert all(a >= b for a, b in zip(means, means[1:]))


def test_curve_estimates_agree_with_analytic():
    rng = np.random.default_rng(60)
    for trial in range(10):
        n = int(rng.integers(2, 6))
        dist = random_distribution(rng, R)
        cfg = cfg_n(n, dist=dist)
        profile = random_profile(rng, n, R)
        grid = np.linspace(0.0, R, 20)
        ests = estimate_success_curve(profile, cfg, 0, grid, SimConfig(samples=100_000, seed=trial))
        analytic = success_probability(profile, cfg, 0, grid)
        for g, e in zip(analytic, ests):
            assert abs(g - e.mean) <= 4.0 * e.std_error


def test_utility_transform_and_backoff_convention():
    cfg = cfg_n(2, c=1.0)
    profile = StrategyProfile((Strategy.threshold(6.0, R), Strategy.threshold(6.0, R)))
    sim = SimConfig(samples=50_000, seed=7)
    success = estimate_success_probability(profile, cfg, 0, 3.0, sim)
    utility = estimate_expected_utility(profile, cfg, 0, 3.0, sim)
    assert utility.mean == pytest.approx(2.0 * success.mean - 1.0, abs=1e-15)
    assert utility.std_error == pytest.approx(2.0 * success.std_error, abs=1e-15)
    # the node backs off beyond its cut-off: no transmission, no cost
    backing_off = estimate_expected_utility(profile, cfg, 0, 9.0, sim)
    assert backing_off.mean == 0.0
    assert backing_off.std_error == 0.0


def test_utility_near_zero_at_equilibrium_threshold():
    n, c = 3, 1.0
    t = solve_symmetric_uniform(n, c, R)
    cfg = cfg_n(n, c=c)
    profile = StrategyProfile(tuple(Strategy.threshold(t, R) for _ in range(n)))
    est = estimate_expected_utility(profile, cfg, 0, t, SimConfig(samples=200_000, seed=13))
    assert est.std_error > 0
    assert abs(est.mean) <= 4.0 * est.std_error


def test_tie_broken_in_favour_and_logged(caplog):
    cfg = cfg_n(2)
    profile = StrategyProfile((Strategy.always(R), Strategy.always(R)))
    # reproduce the single opponent draw, then condition exactly on it
    seed = 123
    child = np.random.SeedSequence(seed).spawn(1)[0]
    u = np.random.default_rng(child).random((1, 1))
    tie_d = float(DISK.quantile(u[0, 0]))
    with caplog.at_level(logging.WARNING, logger="ragame.monte_carlo"):
        est = estimate_success_probability(profile, cfg, 0, tie_d, SimConfig(samples=1, seed=seed))
    assert est.mean == 1.0  # the tie goes to the conditioned node
    assert any("tie" in rec.message for rec in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="ragame.monte_carlo"):
        curve = estimate_success_curve(profile, cfg, 0, [tie_d], SimConfig(samples=1, seed=seed))
    assert curve == [est]
    assert any("tie" in rec.message for rec in caplog.records)


def test_sim_config_validation():
    for samples, seed in ((0, 1), (10, -1), (True, 1), (10, False), (2.5, 1), (10, 1.0), ("10", 1)):
        with pytest.raises(DomainError):
            SimConfig(samples=samples, seed=seed)
    sim = SimConfig(samples=np.int64(3), seed=np.uint32(0))
    assert (type(sim.samples), type(sim.seed)) == (int, int)
    cfg = cfg_n(2)
    profile = StrategyProfile((Strategy.always(R), Strategy.always(R)))
    sim = SimConfig(samples=10, seed=1)
    for d in (float("nan"), -1.0, 12.5):
        with pytest.raises(DomainError):
            estimate_success_probability(profile, cfg, 0, d, sim)
        with pytest.raises(DomainError):
            estimate_expected_utility(profile, cfg, 0, d, sim)
        with pytest.raises(DomainError):
            estimate_success_curve(profile, cfg, 0, [0.0, d], sim)


def test_estimates_csv():
    cfg = cfg_n(2)
    profile = StrategyProfile((Strategy.always(R), Strategy.threshold(6.0, R)))
    grid = [0.0, 3.0, 9.0]
    ests = estimate_success_curve(profile, cfg, 0, grid, SimConfig(samples=1000, seed=4))
    buf = io.StringIO()
    write_estimates_csv(grid, ests, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "d,estimate,std_error"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0
    assert buf.getvalue() == "d,estimate,std_error\n" + "".join(
        f"{float(d)!r},{e.mean!r},{e.std_error!r}\n" for d, e in zip(grid, ests)
    )


def test_cut_points_are_the_largest_floats_mapping_at_or_below_each_end():
    # The sampler masks draws against these: u transmits for (a, b] exactly
    # when cut(a) < u <= cut(b), so each cut must be the largest float u in
    # [0, 1] with quantile(u) <= x, whatever search finds it.
    rng = np.random.default_rng(27)
    for case in range(51):
        dist = random_increasing_cdf(rng, R) if case else DISK
        near = dist.quantile(rng.random(20))
        ends = np.clip(
            np.concatenate([
                [0.0, R], dist.knots_d or (), rng.uniform(0.0, R, 20),
                near, np.nextafter(near, -1.0), np.nextafter(near, 2 * R),
            ]),
            0.0, R,
        )
        cuts = _cut_points(dist.quantile, ends)
        assert cuts.shape == ends.shape
        assert ((cuts >= 0.0) & (cuts <= 1.0)).all()
        assert (dist.quantile(cuts) <= ends).all()
        above = np.nextafter(cuts, 2.0)
        assert ((cuts == 1.0) | (dist.quantile(np.minimum(above, 1.0)) > ends)).all()


def _random_opponent(rng, dist, drawn):
    """A strategy with no interval, or with endpoints that are random, knots
    of the law, or distances this opponent draws (so draws hit them)."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return Strategy.never(R)
    if kind == 3:
        pool = drawn
    else:
        pool = list(dist.knots_d) if dist.knots_d and kind == 1 else rng.uniform(0.0, R, 6)
    ends = sorted(set(rng.choice(pool, size=min(len(pool), 2 * int(rng.integers(1, 4)))).tolist()))
    return Strategy(radius=R, intervals=tuple(zip(ends[::2], ends[1::2])))


def test_estimates_bit_identical_to_distance_space_kernel(caplog):
    # The library masks uniforms in probability space and maps only each
    # trial's least transmitting draw through quantile; the reference maps
    # every draw and masks distances.  Means, standard errors and logged
    # ties must agree bit for bit, also where draws land on endpoints.
    rng = np.random.default_rng(20)
    sizes = (1, CHUNK_SIZE - 1, CHUNK_SIZE + 1, 2, 5000, 1000)
    for case in range(18):
        dist = random_increasing_cdf(rng, R) if case % 2 else DISK
        n = (2, 50, 2, 4)[case % 4] if case < 8 else int(rng.integers(2, 12))
        samples, seed = sizes[case % len(sizes)], 100 + case
        child = np.random.SeedSequence(seed).spawn(1)[0]
        u = np.random.default_rng(child).random((min(samples, CHUNK_SIZE), n - 1))
        drawn = dist.quantile(u[:50])
        profile = StrategyProfile(
            (Strategy.always(R), *(_random_opponent(rng, dist, drawn[:, j]) for j in range(n - 1)))
        )
        cfg = cfg_n(n, dist=dist)
        ends = {x for s in profile.strategies for iv in s.intervals for x in iv}
        grid = sorted(ends | set(dist.knots_d or ()) | set(np.linspace(0.0, R, 9).tolist()))
        # closest distances drawn in the first chunk too, so that ties occur
        closest = closest_transmitter_distances(
            profile, cfg, 0, np.random.default_rng(child), min(samples, CHUNK_SIZE)
        )
        grid += closest[np.isfinite(closest)][:3].tolist()
        counts, ties = monte_carlo_counts(profile, cfg, 0, grid, samples, seed, CHUNK_SIZE)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="ragame.monte_carlo"):
            ests = estimate_success_curve(profile, cfg, 0, grid, SimConfig(samples=samples, seed=seed))
        means = [c / samples for c in counts]
        assert [e.mean for e in ests] == means
        assert [e.std_error for e in ests] == [math.sqrt(mu * (1 - mu) / samples) for mu in means]
        logged = [rec.getMessage() for rec in caplog.records]
        assert logged == ([f"broke {ties} floating-point distance tie(s) in favour of node 0"] if ties else [])
