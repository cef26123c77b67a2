import math

import numpy as np
import pytest

from ragame import (
    BOUNDARY_ZERO,
    FULL_TRANSMIT,
    INTERIOR,
    GameConfig,
    RadialDistribution,
    Strategy,
    StrategyProfile,
    best_response_threshold,
    solve_sequential,
    success_probability,
    verify_nash,
)
from ragame.best_response import first_zero
from ragame.success import success_evaluator

from tests.generators import (
    STEP_LAWS,
    nudged_threshold_profile,
    random_config,
    random_costs,
    random_cutoff_profile,
    random_distribution,
    random_increasing_cdf,
    random_knot_tie_game,
    random_near_tie_profile,
    random_profile,
    random_threshold_profile,
)
from tests.oracles import best_response_linear_scan, expected_utility_direct, first_zero_scan

R = 12.0
DISK = RadialDistribution.uniform_disk(R)


def cfg_with_cost(c, n=2, dist=DISK):
    return GameConfig(distribution=dist, n=n, costs=(float(c),) * n)


def vs_opponent(s2: Strategy) -> StrategyProfile:
    return StrategyProfile((Strategy.always(R), s2))


def utility(profile, cfg, d):
    """Node 0's expected utility of transmitting from d (scalar or array)."""
    c = cfg.costs[0]
    return (1.0 + c) * success_probability(profile, cfg, 0, d) - c


def test_expected_utility_values():
    cfg = cfg_with_cost(1.0)
    profile = vs_opponent(Strategy.always(R))
    # util(0) = (1+c)*1 - c = 1
    assert utility(profile, cfg, 0.0) == pytest.approx(1.0, abs=1e-15)
    # pick d with success 0.6: F(d) = 0.4
    d = R * math.sqrt(0.4)
    assert utility(profile, cfg, d) == pytest.approx(0.2, abs=1e-12)
    # at success = c/(1+c) the utility crosses zero by construction
    d_half = R * math.sqrt(0.5)
    assert abs(utility(profile, cfg, d_half)) <= 1e-12


def test_interior_against_always_transmitter():
    cfg = cfg_with_cost(1.0)
    result = best_response_threshold(vs_opponent(Strategy.always(R)), cfg, 0)
    assert result.boundary_case == INTERIOR
    assert result.threshold == pytest.approx(8.485281374238571, abs=1e-12)
    assert abs(result.utility_at_threshold) <= 1e-12
    assert Strategy.threshold(result.threshold, R).intervals == ((0.0, result.threshold),)


def test_full_transmit_against_silent_opponent():
    for c in (0.1, 1.0, 50.0):
        cfg = cfg_with_cost(c)
        result = best_response_threshold(vs_opponent(Strategy.never(R)), cfg, 0)
        assert result.boundary_case == FULL_TRANSMIT
        assert result.threshold == R
        assert result.utility_at_threshold == pytest.approx(1.0, abs=1e-12)


def test_full_transmit_against_cutoff_six():
    # Beyond the opponent's cut-off the success flattens at 0.75, so the
    # utility stays at 2 * 0.75 - 1 = 0.5 > 0 through R.
    cfg = cfg_with_cost(1.0)
    result = best_response_threshold(vs_opponent(Strategy.threshold(6.0, R)), cfg, 0)
    assert result.boundary_case == FULL_TRANSMIT
    assert result.threshold == R
    assert result.utility_at_threshold == pytest.approx(0.5, abs=1e-12)


def test_flat_at_zero_resolves_to_left_edge():
    # c = 3 makes the utility exactly zero on the whole flat stretch [6, R];
    # the first hit is its left edge.
    cfg = cfg_with_cost(3.0)
    result = best_response_threshold(vs_opponent(Strategy.threshold(6.0, R)), cfg, 0)
    assert result.boundary_case == INTERIOR
    assert result.threshold == pytest.approx(6.0, abs=1e-12)
    assert utility(vs_opponent(Strategy.threshold(6.0, R)), cfg, 7.0) == 0.0


def test_boundary_zero_case():
    # Opponent transmits only on (6, R]: success strictly decreases on (6, R)
    # down to success(R) = 1 - (F(R) - F(6)) = 0.25.  Cost c = 0.25/0.75
    # makes util(R) = 0 while util > 0 everywhere before R.
    c = 0.25 / 0.75
    cfg = cfg_with_cost(c)
    result = best_response_threshold(vs_opponent(Strategy(radius=R, intervals=((6.0, 12.0),))), cfg, 0)
    assert result.boundary_case == BOUNDARY_ZERO
    assert result.threshold == R
    assert abs(result.utility_at_threshold) <= 1e-12


def test_threshold_always_positive():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        dist = random_distribution(rng, R)
        cfg = GameConfig(
            distribution=dist, n=n, costs=tuple(np.exp(rng.uniform(np.log(0.05), np.log(20), n)))
        )
        profile = random_profile(rng, n, R)
        result = best_response_threshold(profile, cfg, 0)
        assert result.threshold > 0.0


def test_sign_structure_on_random_instances():
    rng = np.random.default_rng(14)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        dist = random_distribution(rng, R)
        cfg = GameConfig(
            distribution=dist, n=n, costs=tuple(np.exp(rng.uniform(np.log(0.05), np.log(20), n)))
        )
        profile = random_profile(rng, n, R)
        result = best_response_threshold(profile, cfg, 0)
        t = result.threshold
        left = np.linspace(0.0, t * (1.0 - 1e-9), 200)
        util_left = utility(profile, cfg, left)
        assert np.all(util_left > 0.0)
        if result.boundary_case != FULL_TRANSMIT:
            right = np.linspace(t, R, 200)
            util_right = utility(profile, cfg, right)
            assert np.all(util_right <= 1e-10)


def test_matches_dense_scan_oracle():
    rng = np.random.default_rng(23)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        cfg = GameConfig(distribution=DISK, n=n, costs=tuple(rng.uniform(0.5, 4.0, n)))
        profile = random_profile(rng, n, R)
        transmit_sets = [list(s.intervals) for s in profile.strategies]

        def util(d):
            return expected_utility_direct(
                transmit_sets, lambda x: (x / R) ** 2, R, 0, d, cfg.costs[0]
            )

        oracle = first_zero_scan(util, R, n_points=40_001)
        result = best_response_threshold(profile, cfg, 0)
        if oracle is None:
            assert result.boundary_case in (FULL_TRANSMIT, BOUNDARY_ZERO)
        else:
            assert result.threshold == pytest.approx(oracle, abs=1e-9)


def test_monotone_in_cost():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        profile = random_profile(rng, n, R)
        dist = random_distribution(rng, R)
        prev = None
        for c in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0):
            cfg = GameConfig(distribution=dist, n=n, costs=(c,) * n)
            t = best_response_threshold(profile, cfg, 0).threshold
            if prev is not None:
                assert t <= prev + 1e-12
            prev = t


def test_explicit_tol_and_nonconvergence():
    cfg = cfg_with_cost(1.0)
    profile = vs_opponent(Strategy.always(R))
    # the bisection always runs to adjacent floats: util > 0 one float below
    # the cut-off and <= 0 at it
    t = best_response_threshold(profile, cfg, 0).threshold
    assert utility(profile, cfg, math.nextafter(t, 0.0)) > 0.0 >= utility(profile, cfg, t)


def _reference_games(seed, count):
    """Seeded (cfg, profile) pairs: cut-off, band and near-tie profiles,
    solved equilibria moved by a few ulps, on disk and piecewise laws, and
    piecewise games whose utility zeros sit on CDF knots."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n = int(rng.integers(2, 9))
        kind = trial % 4
        if kind == 3:
            cfg = random_config(rng, n, R)
            yield cfg, nudged_threshold_profile(rng, solve_sequential(cfg).profile.thresholds, R)
            continue
        dist = random_distribution(rng, R)
        if kind == 0:
            profile = random_threshold_profile(rng, n, R)
        elif kind == 1:
            profile = random_profile(rng, n, R)
        else:
            # costs that put each node's first zero of util among the cut-offs
            profile = random_near_tie_profile(rng, n, R)
            g = (1.0 - dist.cdf(profile.strategies[0].cutoff)) ** (n - 1)
            cfg = GameConfig(distribution=dist, n=n, costs=(g / (1.0 - g),) * n)
            yield cfg, profile
            continue
        yield GameConfig(distribution=dist, n=n, costs=random_costs(rng, n)), profile
    # Half of these laws would, uncapped, step down one ulp below a knot.
    for trial in range(count // 4):
        dist = STEP_LAWS[trial // 2 % len(STEP_LAWS)] if trial % 2 else random_increasing_cdf(rng, R)
        yield random_knot_tie_game(rng, int(rng.integers(2, 9)), dist)


def _cutoff_games(seed, count):
    """Seeded (cfg, profile) pairs in which every node uses a cut-off rule, n
    up to 60 on both laws: repeated cut-offs, silent nodes, nodes at R and
    solved equilibria moved by a few ulps, with costs from 1e-12 to 1e12."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n = int(rng.integers(2, 61)) if trial % 6 < 2 else int(rng.integers(2, 9))
        if trial % 2:
            cfg = random_config(rng, n, R)
            yield cfg, nudged_threshold_profile(rng, solve_sequential(cfg).profile.thresholds, R)
            continue
        dist = STEP_LAWS[trial // 2 % 4] if trial % 8 == 6 else random_distribution(rng, R)
        costs = tuple(float(c) for c in np.exp(rng.uniform(math.log(1e-12), math.log(1e12), n)))
        yield GameConfig(distribution=dist, n=n, costs=costs), random_cutoff_profile(rng, n, R)


def test_matches_linear_scan_reference_bit_for_bit():
    boundary_zero = (
        cfg_with_cost(0.25 / 0.75),
        vs_opponent(Strategy(radius=R, intervals=((6.0, 12.0),))),
    )
    # Every opponent silent and a cost so large that (1 + c) - c rounds to 0:
    # success is exactly 1, so the node still transmits everywhere.
    all_silent = (
        cfg_with_cost(1e16),
        StrategyProfile((Strategy.never(R), Strategy.never(R))),
    )
    # On a flat-topped law, against an always-transmitting opponent, a tiny
    # cost rounds the guess's 1 - F(t) = c / (1 + c) to F(t) = 1, where the
    # interpolation divides by zero: no guess, so the search starts blind.
    flat_top = RadialDistribution.piecewise_linear_cdf(R, [[0.0, 0.0], [6.0, 1.0], [R, 1.0]])
    flat_top_games = [
        (cfg_with_cost(c, dist=flat_top), vs_opponent(Strategy.always(R)))
        for c in (1e-300, 1e-200, 1e-20)
    ]
    for cfg, _ in flat_top_games:
        c = cfg.costs[0]
        assert math.isnan(flat_top._root_guess(1.0, 1, c / (1.0 + c)))
    games = [
        boundary_zero,
        all_silent,
        *flat_top_games,
        *_reference_games(seed=41, count=120),
        *_cutoff_games(seed=7, count=36),
    ]
    for cfg, profile in games:
        transmit_sets = [s.intervals for s in profile.strategies]
        for i in range(cfg.n):
            result = best_response_threshold(profile, cfg, i)
            expected = best_response_linear_scan(
                transmit_sets, cfg.distribution.cdf_scalar, R, i, cfg.costs[i]
            )
            assert (result.threshold, result.boundary_case, result.utility_at_threshold) == expected
            assert type(result.threshold) is float
    cfg, profile = all_silent
    result = best_response_threshold(profile, cfg, 0)
    assert (result.threshold, result.boundary_case) == (R, FULL_TRANSMIT)
    for cfg, profile in flat_top_games:
        result = best_response_threshold(profile, cfg, 0)
        assert (result.threshold, result.boundary_case) == (6.0, INTERIOR)


def test_first_zero_is_scale_free():
    # The generic search (no guess) finds a zero in any binade of [0, R] in
    # at most about 75 evaluations, and any guess leaves the result unchanged.
    roots = [math.ldexp(1.0, e) for e in range(-1074, 4, 7)]
    roots += [5e-324, 1e-300, 1e-100, 1e-12, 6.0, math.nextafter(R, 0.0), R]
    for root in roots:
        calls = []

        def f(x):
            calls.append(x)
            return 1.0 if x < root else -1.0

        assert first_zero(f, 0.0, R) == root
        assert len(calls) <= 75, (root, len(calls))
        for guess in (math.nan, -1.0, 0.0, 5e-324, root, math.nextafter(root, 0.0),
                      math.nextafter(root, R), 1e-150, 1.0, R, math.inf):
            assert first_zero(f, 0.0, R, guess) == root, (root, guess)


def plain_class_solve(cfg):
    """solve_sequential's class equations, each bisected blind on (previous cut-off, R)."""
    cdf, radius = cfg.distribution.cdf_scalar, cfg.radius
    thresholds, remaining, prefix, t = [0.0] * cfg.n, cfg.n, 1.0, 0.0
    for cost in sorted(set(cfg.costs), reverse=True):
        members = [i for i, c in enumerate(cfg.costs) if c == cost]
        remaining -= len(members)
        exponent, target = len(members) - 1 + remaining, cost / (1.0 + cost)
        lo, t = t, radius
        while exponent:  # a cheapest singleton (exponent 0) stays at R
            mid = 0.5 * (lo + t)
            if mid <= lo or mid >= t:
                break
            if prefix * (1.0 - cdf(mid)) ** exponent - target > 0.0:
                lo = mid
            else:
                t = mid
        for m in members:
            thresholds[m] = t
        prefix *= (1.0 - cdf(t)) ** len(members)
    return tuple(thresholds)


def test_class_solve_matches_plain_bisection_bit_for_bit():
    rng = np.random.default_rng(19)
    for trial in range(40):
        n = int(rng.integers(2, 61))
        cfg = random_config(rng, n, R)
        if trial % 2:
            costs = np.exp(rng.uniform(math.log(1e-12), math.log(1e12), n))
            cfg = GameConfig(cfg.distribution, n, tuple(float(c) for c in costs))
        assert solve_sequential(cfg).profile.thresholds == plain_class_solve(cfg)


def test_best_response_takes_at_most_12_evaluations(monkeypatch):
    # Verifying a K = n equilibrium: every opponent is a cut-off rule, so each
    # best response starts at its closed-form guess (about 58 evaluations blind).
    import ragame.best_response as br

    def counting_evaluator(*args):
        evaluate = success_evaluator(*args)
        builds.append(1)

        def counted(d):
            evals.append(1)
            return evaluate(d)

        return counted

    rng = np.random.default_rng(3)
    for n in (50, 100):
        for dist in (DISK, random_increasing_cdf(rng, R)):
            costs = tuple(float(c) for c in np.exp(rng.uniform(math.log(0.1), math.log(10.0), n)))
            cfg = GameConfig(distribution=dist, n=n, costs=costs)
            profile = solve_sequential(cfg).profile
            builds, evals = [], []
            monkeypatch.setattr(br, "success_evaluator", counting_evaluator)
            assert verify_nash(profile, cfg).is_nash
            monkeypatch.undo()
            assert len(builds) == n
            assert len(evals) / len(builds) <= 12.0, (n, dist.kind, len(evals) / len(builds))


def test_a_lone_band_node_starts_from_the_closed_form_guess(monkeypatch):
    # Node 0 is the profile's only band strategy, so its opponents are all
    # cut-offs and its search starts at the closed-form guess; every other
    # node has node 0 among its opponents and searches blind.  Either way the
    # result is the linear scan's, bit for bit.
    import ragame.best_response as br

    guesses, cutoff_guess = [], br._cutoff_guess

    def spy(*args):  # records (node, guess)
        guesses.append((args[1], cutoff_guess(*args)))
        return guesses[-1][1]

    monkeypatch.setattr(br, "_cutoff_guess", spy)
    rng = np.random.default_rng(30)
    band = Strategy(radius=R, intervals=((1.0, 3.0), (5.0, 7.5)))
    for dist in (DISK, *STEP_LAWS, random_increasing_cdf(rng, R)):
        cutoffs = [Strategy.always(R), Strategy.never(R)]
        cutoffs += [Strategy.threshold(rng.uniform(0.0, R), R) for _ in range(4)]
        profile = StrategyProfile((band, *cutoffs))
        cfg = GameConfig(distribution=dist, n=7, costs=random_costs(rng, 7))
        transmit_sets = [s.intervals for s in profile.strategies]
        guesses.clear()
        for i in range(cfg.n):
            result = best_response_threshold(profile, cfg, i)
            expected = best_response_linear_scan(
                transmit_sets, dist.cdf_scalar, R, i, cfg.costs[i]
            )
            assert (result.threshold, result.boundary_case, result.utility_at_threshold) == expected
        assert len(guesses) == 1 and guesses[0][0] == 0 and math.isfinite(guesses[0][1])


def test_best_response_reads_the_opponent_table_once(monkeypatch):
    # A best response sees its opponents only through the validated table:
    # one _opponent_rows call, and no walk over their Strategy objects.
    import ragame.best_response as br
    import ragame.equilibrium as eq
    import ragame.success as su

    calls = {"rows": 0, "best_response": 0, "success_probability": 0, "opponents": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    cfg = GameConfig(distribution=DISK, n=6, costs=(3.0, 2.0, 1.5, 1.0, 0.7, 0.5))
    profile = solve_sequential(cfg).profile
    rows = counted("rows", su._opponent_rows)
    monkeypatch.setattr(su, "_opponent_rows", rows)
    monkeypatch.setattr(br, "_opponent_rows", rows)
    for owner, name, key in (
        (eq, "best_response_threshold", "best_response"),
        (eq, "success_probability", "success_probability"),
        (StrategyProfile, "opponents", "opponents"),
    ):
        monkeypatch.setattr(owner, name, counted(key, getattr(owner, name)))
    assert verify_nash(profile, cfg).is_nash
    assert calls["best_response"] == cfg.n
    # each scalar success_probability builds its own table once too
    assert calls["rows"] == calls["best_response"] + calls["success_probability"]
    assert calls["opponents"] == 0
