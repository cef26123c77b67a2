import io

import numpy as np
import pytest

from ragame import (
    DomainError,
    GameConfig,
    RadialDistribution,
    Strategy,
    StrategyProfile,
    success_curve,
    success_probability,
)
from ragame.success import breakpoints, success_evaluator

from tests.generators import (
    random_distribution,
    random_increasing_cdf,
    random_near_tie_profile,
    random_profile,
    random_threshold_profile,
)
from tests.oracles import (
    complement_within,
    linear_cdf,
    success_direct,
    success_per_call,
    uniform_disk_cdf,
    union_measure,
)
from tests.properties import density_sup

R = 12.0
DISK = RadialDistribution.uniform_disk(R)


def two_node_cfg(dist=DISK):
    return GameConfig(distribution=dist, n=2, costs=(1.0, 1.0))


def profile_with_opponent(s2: Strategy) -> StrategyProfile:
    # node 0's own strategy never enters its success probability
    return StrategyProfile((Strategy.always(R), s2))


def test_opponent_factor_at_zero_is_one():
    rng = np.random.default_rng(4)
    from tests.generators import random_strategy

    for _ in range(50):
        s = random_strategy(rng, R)
        assert 1.0 - s.transmit_mass_below(DISK, 0.0) == 1.0


def test_opponent_factor_threshold_values():
    s = Strategy.threshold(6.0, R)
    assert 1.0 - s.transmit_mass_below(DISK, 3.0) == 0.9375  # 1 - 9/144
    assert 1.0 - s.transmit_mass_below(DISK, 9.0) == 0.75    # 1 - F(min(9, 6))


def test_opponent_factor_equals_direct_union_measure():
    rng = np.random.default_rng(12)
    from tests.generators import random_strategy

    for _ in range(200):
        dist = random_distribution(rng, R)
        s = random_strategy(rng, R)
        cdf = (lambda dd: float(dist.cdf(dd)))
        for d in rng.uniform(0.0, R, 5):
            direct = union_measure(
                cdf, [(d, R)] + complement_within(s.intervals, R)
            )
            assert abs((1.0 - s.transmit_mass_below(dist, float(d))) - direct) <= 1e-12


def test_success_probability_examples():
    cfg = two_node_cfg()
    # opponent backs off on [0, R/2) and transmits on [R/2, R]
    outer = profile_with_opponent(Strategy(radius=R, intervals=((6.0, 12.0),)))
    assert success_probability(outer, cfg, 0, 3.0) == 1.0
    # opponent transmits on the inner half only
    inner = profile_with_opponent(Strategy.threshold(6.0, R))
    assert success_probability(inner, cfg, 0, 9.0) == 0.75
    # three nodes, both opponents cut off at 6
    cfg3 = GameConfig(distribution=DISK, n=3, costs=(1.0, 1.0, 1.0))
    both = StrategyProfile(
        (Strategy.always(R), Strategy.threshold(6.0, R), Strategy.threshold(6.0, R))
    )
    assert success_probability(both, cfg3, 0, 3.0) == 0.87890625  # 0.9375 ** 2


def test_success_probability_at_zero_is_one():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        cfg = GameConfig(distribution=random_distribution(rng, R), n=n, costs=(1.0,) * n)
        profile = random_profile(rng, n, R)
        assert success_probability(profile, cfg, 0, 0.0) == 1.0


def test_success_curve_values_uniform_disk_and_linear():
    # outer-half opponent, evaluated at {0, 3, 9}: the definitional oracle
    # gives {1, 1, 0.6875} under the uniform-disk law and {1, 1, 0.75} under
    # the uniform-on-length law.
    opp = [[], [(6.0, 12.0)]]
    for dist, cdf, expect in (
        (DISK, uniform_disk_cdf(R), 0.6875),
        (RadialDistribution.piecewise_linear_cdf(R, [[0.0, 0.0], [R, 1.0]]), linear_cdf(R), 0.75),
    ):
        cfg = two_node_cfg(dist)
        profile = profile_with_opponent(Strategy(radius=R, intervals=((6.0, 12.0),)))
        got = [success_probability(profile, cfg, 0, d) for d in (0.0, 3.0, 9.0)]
        want = [success_direct(opp, cdf, R, 0, d) for d in (0.0, 3.0, 9.0)]
        assert want == [1.0, 1.0, expect]
        assert got == pytest.approx(want, abs=1e-15)


def test_success_curve_trivial_profiles():
    cfg = two_node_cfg()
    silent = profile_with_opponent(Strategy.never(R))
    curve = success_curve(silent, cfg, 0, grid_size=11)
    assert np.all(curve.values == 1.0)

    loud = profile_with_opponent(Strategy.always(R))
    vals = success_probability(loud, cfg, 0, np.array([0.0, 6.0, 12.0]))
    assert list(vals) == [1.0, 0.75, 0.0]


def test_success_curve_includes_breakpoints_and_minimal_grid():
    cfg = two_node_cfg()
    profile = profile_with_opponent(Strategy(radius=R, intervals=((4.0, 6.0), (8.0, 10.0))))
    curve = success_curve(profile, cfg, 0, grid_size=2)
    assert set(curve.breakpoints) == {4.0, 6.0, 8.0, 10.0}
    assert set(curve.grid) == {0.0, 4.0, 6.0, 8.0, 10.0, 12.0}
    assert curve.values[0] == 1.0
    # without interior breakpoints the minimal grid is exactly the endpoints
    plain = profile_with_opponent(Strategy.always(R))
    minimal = success_curve(plain, cfg, 0, grid_size=2)
    assert list(minimal.grid) == [0.0, 12.0]
    assert list(minimal.values) == [1.0, 0.0]
    with pytest.raises(DomainError):
        success_curve(profile, cfg, 0, grid_size=1)
    with pytest.raises(DomainError):
        success_curve(profile, cfg, 5, grid_size=10)
    for bad in (float("nan"), 12.5, np.array([0.0, float("nan")])):
        with pytest.raises(DomainError):
            success_probability(profile, cfg, 0, bad)


def test_success_matches_direct_oracle_on_random_profiles():
    rng = np.random.default_rng(33)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        dist = random_distribution(rng, R)
        cfg = GameConfig(distribution=dist, n=n, costs=(1.0,) * n)
        profile = random_profile(rng, n, R)
        transmit_sets = [list(s.intervals) for s in profile.strategies]
        cdf = (lambda dd: float(dist.cdf(dd)))
        i = int(rng.integers(0, n))
        for d in rng.uniform(0.0, R, 8):
            direct = success_direct(transmit_sets, cdf, R, i, float(d))
            assert abs(success_probability(profile, cfg, i, float(d)) - direct) <= 1e-12


def test_structural_properties_random_profiles():
    from tests.properties import structure_checks

    rng = np.random.default_rng(101)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        dist = random_distribution(rng, R)
        cfg = GameConfig(distribution=dist, n=n, costs=tuple(rng.uniform(0.5, 2.0, n)))
        profile = random_profile(rng, n, R)
        structure_checks(profile, cfg, int(rng.integers(0, n)))


def test_upper_bound_with_always_transmitter():
    rng = np.random.default_rng(55)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        dist = random_distribution(rng, R)
        cfg = GameConfig(distribution=dist, n=n, costs=(1.0,) * n)
        strategies = list(random_profile(rng, n, R).strategies)
        strategies[-1] = Strategy.always(R)
        profile = StrategyProfile(tuple(strategies))
        grid = np.linspace(0.0, R, 200)
        g = success_probability(profile, cfg, 0, grid)
        assert np.all(g <= 1.0 - dist.cdf(grid) + 1e-12)


def test_power_law_modulus_reported_not_asserted():
    # The n-1 power-law modulus bound eps^(n-1) * K^(n-1) does not hold for
    # products of factors in [0, 1]; report the worst observed ratio against
    # it without asserting.
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 6))
        cfg = GameConfig(distribution=DISK, n=n, costs=(1.0,) * n)
        profile = random_profile(rng, n, R)
        curve = success_curve(profile, cfg, 0, grid_size=500)
        K = density_sup(DISK)
        eps = np.diff(curve.grid)
        keep = eps > 0
        bound = (eps[keep] * K) ** (cfg.n - 1)
        ratio = np.abs(np.diff(curve.values))[keep] / np.maximum(bound, 1e-300)
        worst = max(worst, float(ratio.max()))
    print(f"power-law modulus bound: worst observed ratio {worst:.3e} (1.0 would satisfy it)")
    assert worst > 0.0  # the ratio is reported, not bounded


def test_breakpoints_collects_opponent_endpoints():
    profile = StrategyProfile(
        (
            Strategy.threshold(5.0, R),
            Strategy(radius=R, intervals=((1.0, 2.0), (3.0, 4.0))),
            Strategy.threshold(7.0, R),
        )
    )
    assert list(breakpoints(profile, 0)) == [0.0, 1.0, 2.0, 3.0, 4.0, 7.0]


def test_curve_csv_matches_per_row_formatting():
    # more rows than one write block, on a piecewise law
    rng = np.random.default_rng(12)
    dist = random_increasing_cdf(rng, R)
    profile = random_profile(rng, 3, R)
    cfg = GameConfig(distribution=dist, n=3, costs=(1.0,) * 3)
    curve = success_curve(profile, cfg, 0, grid_size=10_001)
    buf = io.StringIO()
    curve.write_csv(buf)
    expected = "d,g\n" + "".join(
        f"{float(d)!r},{float(g)!r}\n" for d, g in zip(curve.grid, curve.values)
    )
    assert buf.getvalue() == expected


def test_curve_csv_round_trip():
    cfg = two_node_cfg()
    profile = profile_with_opponent(Strategy.threshold(6.0, R))
    curve = success_curve(profile, cfg, 0, grid_size=5)
    buf = io.StringIO()
    curve.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "d,g"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert [r[0] for r in rows] == list(curve.grid)
    assert [r[1] for r in rows] == list(curve.values)


def _probe_points(profile, rng):
    """0, R, every interval endpoint and its neighbouring floats, random points."""
    points = {0.0, R, *rng.uniform(0.0, R, 50).tolist()}
    for s in profile.strategies:
        for a, b in s.intervals:
            for x in (a, b):
                points.update((x, float(np.nextafter(x, 0.0)), float(np.nextafter(x, R))))
    return sorted(p for p in points if 0.0 <= p <= R)


def test_evaluator_matches_per_call_cdf_kernel_bit_for_bit():
    rng = np.random.default_rng(77)
    for trial in range(60):
        n = int(rng.integers(2, 9))
        dist = random_distribution(rng, R)
        make = (random_threshold_profile, random_profile, random_near_tie_profile)[trial % 3]
        profile = make(rng, n, R)
        cfg = GameConfig(distribution=dist, n=n, costs=(1.0,) * n)
        transmit_sets = [s.intervals for s in profile.strategies]
        points = _probe_points(profile, rng)
        for i in range(n):
            fast = success_evaluator(profile, cfg, i)
            reference = success_per_call(transmit_sets, dist.cdf_scalar, i)
            assert [fast(d) for d in points] == [reference(d) for d in points]
            assert [success_probability(profile, cfg, i, d) for d in points[:5]] == [
                reference(d) for d in points[:5]
            ]


def test_evaluators_on_one_profile_follow_the_law_they_are_built_with():
    # the endpoint CDF values are cached on the profile; a second law must
    # not reuse the first one's
    rng = np.random.default_rng(5)
    profile = random_profile(rng, 4, R)
    laws = [DISK, random_increasing_cdf(rng, R), DISK]
    points = _probe_points(profile, rng)
    transmit_sets = [s.intervals for s in profile.strategies]
    for dist in laws:
        cfg = GameConfig(distribution=dist, n=4, costs=(1.0,) * 4)
        reference = success_per_call(transmit_sets, dist.cdf_scalar, 1)
        fast = success_evaluator(profile, cfg, 1)
        assert [fast(d) for d in points] == [reference(d) for d in points]
