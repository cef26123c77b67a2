import io

import numpy as np
import pytest

from ragame import (
    DomainError,
    GameConfig,
    RadialDistribution,
    Strategy,
    StrategyProfile,
    best_response_threshold,
    success_curve,
    success_probability,
    verify_nash,
)
from ragame.success import _opponent_rows, breakpoints, success_evaluator

from tests.generators import (
    STEP_LAWS,
    random_cutoff_profile,
    random_distribution,
    random_increasing_cdf,
    random_near_tie_profile,
    random_profile,
    random_strategy,
    random_threshold_profile,
)
from tests.oracles import (
    complement_within,
    linear_cdf,
    success_direct,
    success_per_call,
    success_row_loop,
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


#: An opponent interval whose lower end a has (a/R) ** 2 (libm pow) one ulp
#: below numpy's array square: 0.5295547268945169 against 0.529554726894517.
POW_GAP = (8.732461318139945, 9.692213917126027)


def test_opponent_factor_at_zero_is_one():
    rng = np.random.default_rng(4)
    from tests.generators import random_strategy

    strategies = [random_strategy(rng, R) for _ in range(50)]
    strategies.append(Strategy(radius=R, intervals=(POW_GAP,)))
    for s in strategies:
        assert 1.0 - s.transmit_mass_below(DISK, 0.0) == 1.0
        # an array grid takes the array CDF, which the scalar input does not;
        # nothing is transmitted up to the first interval's lower end
        grid = np.array([0.0, *(a for a, _ in s.intervals[:1])])
        assert np.all(1.0 - s.transmit_mass_below(DISK, grid) == 1.0)


def test_curve_starts_at_one_where_pow_and_square_round_apart():
    a, b = POW_GAP
    assert (a / R) ** 2 < float(DISK.cdf(np.array([a]))[0])
    cfg = two_node_cfg()
    profile = profile_with_opponent(Strategy(radius=R, intervals=(POW_GAP,)))
    curve = success_curve(profile, cfg, 0, grid_size=101)
    assert curve.values[0] == 1.0 == success_probability(profile, cfg, 0, 0.0)
    # below and at a the opponent is silent, so the curve is exactly 1 there
    points = [0.0, float(np.nextafter(a, 0.0)), a, b, float(np.nextafter(b, R)), R]
    scalar = [success_probability(profile, cfg, 0, d) for d in points]
    assert success_probability(profile, cfg, 0, np.array(points)).tolist() == scalar
    assert scalar[:3] == [1.0, 1.0, 1.0]


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
        ds = rng.uniform(0.0, R, 5)
        for d in ds:
            direct = union_measure(
                cdf, [(d, R)] + complement_within(s.intervals, R)
            )
            assert abs((1.0 - s.transmit_mass_below(dist, float(d))) - direct) <= 1e-12
        # on an array, bit for bit the factor of a success curve
        grid = np.array(sorted({0.0, R, *ds.tolist(), *(x for iv in s.intervals for x in iv)}))
        factor = success_probability(profile_with_opponent(s), two_node_cfg(dist), 0, grid)
        assert np.array_equal(1.0 - s.transmit_mass_below(dist, grid), factor)


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


def test_profile_on_another_radius_is_rejected():
    profile = StrategyProfile((Strategy.always(10.0), Strategy.threshold(5.0, 10.0)))
    cfg = two_node_cfg()  # radius 12
    for call in (
        lambda: success_probability(profile, cfg, 0, 3.0),
        lambda: success_probability(profile, cfg, 0, np.array([3.0])),
        lambda: best_response_threshold(profile, cfg, 0),
        lambda: verify_nash(profile, cfg),
    ):
        with pytest.raises(DomainError, match="profile radius and game radius disagree"):
            call()


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
            fast = success_evaluator(_opponent_rows(profile, cfg, i), dist.cdf_scalar)
            reference = success_per_call(transmit_sets, dist.cdf_scalar, i)
            assert [fast(d) for d in points] == [reference(d) for d in points]
            assert [success_probability(profile, cfg, i, d) for d in points[:5]] == [
                reference(d) for d in points[:5]
            ]


def _mixed_profile(rng, n, radius):
    """Cut-offs, bands, silent nodes and nodes at R, in random node order."""
    makes = (
        lambda: Strategy.threshold(rng.uniform(0.0, radius), radius),
        lambda: random_strategy(rng, radius),
        lambda: Strategy.never(radius),
        lambda: Strategy.always(radius),
    )
    return StrategyProfile(tuple(makes[int(rng.integers(4))]() for _ in range(n)))


def _lone_band_profile(rng, n, radius):
    """Node 0 transmits on two bands and every other node is a cut-off (0 and R included)."""
    band = Strategy(radius=radius, intervals=((1.0, 3.0), (5.0, 7.5)))
    return StrategyProfile((band, *random_cutoff_profile(rng, n, radius).strategies[1:]))


def test_kernel_shortcuts_match_the_row_loop_bit_for_bit():
    # The kernel multiplies by 1 - F(d) below a cut-off and by the stored
    # 1 - (sum of widths) past an opponent's last end; the row loop sums
    # every opponent's rows.  Probes: 0, every end and its neighbouring
    # floats, R and random points.
    rng = np.random.default_rng(30)
    makes = (random_threshold_profile, random_profile, _mixed_profile, _lone_band_profile,
             random_cutoff_profile)
    laws = (DISK, *STEP_LAWS)
    for trial in range(150):
        n = int(rng.integers(2, 9))
        dist = laws[trial % len(laws)] if trial % 3 else random_increasing_cdf(rng, R)
        profile = makes[trial % len(makes)](rng, n, R)
        cfg = GameConfig(distribution=dist, n=n, costs=(1.0,) * n)
        rows = [s._cdf_rows(dist) for s in profile.strategies]
        points = _probe_points(profile, rng)
        for i in range(n):
            fast = success_evaluator(_opponent_rows(profile, cfg, i), dist.cdf_scalar)
            reference = success_row_loop(rows[:i] + rows[i + 1 :], dist.cdf_scalar)
            assert [fast(d) for d in points] == [reference(d) for d in points], (trial, i)
            assert [success_probability(profile, cfg, i, d) for d in points[-3:]] == [
                reference(d) for d in points[-3:]
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
        fast = success_evaluator(_opponent_rows(profile, cfg, 1), dist.cdf_scalar)
        assert [fast(d) for d in points] == [reference(d) for d in points]


def test_array_success_equals_scalar_evaluator_bit_for_bit():
    # On the disk the scalar F(d) is libm's pow and the array F(d) numpy's
    # square, which can round apart; that may show only where d lies
    # strictly inside an opponent interval, as F(d) - F(a) there.
    rng = np.random.default_rng(26)
    for trial in range(200):
        n = int(rng.integers(2, 7))
        dist = random_distribution(rng, R)
        make = (random_threshold_profile, random_profile, random_near_tie_profile)[trial % 3]
        profile = make(rng, n, R)
        if trial % 10 == 0:  # an opponent where pow and the square differ at its end
            profile = StrategyProfile(
                profile.strategies[:-1] + (Strategy(radius=R, intervals=(POW_GAP,)),)
            )
        cfg = GameConfig(distribution=dist, n=n, costs=(1.0,) * n)
        i = int(rng.integers(0, n - 1))  # the last node is always an opponent
        curve = success_curve(profile, cfg, i, grid_size=201)
        assert curve.values[0] == 1.0
        points = np.unique(np.concatenate([curve.grid, _probe_points(profile, rng)]))
        scalar = np.array([success_probability(profile, cfg, i, d) for d in points.tolist()])
        array = success_probability(profile, cfg, i, points)
        check = np.ones(points.shape, dtype=bool)
        if dist.kind == "uniform-disk":
            for s in profile.opponents(i):
                for a, b in s.intervals:
                    check &= ~((points > a) & (points < b))
        assert np.array_equal(array[check], scalar[check])
