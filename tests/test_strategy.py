import numpy as np
import pytest

from ragame import DomainError, GameConfig, RadialDistribution, Strategy, StrategyProfile

from tests.generators import random_distribution, random_strategy
from tests.oracles import complement_within, union_measure, uniform_disk_cdf

R = 12.0
DISK = RadialDistribution.uniform_disk(R)


def test_canonicalization_merges_and_sorts():
    s = Strategy(radius=R, intervals=((8.0, 10.0), (1.0, 3.0), (2.0, 5.0), (5.0, 6.0)))
    assert s.intervals == ((1.0, 6.0), (8.0, 10.0))
    # empty intervals vanish
    assert Strategy(radius=R, intervals=((4.0, 4.0),)).intervals == ()


def test_canonicalization_idempotent_and_order_insensitive():
    rng = np.random.default_rng(2)
    for _ in range(200):
        s = random_strategy(rng, R)
        again = Strategy(radius=R, intervals=s.intervals)
        assert again.intervals == s.intervals
        perm = list(s.intervals)
        rng.shuffle(perm)
        assert Strategy(radius=R, intervals=tuple(perm)).intervals == s.intervals


def test_interval_validation():
    with pytest.raises(DomainError):
        Strategy(radius=R, intervals=((5.0, 4.0),))
    with pytest.raises(DomainError):
        Strategy(radius=R, intervals=((-1.0, 4.0),))
    with pytest.raises(DomainError):
        Strategy(radius=R, intervals=((0.0, 12.5),))


def test_evaluate_threshold():
    s = Strategy.threshold(6.0, R)
    assert s.evaluate(3.0) == 1
    assert s.evaluate(6.0) == 1  # half-open (0, 6]
    assert s.evaluate(6.0000001) == 0
    assert s.evaluate(0.0) == 0  # {0} is null, stored as (0, 6]
    assert Strategy.never(R).evaluate(5.0) == 0
    for bad in (12.5, float("nan")):
        with pytest.raises(DomainError):
            s.evaluate(bad)
        with pytest.raises(DomainError):
            Strategy.threshold(bad, R)


def test_transmit_probability():
    assert Strategy.threshold(R, R).transmit_probability(DISK) == 1.0
    assert Strategy.threshold(6.0, R).transmit_probability(DISK) == 0.25
    s = Strategy(radius=R, intervals=((4.0, 6.0), (8.0, 10.0)))
    expected = union_measure(uniform_disk_cdf(R), s.intervals)  # (36-16)/144 + (100-64)/144
    assert expected == pytest.approx(0.3888888888888889, abs=1e-15)
    assert s.transmit_probability(DISK) == pytest.approx(expected, abs=1e-15)


def test_transmit_plus_backoff_is_one():
    rng = np.random.default_rng(9)
    for _ in range(100):
        dist = random_distribution(rng, R)
        s = random_strategy(rng, R)
        backoff = Strategy(radius=R, intervals=tuple(complement_within(s.intervals, R)))
        total = s.transmit_probability(dist) + backoff.transmit_probability(dist)
        assert abs(total - 1.0) <= 1e-12


def test_symmetric_difference_measure():
    a = Strategy.threshold(6.0, R)
    b = Strategy.threshold(8.0, R)
    assert a.symmetric_difference_measure(b, DISK) == pytest.approx(
        DISK.interval_measure(6.0, 8.0), abs=1e-15
    )
    assert a.symmetric_difference_measure(a, DISK) == 0.0


def test_strategy_json_specs():
    assert Strategy.from_spec({"threshold": 6.0}, R) == Strategy.threshold(6.0, R)
    s = Strategy.from_spec({"intervals": [[8.0, 10.0], [4.0, 6.0]]}, R)
    assert (s.radius, s.intervals) == (R, ((4.0, 6.0), (8.0, 10.0)))
    assert not s.is_threshold and s.cutoff == 10.0
    profile = StrategyProfile.from_spec([{"threshold": 6.0}, {"intervals": [[8.0, 10.0], [4.0, 6.0]]}], R)
    assert profile.strategies == (Strategy.threshold(6.0, R), s)
    with pytest.raises(DomainError):
        Strategy.from_spec({"bogus": 1}, R)


def test_profile_validation():
    s = Strategy.threshold(6.0, R)
    with pytest.raises(DomainError):
        StrategyProfile((s,))
    with pytest.raises(DomainError):
        StrategyProfile((s, Strategy.threshold(1.0, 10.0)))
    p = StrategyProfile((s, Strategy.always(R)))
    assert p.n == 2
    assert p.opponents(0) == (Strategy.always(R),)
    with pytest.raises(DomainError):
        p.opponents(2)


def test_game_config_validation():
    with pytest.raises(DomainError):
        GameConfig(distribution=DISK, n=1, costs=(1.0,))
    with pytest.raises(DomainError):
        GameConfig(distribution=DISK, n=2, costs=(1.0,))
    with pytest.raises(DomainError):
        GameConfig(distribution=DISK, n=2, costs=(1.0, 0.0))
    with pytest.raises(DomainError):
        GameConfig(distribution=DISK, n=2, costs=(1.0, float("inf")))


def test_game_config_spec_round_trip():
    spec = {
        "radius": 12.0,
        "n": 3,
        "costs": [3.0, 3.0, 1.0],
        "distribution": {"kind": "uniform-disk", "radius": 12.0},
    }
    cfg = GameConfig.from_spec(spec)
    assert (cfg.n, cfg.costs, cfg.radius) == (3, (3.0, 3.0, 1.0), 12.0)
    assert cfg.distribution == RadialDistribution.uniform_disk(12.0)
    # distribution radius may be omitted and inherited
    short = {**spec, "distribution": {"kind": "uniform-disk"}}
    assert GameConfig.from_spec(short) == cfg
    with pytest.raises(DomainError):
        GameConfig.from_spec({**spec, "distribution": {"kind": "uniform-disk", "radius": 10.0}})


def test_piecewise_laws_compare_and_hash():
    knots = [[0.0, 0.0], [3.0, 0.1], [12.0, 1.0]]
    law = RadialDistribution.piecewise_linear_cdf(R, knots)
    same = RadialDistribution.piecewise_linear_cdf(R, np.array(knots))  # array knots, as generators pass
    other = RadialDistribution.piecewise_linear_cdf(R, [[0.0, 0.0], [3.0, 0.2], [12.0, 1.0]])
    assert law == same and law != other and law != DISK
    assert hash(law) == hash(same)
    cfg = GameConfig(distribution=law, n=2, costs=(1.0, 3.0))
    twin = GameConfig.from_spec(
        {"radius": R, "n": 2, "costs": [1, 3],
         "distribution": {"kind": "piecewise-linear-cdf", "knots": knots}}
    )
    assert cfg == twin and hash(cfg) == hash(twin)
    assert cfg != GameConfig(distribution=other, n=2, costs=(1.0, 3.0))
    assert len({cfg, twin, GameConfig(distribution=DISK, n=2, costs=(1.0, 3.0))}) == 2
