import gc
import json
import math
import tracemalloc

import numpy as np
import pytest

from ragame import (
    FULL_TRANSMIT,
    DomainError,
    GameConfig,
    RadialDistribution,
    Strategy,
    StrategyProfile,
    ThresholdProfile,
    best_response_iteration,
    best_response_threshold,
    cost_classes,
    cost_target,
    solve_sequential,
    solve_symmetric_uniform,
    success_probability,
    verify_nash,
)

from tests.generators import random_config, random_profile
from tests.oracles import symmetric_cutoff_direct

R = 12.0
DISK = RadialDistribution.uniform_disk(R)


def uniform_cfg(costs):
    return GameConfig(distribution=DISK, n=len(costs), costs=tuple(costs))


def test_cost_classes_grouping():
    classes = cost_classes((1.0, 3.0, 3.0, 0.5))
    assert [(c.cost, c.members, c.rank) for c in classes] == [
        (3.0, (1, 2), 0),
        (1.0, (0,), 1),
        (0.5, (3,), 2),
    ]


def test_symmetric_closed_form_values():
    assert solve_symmetric_uniform(2, 1.0, R) == pytest.approx(8.485281374238571, abs=1e-12)
    assert solve_symmetric_uniform(3, 1.0, R) == pytest.approx(6.494353201754363, abs=1e-12)
    for n in (2, 3, 7):
        for c in (0.1, 1.0, 10.0):
            assert solve_symmetric_uniform(n, c, R) == pytest.approx(
                symmetric_cutoff_direct(n, c, R), abs=1e-15
            )


def test_symmetric_closed_form_monotone_and_limits():
    for n in (2, 5, 11):
        cs = np.linspace(0.01, 20.0, 50)
        ts = [solve_symmetric_uniform(n, c, R) for c in cs]
        assert all(a > b for a, b in zip(ts, ts[1:]))  # decreasing in cost
    for c in (0.2, 1.0, 3.0):
        ts = [solve_symmetric_uniform(n, c, R) for n in range(2, 30)]
        assert all(a > b for a, b in zip(ts, ts[1:]))  # decreasing in n
    assert solve_symmetric_uniform(2, 1e-12, R) == pytest.approx(R, abs=1e-5)
    with pytest.raises(DomainError):
        solve_symmetric_uniform(1, 1.0, R)
    with pytest.raises(DomainError):
        solve_symmetric_uniform(10**400, 1.0, R)  # n - 1 has no float value
    with pytest.raises(DomainError):
        solve_symmetric_uniform(2, 0.0, R)
    for radius in (0.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            solve_symmetric_uniform(2, 1.0, radius)


def test_symmetric_satisfies_success_target():
    for n in (2, 3, 5, 10):
        for c in (0.1, 1.0, 2.0):
            t = solve_symmetric_uniform(n, c, R)
            cfg = uniform_cfg((c,) * n)
            profile = ThresholdProfile((t,) * n).to_strategy_profile(R)
            g = success_probability(profile, cfg, 0, t)
            assert abs(g - cost_target(c)) <= 1e-12


def test_sequential_matches_symmetric_closed_form():
    for n in (2, 3, 8, 20):
        for c in (0.1, 1.0, 10.0):
            report = solve_sequential(uniform_cfg((c,) * n))
            t_closed = solve_symmetric_uniform(n, c, R)
            assert report.is_nash
            for t in report.profile.thresholds:
                assert abs(t - t_closed) <= 1e-9 * R


def test_sequential_two_costs():
    report = solve_sequential(uniform_cfg((3.0, 1.0)))
    t1, t2 = report.profile.thresholds
    assert abs(t1 - 6.0) <= 1e-9          # (1 - F(t)) = 3/4
    assert t2 == R
    assert report.last_class_full
    assert report.is_nash
    # the full-transmit node clears its break-even bar at R
    profile = report.profile.to_strategy_profile(R)
    cfg = uniform_cfg((3.0, 1.0))
    g2 = success_probability(profile, cfg, 1, R)
    assert g2 == pytest.approx(0.75, abs=1e-9)
    assert g2 >= cost_target(1.0)


def test_sequential_three_costs_with_repeat():
    report = solve_sequential(uniform_cfg((3.0, 3.0, 1.0)))
    t = report.profile.thresholds
    assert abs(t[0] - 4.392304845413264) <= 1e-9  # (1 - F(t))^2 = 3/4
    assert t[0] == t[1]  # shared class threshold, exact
    assert t[2] == R
    assert report.last_class_full
    assert report.is_nash
    assert report.verdicts["interior_success_targets"].residual <= 1e-10


def test_sequential_threshold_ordering():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        cfg = random_config(rng, n, R)
        report = solve_sequential(cfg)
        assert report.is_nash
        class_ts = [c.threshold for c in report.classes]
        assert all(a < b for a, b in zip(class_ts, class_ts[1:]))
        at_r = [t for t in report.profile.thresholds if t == R]
        assert len(at_r) <= 1


def test_sequential_requires_strictly_increasing_cdf():
    flat = RadialDistribution.piecewise_linear_cdf(
        R, [[0.0, 0.0], [4.0, 0.5], [8.0, 0.5], [R, 1.0]]
    )
    cfg = GameConfig(distribution=flat, n=2, costs=(1.0, 1.0))
    with pytest.raises(DomainError):
        solve_sequential(cfg)


def test_verify_rejects_double_full_transmit():
    cfg = uniform_cfg((1.0, 1.0))
    profile = StrategyProfile((Strategy.always(R), Strategy.always(R)))
    report = verify_nash(profile, cfg)
    assert not report.is_nash
    assert not report.verdicts["single_full_transmitter"].passed
    # the best response to an always-transmitter is the interior cut-off
    assert report.nodes[0].best_response == pytest.approx(8.485281374238571, abs=1e-9)
    # against a silent opponent success is exactly 1, so silence is no best
    # response even where a huge cost rounds (1 + c) - c to 0
    silent = StrategyProfile((Strategy.never(R), Strategy.never(R)))
    report = verify_nash(silent, uniform_cfg((1e16, 1e16)))
    assert not report.is_nash
    assert [node.best_response for node in report.nodes] == [R, R]


def test_verify_rejects_perturbed_symmetric():
    t_star = solve_symmetric_uniform(2, 1.0, R)
    cfg = uniform_cfg((1.0, 1.0))
    t = t_star + 0.5
    report = verify_nash(ThresholdProfile((t, t)), cfg)
    assert not report.is_nash
    residual = report.verdicts["interior_success_targets"].residual
    expected = abs((1.0 - (t / R) ** 2) - 0.5)
    assert residual == pytest.approx(expected, abs=1e-12)
    assert residual > 0.01


def test_verify_detects_unequal_thresholds_for_equal_costs():
    cfg = uniform_cfg((1.0, 1.0, 1.0))
    report = verify_nash(ThresholdProfile((5.0, 7.0, 6.0)), cfg)
    assert not report.is_nash
    assert not report.verdicts["equal_costs_equal_cutoffs"].passed
    assert report.verdicts["equal_costs_equal_cutoffs"].residual == pytest.approx(2.0)


def test_verify_accepts_solver_output_on_random_configs():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        cfg = random_config(rng, n, R)
        report = solve_sequential(cfg)
        assert report.is_nash
        assert all(v.passed for v in report.verdicts.values())
        # equal-cost thresholds are shared exactly, by construction
        assert report.verdicts["equal_costs_equal_cutoffs"].residual == 0.0


def test_verify_handles_general_interval_profiles():
    cfg = uniform_cfg((1.0, 1.0))
    banded = StrategyProfile(
        (Strategy(radius=R, intervals=((2.0, 5.0), (7.0, 9.0))), Strategy.threshold(6.0, R))
    )
    report = verify_nash(banded, cfg)
    assert not report.is_nash
    assert report.profile is None  # not a cut-off profile
    assert report.last_class_full is None
    assert report.nodes[0].symmetric_difference > 0.01


def test_last_class_full_is_derived_by_the_verifier():
    cfg = uniform_cfg((3.0, 1.0))
    cutoffs = ThresholdProfile((6.0, 12.0))
    report = verify_nash(cutoffs, cfg)
    assert report.last_class_full is True
    assert report.as_dict() == verify_nash(cutoffs.to_strategy_profile(R), cfg).as_dict()


def test_verify_checks_each_distinct_node_once(monkeypatch):
    import ragame.equilibrium as eq

    cfg = uniform_cfg([2.0] * 25 + [1.0] * 25)
    profile = solve_sequential(cfg).profile
    calls = []
    real = eq.best_response_threshold

    def counting(strategy_profile, game, i, *args, **kwargs):
        calls.append(i)
        return real(strategy_profile, game, i, *args, **kwargs)

    monkeypatch.setattr(eq, "best_response_threshold", counting)
    report = verify_nash(profile, cfg)
    assert report.is_nash
    assert calls == [0, 25]
    assert all(node is report.nodes[0] for node in report.nodes[:25])
    assert all(node is report.nodes[25] for node in report.nodes[25:])

    # the same strategy under another cost is another best-response problem
    calls.clear()
    report = verify_nash(ThresholdProfile((profile.thresholds[0],) * 50), cfg)
    assert calls == [0, 25]
    assert report.nodes[0].best_response != report.nodes[25].best_response

    for i, node in enumerate(report.as_dict()["nodes"]):
        assert next(iter(node.items())) == ("index", i)


def test_verify_evaluates_success_once_per_distinct_node(monkeypatch):
    import ragame.equilibrium as eq

    # every cost distinct (K = n); the cheapest node transmits all the way to R
    n = 9
    cfg = uniform_cfg([float(n - k) for k in range(n)])
    profile = solve_sequential(cfg).profile
    assert profile.thresholds[-1] == R
    calls = []
    real = eq.success_probability

    def counting(strategy_profile, game, i, d):
        calls.append((i, d))
        return real(strategy_profile, game, i, d)

    monkeypatch.setattr(eq, "success_probability", counting)
    report = verify_nash(profile, cfg)
    assert report.is_nash
    assert calls == [(i, t) for i, t in enumerate(profile.thresholds)]
    assert report.as_dict() == _unpacked_as_dict(profile, cfg)


@pytest.mark.parametrize("knot", [1e-100, 1e-300])
def test_tiny_cutoffs_solve_and_verify(knot):
    # Cut-offs hundreds of halvings below R: the bisections must run to
    # adjacent floats however many steps that takes.
    law = RadialDistribution.piecewise_linear_cdf(R, [[0.0, 0.0], [knot, 0.9], [R, 1.0]])
    for costs in ((1.0, 1.0), (3.0, 1.0), (1.0, 2.0, 3.0)):
        report = solve_sequential(GameConfig(law, len(costs), costs))
        assert report.is_nash, costs
    versus_always = StrategyProfile((Strategy.always(R), Strategy.always(R)))
    for c in (0.5, 1.0, 4.0):
        cfg = GameConfig(law, 2, (c, c))
        t, t_other = solve_sequential(cfg).profile.thresholds
        assert t == t_other
        assert math.isclose(t, knot * (1.0 / (1.0 + c)) / 0.9, rel_tol=1e-12)
        # Against an always-transmitting opponent the cut-off is where F = 1/(1+c).
        br = best_response_threshold(versus_always, cfg, 0).threshold
        assert br < knot
        util = lambda d: (1.0 + c) * success_probability(versus_always, cfg, 0, d) - c
        assert util(math.nextafter(br, 0.0)) > 0.0 >= util(br)


def test_damped_iteration_agrees_with_sequential():
    for costs in ((1.0, 1.0), (3.0, 1.0), (3.0, 3.0, 1.0), (2.0, 1.0, 0.5)):
        cfg = uniform_cfg(costs)
        seq = solve_sequential(cfg).profile.thresholds
        itr = best_response_iteration(cfg).thresholds
        assert max(abs(a - b) for a, b in zip(seq, itr)) <= 1e-6 * R


@pytest.mark.parametrize("knot", [1e-12, 1e-100, 1e-300])
def test_damped_iteration_agrees_on_tiny_cutoffs(knot):
    # Every cut-off but R lies far below 1e-9 * R, so only a stop rule
    # relative to each cut-off tells a fixed point from a near miss.
    law = RadialDistribution.piecewise_linear_cdf(R, [[0.0, 0.0], [knot, 0.9], [R, 1.0]])
    for costs in ((3.0, 1.0), (1.0, 2.0, 3.0), (1.0, 1.0, 3.0, 3.0)):
        cfg = GameConfig(law, len(costs), costs)
        seq = solve_sequential(cfg).profile.thresholds
        itr = best_response_iteration(cfg)
        assert verify_nash(itr, cfg).is_nash, costs
        assert all(math.isclose(a, b, rel_tol=1e-6) for a, b in zip(seq, itr.thresholds)), costs


def test_report_serializes_to_json():
    report = solve_sequential(uniform_cfg((3.0, 1.0)))
    blob = json.dumps(report.as_dict(), indent=2)
    back = json.loads(blob)
    assert back["is_nash"] is True
    assert back["thresholds"][1] == 12.0
    assert back["last_class_full"] is True
    assert {c["cost"] for c in back["classes"]} == {3.0, 1.0}
    assert set(back["verdicts"]) == {
        "single_full_transmitter",
        "interior_success_targets",
        "equal_costs_equal_cutoffs",
    }


def test_cost_target():
    assert cost_target(1.0) == 0.5
    assert cost_target(3.0) == 0.75
    assert math.isclose(cost_target(0.25), 0.2)


def _unpacked_as_dict(profile, cfg, tol=None, residual_tol=1e-8):
    """``verify_nash(profile, cfg).as_dict()`` computed node by node, with no
    shared checks and no packed storage."""
    dist, radius = cfg.distribution, cfg.radius
    tol = 1e-10 * radius if tol is None else tol
    if isinstance(profile, ThresholdProfile):
        profile = profile.to_strategy_profile(radius)
    strategies = profile.strategies
    nodes, residuals = [], []
    for i, s in enumerate(strategies):
        br = best_response_threshold(profile, cfg, i)
        sym = s.symmetric_difference_measure(Strategy.threshold(br.threshold, radius), dist)
        bar = dist.interval_measure(max(0.0, br.threshold - tol), min(radius, br.threshold + tol))
        nodes.append({
            "index": i,
            "cutoff": s.cutoff,
            "best_response": br.threshold,
            "boundary_case": br.boundary_case,
            "threshold_residual": abs(s.cutoff - br.threshold),
            "symmetric_difference": sym,
            "matched": sym <= bar + 1e-15,
        })
        target = cost_target(cfg.costs[i])
        if s.cutoff >= radius - tol:
            residuals.append(max(0.0, target - success_probability(profile, cfg, i, radius)))
        else:
            residuals.append(abs(success_probability(profile, cfg, i, s.cutoff) - target))
    at_r = [node["index"] for node in nodes if node["cutoff"] >= radius - tol]
    classes, equal = [], 0.0
    for cls in cost_classes(cfg.costs):
        head = cls.members[0]
        for m in cls.members[1:]:
            equal = max(equal, abs(strategies[m].cutoff - strategies[head].cutoff))
            equal = max(equal, strategies[m].symmetric_difference_measure(strategies[head], dist))
        t = strategies[head].cutoff
        g = success_probability(profile, cfg, head, min(t, radius))
        classes.append({
            "cost": cls.cost,
            "members": list(cls.members),
            "threshold": t,
            "success_value": g,
            "target": cost_target(cls.cost),
            "residual": abs(g - cost_target(cls.cost)),
        })
    threshold_profile = all(s.is_threshold for s in strategies)
    full = [node for node in nodes if node["index"] in at_r]
    last_class_full = bool(full) and all(node["boundary_case"] == FULL_TRANSMIT for node in full)
    worst = max(residuals)
    return {
        "thresholds": [s.cutoff for s in strategies] if threshold_profile else None,
        "last_class_full": last_class_full if threshold_profile else None,
        "classes": classes,
        "nodes": nodes,
        "verdicts": {
            "single_full_transmitter": {
                "passed": len(at_r) <= 1,
                "residual": float(max(0, len(at_r) - 1)),
                "detail": f"nodes with cut-off at R: {at_r}",
            },
            "interior_success_targets": {
                "passed": worst <= residual_tol,
                "residual": worst,
                "detail": "max |success(cutoff) - cost/(1+cost)| over nodes "
                "(shortfall only for a node at R)",
            },
            "equal_costs_equal_cutoffs": {
                "passed": equal <= tol,
                "residual": equal,
                "detail": "max cut-off / transmit-set discrepancy within a cost class",
            },
        },
        "is_nash": all(node["matched"] for node in nodes),
    }


def test_distinct_cost_report_is_small_and_unpacks_exactly():
    rng = np.random.default_rng(19)
    cfg = uniform_cfg(np.exp(rng.uniform(np.log(0.1), np.log(10.0), 100)))
    assert len(cost_classes(cfg.costs)) == 100
    solve_sequential(cfg)  # warm every lazily built cache first
    gc.collect()
    tracemalloc.start()
    try:
        report = solve_sequential(cfg)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained <= 8 * 1024
    assert report.is_nash
    assert report.as_dict() == _unpacked_as_dict(report.profile, cfg)


def test_report_unpacks_exactly_on_random_games():
    rng = np.random.default_rng(29)
    for _ in range(12):
        cfg = random_config(rng, int(rng.integers(2, 12)), R)
        solved = solve_sequential(cfg)
        assert solved.as_dict() == _unpacked_as_dict(solved.profile, cfg)
        # the same cut-offs as strategies, with one node moved off them
        others = solved.profile.to_strategy_profile(R).strategies[1:]
        moved = StrategyProfile((Strategy.threshold(0.5 * R, R), *others))
        assert verify_nash(moved, cfg).as_dict() == _unpacked_as_dict(moved, cfg)
        bands = random_profile(rng, cfg.n, R)
        assert verify_nash(bands, cfg).as_dict() == _unpacked_as_dict(bands, cfg)
