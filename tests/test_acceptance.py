"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.
"""

import json
import time
from pathlib import Path

import numpy as np

from ragame import (
    FULL_TRANSMIT,
    GameConfig,
    RadialDistribution,
    SimConfig,
    Strategy,
    StrategyProfile,
    best_response_iteration,
    best_response_threshold,
    cost_target,
    estimate_expected_utility,
    estimate_success_curve,
    solve_sequential,
    solve_symmetric_uniform,
    success_probability,
)
from ragame.cli import main as cli_main

from tests.generators import (
    random_costs,
    random_increasing_cdf,
    random_profile,
)
from tests.oracles import success_direct, uniform_disk_cdf
from tests.properties import structure_checks

R = 12.0
DISK = RadialDistribution.uniform_disk(R)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _emit(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_symmetric_closed_form():
    start = time.perf_counter()
    worst_dt, worst_dg = 0.0, 0.0
    for n in (2, 3, 5, 10, 20, 50):
        for c in (0.1, 0.5, 1.0, 2.0, 10.0):
            cfg = GameConfig(distribution=DISK, n=n, costs=(c,) * n)
            report = solve_sequential(cfg)
            t_closed = solve_symmetric_uniform(n, c, R)
            worst_dt = max(
                worst_dt, max(abs(t - t_closed) for t in report.profile.thresholds)
            )
            profile = report.profile.to_strategy_profile(R)
            g = success_probability(profile, cfg, 0, report.profile.thresholds[0])
            worst_dg = max(worst_dg, abs(g - cost_target(c)))
    elapsed = time.perf_counter() - start
    ok = worst_dt <= 1e-9 * R and worst_dg <= 1e-10 and elapsed < 1.0
    _emit(
        1,
        ok,
        f"closed form vs sequential solver on 30 (n, c) pairs: "
        f"max |dt| = {worst_dt:.2e} (<= {1e-9 * R:.1e}), "
        f"max |g - c/(1+c)| = {worst_dg:.2e} (<= 1e-10), "
        f"runtime {elapsed:.2f} s (< 1 s)",
    )


def test_criterion_2_heterogeneous_instances():
    # costs [3, 1]: hand algebra gives (1 - F(t1)) = 3/4 so t1 = 6, then the
    # remaining node's success is flat at 3/4 >= 1/2, so it transmits to R.
    cfg21 = GameConfig(distribution=DISK, n=2, costs=(3.0, 1.0))
    rep21 = solve_sequential(cfg21)
    t = rep21.profile.thresholds
    ok21 = (
        abs(t[0] - 6.0) <= 1e-9
        and abs(t[1] - 12.0) <= 1e-9
        and rep21.last_class_full
        and rep21.is_nash
    )
    g2_at_r = success_probability(rep21.profile.to_strategy_profile(R), cfg21, 1, R)
    ok21 = ok21 and abs(g2_at_r - 0.75) <= 1e-12 and g2_at_r >= cost_target(1.0)

    # costs [3, 3, 1]: hand algebra (1 - F(t))^2 = 3/4 gives t = 6*(sqrt(3)-1).
    cfg331 = GameConfig(distribution=DISK, n=3, costs=(3.0, 3.0, 1.0))
    rep331 = solve_sequential(cfg331)
    t331 = rep331.profile.thresholds
    hand = 4.392304845413264
    ok331 = (
        abs(t331[0] - hand) <= 1e-9
        and t331[0] == t331[1]
        and t331[2] == 12.0
        and rep331.is_nash
    )
    # independent cross-check: damped best-response iteration
    iterated = best_response_iteration(cfg331).thresholds
    ok_iter = max(abs(a - b) for a, b in zip(iterated, t331)) <= 1e-6 * R

    ok = ok21 and ok331 and ok_iter
    _emit(
        2,
        ok,
        f"costs [3,1] -> thresholds ({t[0]:.10f}, {t[1]:.1f}), g_2(R) = {g2_at_r:.4f} >= 0.5; "
        f"costs [3,3,1] -> class thresholds ({t331[0]:.10f}, {t331[2]:.1f}) vs hand algebra "
        f"{hand:.10f}; damped-iteration max deviation "
        f"{max(abs(a - b) for a, b in zip(iterated, t331)):.2e}",
    )


def test_criterion_3_success_curve_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    count = 0
    for k in range(200):
        n = int(rng.integers(2, 7))
        dist = DISK if k % 2 == 0 else random_increasing_cdf(rng, R)
        cfg = GameConfig(distribution=dist, n=n, costs=tuple(rng.uniform(0.2, 5.0, n)))
        profile = random_profile(rng, n, R, max_intervals=4)
        structure_checks(profile, cfg, int(rng.integers(0, n)), grid_points=1000)
        count += 1
    elapsed = time.perf_counter() - start
    ok = count == 200 and elapsed < 10.0
    _emit(
        3,
        ok,
        f"success-curve properties (value 1 at 0, exact monotonicity, constancy, "
        f"strict decrease, lower bound, Lipschitz (n-1)K) on {count} random profiles "
        f"x 1000-point grids, runtime {elapsed:.2f} s (< 10 s)",
    )


def test_criterion_4_best_response_sign_structure():
    rng = np.random.default_rng(404)
    worst_right = 0.0
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        dist = DISK if rng.random() < 0.5 else random_increasing_cdf(rng, R)
        cfg = GameConfig(
            distribution=dist,
            n=n,
            costs=tuple(np.exp(rng.uniform(np.log(0.05), np.log(20.0), n))),
        )
        profile = random_profile(rng, n, R, max_intervals=4)
        result = best_response_threshold(profile, cfg, 0)
        t = result.threshold
        assert t > 0.0
        c = cfg.costs[0]
        left = np.linspace(0.0, t * (1.0 - 1e-9), 1000)
        assert np.all((1.0 + c) * success_probability(profile, cfg, 0, left) - c > 0.0)
        if result.boundary_case != FULL_TRANSMIT:
            # the node backs off on [t, R]; utility must not be meaningfully
            # positive anywhere there
            right = np.linspace(t, R, 1000)
            util_right = (1.0 + c) * success_probability(profile, cfg, 0, right) - c
            worst_right = max(worst_right, float(util_right.max()))
            assert np.all(util_right <= 1e-10)
        checked += 1
    _emit(
        4,
        checked == 100 and worst_right <= 1e-10,
        f"cut-off sign structure on {checked} random (profile, cost) instances: "
        f"utility > 0 strictly left of t, <= 1e-10 on the back-off region "
        f"(worst {worst_right:.2e}), t > 0 always",
    )


def test_criterion_5_equilibrium_verification_loop():
    rng = np.random.default_rng(505)
    worst_residual = 0.0
    for k in range(200):
        n = int(rng.integers(2, 9))
        dist = DISK if k % 2 == 0 else random_increasing_cdf(rng, R)
        cfg = GameConfig(distribution=dist, n=n, costs=random_costs(rng, n))
        report = solve_sequential(cfg)
        assert report.is_nash
        assert all(v.passed for v in report.verdicts.values())
        at_r = sum(1 for t in report.profile.thresholds if t == R)
        assert at_r <= 1
        # equal costs share one threshold bit-for-bit
        assert report.verdicts["equal_costs_equal_cutoffs"].residual == 0.0
        worst_residual = max(
            worst_residual, report.verdicts["interior_success_targets"].residual
        )
    ok = worst_residual <= 1e-8
    _emit(
        5,
        ok,
        f"verify(solve) on 200 random configs (n <= 8, repeated and distinct costs, "
        f"uniform-disk and piecewise CDFs): all Nash, <= 1 cut-off at R, equal costs "
        f"exactly equal, worst success-target residual {worst_residual:.2e} (<= 1e-8)",
    )


def test_criterion_6_monte_carlo_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    worst_z = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 7))
        dist = DISK if trial % 2 == 0 else random_increasing_cdf(rng, R)
        cfg = GameConfig(distribution=dist, n=n, costs=(1.0,) * n)
        profile = random_profile(rng, n, R)
        grid = np.linspace(0.0, R, 20)
        estimates = estimate_success_curve(
            profile, cfg, 0, grid, SimConfig(samples=100_000, seed=trial)
        )
        analytic = success_probability(profile, cfg, 0, grid)
        for g, est in zip(analytic, estimates):
            if est.std_error == 0.0:
                assert g == est.mean
            else:
                assert abs(g - est.mean) <= 4.0 * est.std_error
                worst_z = max(worst_z, abs(g - est.mean) / est.std_error)

    # at a solved interior equilibrium threshold the transmit utility is zero
    n, c = 3, 1.0
    t_star = solve_symmetric_uniform(n, c, R)
    cfg = GameConfig(distribution=DISK, n=n, costs=(c,) * n)
    profile = StrategyProfile(tuple(Strategy.threshold(t_star, R) for _ in range(n)))
    est = estimate_expected_utility(profile, cfg, 0, t_star, SimConfig(samples=1_000_000, seed=77))
    utility_ok = abs(est.mean) <= 4.0 * est.std_error

    elapsed = time.perf_counter() - start
    ok = utility_ok and elapsed < 60.0
    _emit(
        6,
        ok,
        f"Monte Carlo vs analytic on 50 profiles x 20-point grids at 1e5 samples "
        f"(worst z = {worst_z:.2f} <= 4); utility at equilibrium cut-off = "
        f"{est.mean:+.2e} within 4 se = {4 * est.std_error:.2e} at 1e6 samples; "
        f"runtime {elapsed:.1f} s (< 60 s)",
    )


def test_criterion_7_curve_and_sweep_reproduction(tmp_path, capsys):
    # Four bundled opponent strategies at R = 12; every CLI-emitted curve
    # point must match the definitional union-measure oracle to 1e-12.
    cases = {
        "profile_opponent_inner_half.json": [(0.0, 6.0)],
        "profile_opponent_outer_half.json": [(6.0, 12.0)],
        "profile_opponent_band_edges.json": [(0.0, 4.0), (8.0, 12.0)],
        "profile_opponent_middle_band.json": [(4.0, 8.0)],
    }
    cdf = uniform_disk_cdf(R)
    worst = 0.0
    for name, opponent_transmit in cases.items():
        out = tmp_path / (name + ".csv")
        code = cli_main(
            ["success-curve", "--config", str(CONFIGS / "two_node_uniform.json"),
             "--profile", str(CONFIGS / name), "--node", "0", "--out", str(out)]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert len(rows) >= 1001
        transmit_sets = [[], opponent_transmit]
        for d_str, g_str in rows:
            d, g = float(d_str), float(g_str)
            worst = max(worst, abs(g - success_direct(transmit_sets, cdf, R, 0, d)))
    curves_ok = worst <= 1e-12

    # cut-off sweep: strictly decreasing in cost for each n, and in n for each cost
    sweep = tmp_path / "sweep.csv"
    code = cli_main(
        ["cutoff-sweep", "--n-list", "2,3,5,10", "--c-min", "0.1", "--c-max", "10",
         "--c-count", "60", "--radius", "12", "--out", str(sweep)]
    )
    capsys.readouterr()
    assert code == 0
    table = {}
    for line in sweep.read_text().strip().split("\n")[1:]:
        n_str, c_str, d_str = line.split(",")
        table[(int(n_str), float(c_str))] = float(d_str)
    ns = sorted({k[0] for k in table})
    cs = sorted({k[1] for k in table})
    sweep_ok = all(
        table[(n, a)] > table[(n, b)] for n in ns for a, b in zip(cs, cs[1:])
    ) and all(
        table[(a, c)] > table[(b, c)] for c in cs for a, b in zip(ns, ns[1:])
    )

    _emit(
        7,
        curves_ok and sweep_ok,
        f"four bundled curves match the union-measure oracle at every grid point "
        f"(worst |dg| = {worst:.2e} <= 1e-12); sweep strictly decreasing in cost "
        f"and in node count",
    )
