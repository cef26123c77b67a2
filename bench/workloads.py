"""The four benchmark workloads: seeded inputs, calls into ragame, checks.

Every workload is a list of operations that one round runs in order.  A
round's inputs come only from (seed, workload, round number), so the same
seed gives the same inputs.  Each workload exposes

* ``inputs(round_)``  -- the operations of one round;
* ``execute(op)``     -- the timed call into the program, as an ``Outcome``;
* ``check(op, out)``  -- problems found by checks made apart from ragame;
* ``detail(outs)``    -- the workload's own throughput figures.

An operation *fails* when the program raises, certifies no equilibrium
where one exists, or exits with another code than the CLI contract gives.
Checks run only on operations that did not fail.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
import ragame
import ragame.cli

R = 12.0
#: cut-offs against the closed form, relative
REL_TOL = 1e-9
#: oracle success at an interior cut-off against c / (1 + c)
TARGET_TOL = 1e-9
#: analytic success curve against the union-measure oracle
CURVE_TOL = 1e-11
#: Monte Carlo estimate against the oracle, in standard errors
MC_Z = 6.0


@dataclass
class Outcome:
    elapsed: float
    failed: bool
    result: object = None
    stages: dict = field(default_factory=dict)
    peak_rss_kb: int = 0


def make_rng(seed: int, workload: str, round_: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), round_])


def random_law(rng, piecewise: bool) -> oracle.Law:
    """Uniform disk, or a strictly increasing piecewise-linear CDF with 4-8 pieces."""
    if not piecewise:
        return oracle.Law(R)
    pieces = int(rng.integers(4, 9))
    xs = np.concatenate([[0.0], np.sort(rng.uniform(0.05 * R, 0.95 * R, pieces - 1)), [R]])
    ps = np.concatenate([[0.0], np.cumsum(rng.uniform(0.25, 4.0, pieces) * np.diff(xs))])
    ps /= ps[-1]
    ps[-1] = 1.0
    return oracle.Law(R, list(zip(xs.tolist(), ps.tolist())))


def class_costs(rng, n: int, k: int) -> tuple[float, ...]:
    """n costs in k classes: one log-uniform cost per equal slice of
    log[0.1, 10] (so classes stay >= 1.2x apart), random class sizes >= 1."""
    edges = np.linspace(math.log(0.1), math.log(10.0), k + 1)
    width = edges[1] - edges[0]
    levels = np.exp(edges[:-1] + width * rng.uniform(0.1, 0.9, k))
    cuts = np.sort(rng.choice(np.arange(1, n), k - 1, replace=False)) if k > 1 else []
    sizes = np.diff(np.concatenate([[0], cuts, [n]])).astype(int)
    costs = np.repeat(levels, sizes)
    return tuple(float(c) for c in rng.permutation(costs))


def distinct_costs(rng, n: int) -> tuple[float, ...]:
    """n distinct costs log-spaced over [0.1, 10], each jittered by < 0.3 of a step."""
    logs = np.linspace(math.log(0.1), math.log(10.0), n)
    step = logs[1] - logs[0]
    costs = np.exp(logs + step * rng.uniform(-0.3, 0.3, n))
    return tuple(float(c) for c in rng.permutation(costs))


def band_intervals(rng, radius: float) -> list[tuple[float, float]]:
    """1-3 transmit bands separated by back-off gaps, the first gap starting
    at 0.  Every piece is at least radius / 21 wide, so the strategy differs
    from every cut-off rule on a set of positive measure."""
    k = int(rng.integers(1, 4))
    tail = bool(rng.integers(0, 2))  # a last back-off gap before R, or not
    pieces = rng.uniform(0.5, 1.5, 2 * k + tail)
    ends = np.cumsum(pieces) / pieces.sum() * radius
    starts = np.concatenate([[0.0], ends[:-1]])
    bands = [(float(starts[m]), float(ends[m])) for m in range(1, 2 * k, 2)]
    if not tail:
        bands[-1] = (bands[-1][0], radius)
    return bands


def game_config(law: oracle.Law, costs) -> ragame.GameConfig:
    return ragame.GameConfig.from_spec(
        {"radius": law.radius, "n": len(costs), "costs": list(costs), "distribution": law.spec()}
    )


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# -- solve-few-classes / solve-distinct-costs ------------------------------------


@dataclass
class Game:
    label: str
    law: oracle.Law
    costs: tuple
    cfg: ragame.GameConfig


#: Known-failing games on valid input, identical in every round and seed.
#: Near-equal costs: the cheapest singleton's utility plateau is positive but
#: within VALUE_TOL of zero, so the verifier's best response backs off and
#: is_nash is False.  Costs of 1e16: cost / (1 + cost) rounds to 1.0 and the
#: class equation is not bracketed (NumericError).
EDGE_GAMES = (
    ("near-tie-2", (1.0, 1.0 + 1e-15)),
    ("near-tie-3", (1.0, 1.0 + 1e-12, 1.0 + 2e-12)),
    ("huge-equal", (1e16, 1e16)),
    ("huge-mixed", (1e16, 1.0)),
)


class SolveWorkload:
    """``solve_sequential`` (which re-checks with ``verify_nash``) per game."""

    min_rounds = 1

    def __init__(self, name: str, seed: int, plan, edge_games=()):
        self.name, self.seed, self.plan, self.edge_games = name, seed, plan, edge_games

    def inputs(self, round_: int) -> list[Game]:
        rng = make_rng(self.seed, self.name, round_)
        games = []
        for n, k, piecewise in self.plan:
            law = random_law(rng, piecewise)
            costs = distinct_costs(rng, n) if k == n else class_costs(rng, n, k)
            label = f"n={n} K={k} {'piecewise' if piecewise else 'disk'}"
            games.append(Game(label, law, costs, game_config(law, costs)))
        for label, costs in self.edge_games:
            law = oracle.Law(R)
            games.append(Game(label, law, costs, game_config(law, costs)))
        return games

    def execute(self, game: Game) -> Outcome:
        start = time.perf_counter()
        try:
            report = ragame.solve_sequential(game.cfg)
        except (ragame.DomainError, ragame.NumericError) as exc:
            return Outcome(time.perf_counter() - start, True, exc)
        elapsed = time.perf_counter() - start
        return Outcome(elapsed, not report.is_nash, report)

    def check(self, game: Game, out: Outcome) -> list[str]:
        return check_equilibrium(game.label, game.law, game.costs, out.result.profile.thresholds)

    def detail(self, outs) -> dict:
        # the same figure as ops_per_s, under the name the workload is about
        certified = sum(not o.failed for o in outs)
        return {"equilibria_per_s": metric(certified / sum(o.elapsed for o in outs), "1/s")}


def check_equilibrium(label, law: oracle.Law, costs, thresholds) -> list[str]:
    """Cut-offs against the closed form, the union-measure oracle and the
    structure every equilibrium has."""
    problems = []
    n = len(costs)
    if len(thresholds) != n:
        return [f"{label}: {len(thresholds)} cut-offs for {n} nodes"]
    if len(set(costs)) == 1 and law.xs is None:
        expected = [oracle.symmetric_cutoff(n, costs[0], law.radius)] * n
    else:
        expected = oracle.sequential_cutoffs(law, costs)
    worst = max(_rel(t, e) for t, e in zip(thresholds, expected))
    if worst > REL_TOL:
        problems.append(f"{label}: cut-off off the closed form by {worst:.3g} (rel)")
    first = {}
    for i, c in enumerate(costs):
        if thresholds[first.setdefault(c, i)] != thresholds[i]:
            problems.append(f"{label}: equal costs, unequal cut-offs at node {i}")
            break
    by_cost = sorted(first, reverse=True)
    cut = [thresholds[first[c]] for c in by_cost]
    if any(b < a for a, b in zip(cut, cut[1:])):
        problems.append(f"{label}: cut-offs not non-increasing in cost")
    if sum(t >= law.radius for t in thresholds) > 1:
        problems.append(f"{label}: more than one node at R")
    transmit = [[(0.0, t)] for t in thresholds]
    for c, i in first.items():
        t, target = thresholds[i], c / (1.0 + c)
        g = oracle.success(law, transmit, i, t)
        gap = target - g if t >= law.radius else abs(g - target)
        if gap > TARGET_TOL:
            problems.append(f"{label}: success at cut-off of node {i} misses c/(1+c) by {gap:.3g}")
    return problems


# -- profile-analysis ---------------------------------------------------------------


@dataclass
class BandProfile:
    label: str
    law: oracle.Law
    bands: list
    cfg: ragame.GameConfig
    profile: ragame.StrategyProfile
    mc_seed: int


class ProfileWorkload:
    """Success curve, a (negative) equilibrium check and a Monte Carlo curve
    for each seeded band profile."""

    name = "profile-analysis"
    min_rounds = 1
    plan = ((2, False), (3, True), (10, False), (20, True), (50, False))
    grid_size = 20001
    mc_samples = 1_000_000
    mc_grid = np.linspace(0.0, R, 33)
    oracle_points = 101

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, round_: int) -> list[BandProfile]:
        rng = make_rng(self.seed, self.name, round_)
        out = []
        for n, piecewise in self.plan:
            law = random_law(rng, piecewise)
            costs = tuple(float(c) for c in np.exp(rng.uniform(math.log(0.1), math.log(10.0), n)))
            bands = [band_intervals(rng, R) for _ in range(n)]
            profile = ragame.StrategyProfile(
                tuple(ragame.Strategy(radius=R, intervals=tuple(b)) for b in bands)
            )
            label = f"n={n} {'piecewise' if piecewise else 'disk'}"
            mc_seed = int(rng.integers(2**31))
            out.append(BandProfile(label, law, bands, game_config(law, costs), profile, mc_seed))
        return out

    def execute(self, op: BandProfile) -> Outcome:
        sim = ragame.SimConfig(samples=self.mc_samples, seed=op.mc_seed)
        t0 = time.perf_counter()
        try:
            curve = ragame.success_curve(op.profile, op.cfg, 0, grid_size=self.grid_size)
            t1 = time.perf_counter()
            report = ragame.verify_nash(op.profile, op.cfg)
            t2 = time.perf_counter()
            estimates = ragame.estimate_success_curve(op.profile, op.cfg, 0, self.mc_grid, sim)
        except (ragame.DomainError, ragame.NumericError) as exc:
            return Outcome(time.perf_counter() - t0, True, exc)
        t3 = time.perf_counter()
        stages = {"curve": t1 - t0, "verify": t2 - t1, "mc": t3 - t2}
        return Outcome(t3 - t0, False, (curve, report, estimates), stages)

    def check(self, op: BandProfile, out: Outcome) -> list[str]:
        curve, report, estimates = out.result
        problems = []
        grid, values = np.asarray(curve.grid), np.asarray(curve.values)
        if grid[0] != 0.0 or values[0] != 1.0 or np.any(np.diff(values) > 0):
            problems.append(f"{op.label}: curve does not start at 1 or rises")
        picks = np.unique(np.linspace(0, grid.size - 1, self.oracle_points).astype(int))
        worst = max(abs(values[k] - oracle.success(op.law, op.bands, 0, grid[k])) for k in picks)
        if worst > CURVE_TOL:
            problems.append(f"{op.label}: curve off the oracle by {worst:.3g}")
        if report.is_nash or any(node.matched for node in report.nodes):
            problems.append(f"{op.label}: band profile not rejected by verify_nash")
        means = np.array([e.mean for e in estimates])
        if np.any(np.diff(means) > 0):
            problems.append(f"{op.label}: Monte Carlo curve rises")
        n_samples = self.mc_samples
        for d, m in zip(self.mc_grid, means):
            g = oracle.success(op.law, op.bands, 0, float(d))
            se = math.sqrt(max(g * (1.0 - g), 1.0 / n_samples) / n_samples)
            if abs(m - g) > MC_Z * se:
                problems.append(f"{op.label}: Monte Carlo {m!r} vs {g!r} at d={d!r} beyond {MC_Z} SE")
                break
        return problems

    def detail(self, outs) -> dict:
        done = [o for o in outs if not o.failed]
        points = sum(len(o.result[0].grid) for o in done)
        draws = sum(self.mc_samples * (len(o.result[1].nodes) - 1) for o in done)
        return {
            "verifications_per_s": metric(len(done) / sum(o.stages["verify"] for o in done), "1/s"),
            "curve_points_per_s": metric(points / sum(o.stages["curve"] for o in done), "1/s"),
            "mc_draws_per_s": metric(draws / sum(o.stages["mc"] for o in done), "1/s"),
        }


# -- cli --------------------------------------------------------------------------------


@dataclass
class Invocation:
    key: str
    args: list  # ends with --out <out>
    out: Path
    expect: int = 0  # exit code
    law: oracle.Law = None
    transmit: list = None  # per node, the transmit intervals
    costs: tuple = ()
    derive: Path = None  # equilibrium: where check() writes the solved profile


def _transmit_sets(profile_spec) -> list:
    return [
        [(0.0, s["threshold"])] if "threshold" in s else [tuple(p) for p in s["intervals"]]
        for s in profile_spec
    ]


class CliWorkload:
    """Each of the five subcommands as a fresh ``python -m ragame.cli`` process,
    one at a time.  Every round repeats the same invocations, so outputs can
    be compared byte for byte between rounds."""

    name = "cli"
    min_rounds = 2
    fine_grid = 100001
    sim_samples = 1_000_000

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.work = root / "bench" / ".work" / "cli"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._ops = None
        self._first_bytes: dict[str, bytes] = {}

    def inputs(self, round_: int) -> list[Invocation]:
        if self._ops is None:
            self._ops = self._build()
        return self._ops

    def _build(self) -> list[Invocation]:
        """Write the generated inputs and list the invocations of a round."""
        rng = make_rng(self.seed, self.name, 0)
        self.work.mkdir(parents=True, exist_ok=True)
        n = int(rng.integers(6, 13))
        law = random_law(rng, True)
        costs = class_costs(rng, n, int(rng.integers(1, 4)))
        bands = [band_intervals(rng, R) for _ in range(n)]
        n_list = sorted(int(x) for x in rng.choice(np.arange(2, 201), 4, replace=False))
        c_list = [float(c) for c in np.exp(rng.uniform(math.log(0.1), math.log(10.0), 50))]
        sim_d = float(rng.uniform(0.1 * R, 0.9 * R))
        sim_seed = int(rng.integers(2**31))
        self.sweep = (n_list, c_list)

        files, specs = {}, {}
        for name in ("two_node_uniform", "two_node_costs_3_1", "three_node_costs_3_3_1",
                     "profile_opponent_band_edges", "profile_opponent_inner_half",
                     "profile_both_always"):
            files[name] = self.root / "configs" / f"{name}.json"
            specs[name] = json.loads(files[name].read_text())
        specs["game"] = {"radius": R, "n": n, "costs": list(costs), "distribution": law.spec()}
        specs["bands"] = [{"intervals": b} for b in bands]
        for name in ("game", "bands"):
            files[name] = self.work / f"{name}.json"
            files[name].write_text(json.dumps(specs[name], indent=1) + "\n")

        def path(p):
            return str(p.relative_to(self.root))

        def call(key, ext, *args, **check_inputs):
            out = self.work / f"{key}.{ext}"
            return Invocation(key, [*args, "--out", path(out)], out, **check_inputs)

        def game_of(cfg):
            return {"law": oracle.Law(specs[cfg]["radius"], specs[cfg]["distribution"].get("knots")),
                    "costs": tuple(specs[cfg]["costs"])}

        def curve_or_sim(cfg, profile):
            return {**game_of(cfg), "transmit": _transmit_sets(specs[profile])}

        ops = [
            call("curve-bundled", "csv", "success-curve", "--config", path(files["two_node_uniform"]),
                 "--profile", path(files["profile_opponent_band_edges"]), "--node", "0",
                 **curve_or_sim("two_node_uniform", "profile_opponent_band_edges")),
            call("curve-fine", "csv", "success-curve", "--config", path(files["game"]),
                 "--profile", path(files["bands"]), "--node", "0", "--grid", str(self.fine_grid),
                 **curve_or_sim("game", "bands")),
            call("sweep", "csv", "cutoff-sweep", "--n-list", ",".join(map(str, n_list)),
                 "--c-list", ",".join(map(repr, c_list)), "--radius", repr(R)),
        ]
        for cfg in ("three_node_costs_3_3_1", "two_node_costs_3_1", "game"):
            ops.append(call(f"eq-{cfg}", "json", "equilibrium", "--config", path(files[cfg]),
                            derive=self.work / f"eq-{cfg}-profile.json", **game_of(cfg)))
        # verify on the solver's own output (exit 0), then a bundled non-equilibrium (exit 1)
        for cfg in ("three_node_costs_3_3_1", "game"):
            ops.append(call(f"verify-{cfg}", "json", "verify", "--config", path(files[cfg]),
                            "--profile", path(self.work / f"eq-{cfg}-profile.json")))
        ops.append(call("verify-not-nash", "json", "verify", "--config", path(files["two_node_uniform"]),
                        "--profile", path(files["profile_both_always"]), expect=1))
        ops.append(call("simulate-success", "csv", "simulate", "--config", path(files["game"]),
                        "--profile", path(files["bands"]), "--node", "0", "--d", repr(sim_d),
                        "--samples", str(self.sim_samples), "--seed", str(sim_seed),
                        **curve_or_sim("game", "bands")))
        ops.append(call("simulate-utility", "csv", "simulate", "--config", path(files["two_node_costs_3_1"]),
                        "--profile", path(files["profile_opponent_inner_half"]), "--node", "0",
                        "--d", "3.0", "--seed", str(sim_seed), "--quantity", "utility",
                        **curve_or_sim("two_node_costs_3_1", "profile_opponent_inner_half")))
        return ops

    def _remove_output(self, op: Invocation):
        if op.out.exists():
            op.out.unlink()

    def execute(self, op: Invocation) -> Outcome:
        self._remove_output(op)
        argv = [sys.executable, "-m", "ragame.cli", *op.args]
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=self.root, env=self.env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(elapsed, proc.returncode != op.expect, proc.returncode,
                       peak_rss_kb=usage.ru_maxrss)

    def execute_in_process(self, op: Invocation, tracer=None) -> Outcome:
        """``cli.main(argv)`` in this process, for the traced run."""
        self._remove_output(op)
        start = time.perf_counter()
        if tracer is None:
            code = ragame.cli.main(list(op.args))
        else:
            with tracer.region(f"cli.main.{op.args[0]}"):
                code = ragame.cli.main(list(op.args))
            tracer.count("cli.output_bytes", op.out.stat().st_size if op.out.exists() else 0)
        return Outcome(time.perf_counter() - start, code != op.expect, code)

    def check(self, op: Invocation, out: Outcome) -> list[str]:
        if not op.out.exists():
            return [f"{op.key}: no output file"]
        data = op.out.read_bytes()
        first = self._first_bytes.setdefault(op.key, data)
        problems = [] if data == first else [f"{op.key}: output differs from the first run"]
        sub = op.args[0]
        text = data.decode()
        if sub == "success-curve":
            problems += self._check_curve(op, text)
        elif sub == "cutoff-sweep":
            problems += self._check_sweep(op, text)
        elif sub == "equilibrium":
            report = json.loads(text)
            if not report["is_nash"]:
                problems.append(f"{op.key}: report says not Nash but exit code was 0")
            problems += check_equilibrium(op.key, op.law, op.costs, report["thresholds"])
            op.derive.write_text(
                json.dumps([{"threshold": t} for t in report["thresholds"]]) + "\n"
            )
        elif sub == "verify":
            if json.loads(text)["is_nash"] != (op.expect == 0):
                problems.append(f"{op.key}: is_nash disagrees with the exit code")
        elif sub == "simulate":
            problems += self._check_simulate(op, text)
        return problems

    def _check_curve(self, op, text) -> list[str]:
        lines = text.splitlines()
        if lines[0] != "d,g":
            return [f"{op.key}: bad CSV header {lines[0]!r}"]
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        if op.key == "curve-fine" and len(rows) < self.fine_grid:
            return [f"{op.key}: {len(rows)} rows for a {self.fine_grid}-point grid"]
        values = [g for _, g in rows]
        if any(b > a for a, b in zip(values, values[1:])):
            return [f"{op.key}: curve rises"]
        picks = sorted(set(np.linspace(0, len(rows) - 1, 201).astype(int)))
        worst = max(abs(rows[k][1] - oracle.success(op.law, op.transmit, 0, rows[k][0])) for k in picks)
        return [f"{op.key}: curve off the oracle by {worst:.3g}"] if worst > CURVE_TOL else []

    def _check_sweep(self, op, text) -> list[str]:
        n_list, c_list = self.sweep
        lines = text.splitlines()
        want = [(n, c) for n in n_list for c in c_list]
        if lines[0] != "n,c,d_star" or len(lines) - 1 != len(want):
            return [f"{op.key}: bad header or {len(lines) - 1} rows for {len(want)}"]
        for line, (n, c) in zip(lines[1:], want):
            n_s, c_s, t_s = line.split(",")
            if int(n_s) != n or float(c_s) != c:
                return [f"{op.key}: row {line!r} is not for (n, c) = ({n}, {c!r})"]
            if _rel(float(t_s), oracle.symmetric_cutoff(n, c, R)) > REL_TOL:
                return [f"{op.key}: row {line!r} off the closed form"]
        return []

    def _check_simulate(self, op, text) -> list[str]:
        lines = text.splitlines()
        if lines[0] != "d,estimate,std_error" or len(lines) != 2:
            return [f"{op.key}: bad simulate CSV"]
        d, est, _ = map(float, lines[1].split(","))
        samples = int(op.args[op.args.index("--samples") + 1]) if "--samples" in op.args else 100_000
        g = oracle.success(op.law, op.transmit, 0, d)
        se = math.sqrt(max(g * (1.0 - g), 1.0 / samples) / samples)
        if "utility" in op.args:
            c = op.costs[0]
            g, se = (1.0 + c) * g - c, (1.0 + c) * se
        if abs(est - g) > MC_Z * se:
            return [f"{op.key}: estimate {est!r} vs {g!r} beyond {MC_Z} SE"]
        return []

    def detail(self, outs) -> dict:
        ms = [1e3 * o.elapsed for o in outs]
        out = {
            "cli_run_ms_p50": metric(statistics.median(ms), "ms"),
            "processes": metric(len(ms), "count"),
        }
        if len(ms) >= 100:
            out["cli_run_ms_p90"] = metric(percentile(ms, 90), "ms")
        return out


# -- registry ------------------------------------------------------------------------

FEW_CLASSES_PLAN = (
    (50, 1, False),
    (50, 2, True),
    (75, 4, True),
    (100, 4, False),
    (100, 1, True),
    (200, 2, False),
)
DISTINCT_PLAN = tuple((n, n, piecewise) for n in (10, 25, 50, 100) for piecewise in (False, True))

NAMES = ("solve-few-classes", "solve-distinct-costs", "profile-analysis", "cli")


def make(name: str, seed: int, root: Path):
    if name == "solve-few-classes":
        return SolveWorkload(name, seed, FEW_CLASSES_PLAN)
    if name == "solve-distinct-costs":
        return SolveWorkload(name, seed, DISTINCT_PLAN, EDGE_GAMES)
    if name == "profile-analysis":
        return ProfileWorkload(seed)
    if name == "cli":
        return CliWorkload(seed, root)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
