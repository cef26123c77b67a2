"""Command-line front end.

Subcommands load JSON game configs and strategy profiles, run the solvers
or the simulator, and emit CSV (curves, sweeps, estimates) or JSON
(equilibrium reports).  Exit codes are part of the contract so shell
pipelines can branch:

    0  success
    1  verification negative (candidate profile is not an equilibrium)
    2  malformed JSON (diagnostics carry line and column)
    3  domain violation (bad indices, ranges, missing or unwritable files, bad tolerances)
    4  numerical failure

All output is deterministic given the arguments and seed; repeated runs
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

from .equilibrium import solve_sequential, solve_symmetric_uniform, verify_nash
from .errors import DomainError, NumericError
from .monte_carlo import (
    SimConfig,
    estimate_expected_utility,
    estimate_success_probability,
    write_estimates_csv,
)
from .strategy import GameConfig, StrategyProfile
from .success import success_curve


def _load_json(*paths: str) -> list:
    """Parse JSON files, reading all of them first.

    A missing input is a domain error (exit 3); reading every file before
    parsing any makes it win over malformed JSON in another input (exit 2).
    """
    texts = []
    for path in paths:
        try:
            texts.append(Path(path).read_text())
        except OSError as exc:
            raise DomainError(f"no such file: {path}") from exc
    return [json.loads(text) for text in texts]


@contextmanager
def _parsing(what: str):
    """Report a value of the wrong type or shape in ``what`` as a domain error (exit 3)."""
    try:
        yield
    except DomainError:  # a ValueError already carrying its own message
        raise
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise DomainError(f"malformed {what}: {exc}") from exc


def _load_game(args) -> tuple[GameConfig, StrategyProfile]:
    cfg_spec, profile_spec = _load_json(args.config, args.profile)
    with _parsing("game config"):
        cfg = GameConfig.from_spec(cfg_spec)
    with _parsing("strategy profile"):
        return cfg, StrategyProfile.from_spec(profile_spec, cfg.radius)


@contextmanager
def _output(path: str | None):
    """The output file, or stdout when no path is given; one that cannot be opened exits 3."""
    if not path:
        yield sys.stdout
        return
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror}") from exc
    with fh:
        yield fh


def cmd_success_curve(args) -> int:
    cfg, profile = _load_game(args)
    curve = success_curve(profile, cfg, args.node, grid_size=args.grid)
    with _output(args.out) as fh:
        curve.write_csv(fh)
    return 0


def cmd_cutoff_sweep(args) -> int:
    with _parsing("sweep arguments"):
        n_list = [int(x) for x in args.n_list.split(",") if x]
        if args.c_list:
            c_grid = [float(x) for x in args.c_list.split(",") if x]
        else:
            import numpy as np
            c_grid = [float(c) for c in np.linspace(args.c_min, args.c_max, args.c_count)]
    if not all(0 < c < math.inf for c in c_grid):
        raise DomainError("costs in the sweep must be positive and finite")
    lines = ["n,c,d_star\n"]
    for n in n_list:
        for c in c_grid:
            lines.append(f"{n},{c!r},{solve_symmetric_uniform(n, c, args.radius)!r}\n")
    with _output(args.out) as fh:
        fh.write("".join(lines))
    return 0


def _write_report(args, report) -> int:
    with _output(args.out) as fh:
        fh.write(json.dumps(report.as_dict(), indent=2) + "\n")
    return 0 if report.is_nash else 1


def cmd_equilibrium(args) -> int:
    (spec,) = _load_json(args.config)
    with _parsing("game config"):
        cfg = GameConfig.from_spec(spec)
    return _write_report(args, solve_sequential(cfg, tol=args.tol))


def cmd_verify(args) -> int:
    cfg, profile = _load_game(args)
    return _write_report(args, verify_nash(profile, cfg, tol=args.tol))


def cmd_simulate(args) -> int:
    cfg, profile = _load_game(args)
    sim = SimConfig(samples=args.samples, seed=args.seed)
    if args.quantity == "utility":
        est = estimate_expected_utility(profile, cfg, args.node, args.d, sim)
    else:
        est = estimate_success_probability(profile, cfg, args.node, args.d, sim)
    with _output(args.out) as fh:
        write_estimates_csv([args.d], [est], fh)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ragame",
        description="Solvers and simulation for the one-shot random access game "
        "with imperfect location information.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("success-curve", help="emit a node's success-probability curve as CSV")
    p.add_argument("--config", required=True, help="game config JSON path")
    p.add_argument("--profile", required=True, help="strategy profile JSON path")
    p.add_argument("--node", type=int, required=True, help="node index (0-based)")
    p.add_argument("--grid", type=int, default=1001, help="uniform grid size (default 1001)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_success_curve)

    p = sub.add_parser(
        "cutoff-sweep",
        help="emit symmetric equilibrium cut-offs over (n, cost) grids as CSV",
    )
    p.add_argument("--n-list", default="2,3,5,10", help="comma-separated node counts")
    p.add_argument("--c-min", type=float, default=0.1)
    p.add_argument("--c-max", type=float, default=10.0)
    p.add_argument("--c-count", type=int, default=100)
    p.add_argument("--c-list", default=None, help="explicit comma-separated costs (overrides range)")
    p.add_argument("--radius", type=float, default=12.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cutoff_sweep)

    p = sub.add_parser("equilibrium", help="solve for the cut-off equilibrium, emit JSON report")
    p.add_argument("--config", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("verify", help="verify a candidate profile; exit 1 if not an equilibrium")
    p.add_argument("--config", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte Carlo estimate at one distance, emit CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--d", type=float, required=True, help="conditioned distance of the node")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--quantity", choices=("success", "utility"), default="success",
        help="estimate the success probability or the expected utility",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
