"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload solve-few-classes --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports ``ragame`` from ``src/``
there and nowhere else, and exits with an error when that is missing.
Workloads: solve-few-classes, solve-distinct-costs, profile-analysis, cli
(see bench/README.md).

``--trace 0`` measures whole rounds of the workload until ``--seconds``
have passed and reports the end-to-end metrics.  ``--trace 1`` instead
alternates an untraced and a traced pass over the first round's inputs,
reports per-layer metrics per pass from the traced one, and the tracing
overhead as the difference between the two.  The last line of standard
output is the result; the line before it holds the workload's own
throughput figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
IMPORT_PROBES = 3
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

PER_LAYER = (
    ("radial.cdf_scalar.calls", "count"),
    ("radial.cdf.elements", "count"),
    ("radial.cdf.busy_s", "s"),
    ("radial.quantile.elements", "count"),
    ("radial.quantile.busy_s", "s"),
    ("strategy.transmit_mass_below.busy_s", "s"),
    ("strategy.transmit_mask.busy_s", "s"),
    ("strategy.symmetric_difference_measure.calls", "count"),
    ("success.success_probability.calls", "count"),
    ("success.success_probability.busy_s", "s"),
    ("success.success_curve.busy_s", "s"),
    ("success.evaluator.builds", "count"),
    ("success.evaluator.evals", "count"),
    ("success.evaluator.busy_s", "s"),
    ("success.write_csv.busy_s", "s"),
    ("best_response.calls", "count"),
    ("best_response.busy_s", "s"),
    ("best_response.self_s", "s"),
    ("best_response.evals_per_call", "evals/call"),
    ("best_response.case.interior", "count"),
    ("best_response.case.full_transmit", "count"),
    ("best_response.case.boundary_zero", "count"),
    ("equilibrium.solve_sequential.busy_s", "s"),
    ("equilibrium.verify_nash.busy_s", "s"),
    ("equilibrium.class_solve.self_s", "s"),
    ("equilibrium.verify_share", "ratio"),
    ("equilibrium.verify_nash.best_response_calls", "count"),
    ("monte_carlo.draws", "count"),
    ("monte_carlo.busy_s", "s"),
    ("monte_carlo.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main_s.success-curve", "s"),
    ("cli.main_s.cutoff-sweep", "s"),
    ("cli.main_s.equilibrium", "s"),
    ("cli.main_s.verify", "s"),
    ("cli.main_s.simulate", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
)


def bootstrap():
    """Import ragame from this checkout's src/, or stop."""
    if not (SRC / "ragame" / "__init__.py").is_file():
        sys.exit(f"bench: no ragame package under {SRC}; run from a checkout of the repository")
    for var in SINGLE_THREAD:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import ragame

    if Path(ragame.__file__).resolve().parent != (SRC / "ragame").resolve():
        sys.exit(f"bench: imported ragame from {ragame.__file__}, not from {SRC}")


def median_seconds(argv, count: int) -> float:
    """Median wall time of ``count`` runs of a fresh interpreter."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_seconds() -> float:
    """Median time of ``import ragame`` alone, each in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import ragame; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            check=True, cwd=ROOT, capture_output=True, text=True,
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def run_round(wl, ops, outcomes, problems, tracer=None, in_process=False):
    """Execute and check one round's operations in order; return program seconds."""
    total = 0.0
    for op in ops:
        out = wl.execute_in_process(op, tracer) if in_process else wl.execute(op)
        outcomes.append(out)
        total += out.elapsed
        if not out.failed:
            problems += wl.check(op, out)
    return total


def measure(wl, seconds: float, outcomes, problems) -> int:
    """Whole rounds, fresh inputs each, until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < wl.min_rounds or time.perf_counter() < deadline:
        run_round(wl, wl.inputs(rounds), outcomes, problems)
        rounds += 1
    return rounds


def layer_metrics(st, counts, import_s) -> dict:
    def ratio(num, den):
        return num / den if den else 0.0

    def cli_mean(sub):
        name = f"cli.main.{sub}"
        return ratio(st.busy[name], st.calls[name])

    solve = "equilibrium.solve_sequential"
    verify = "equilibrium.verify_nash"
    values = {
        "radial.cdf_scalar.calls": counts.get("radial.cdf_scalar.calls", 0),
        "radial.cdf.elements": counts.get("radial.cdf.elements", 0),
        "radial.cdf.busy_s": st.busy["radial.cdf"],
        "radial.quantile.elements": counts.get("radial.quantile.elements", 0),
        "radial.quantile.busy_s": st.busy["radial.quantile"],
        "strategy.transmit_mass_below.busy_s": st.busy["strategy.transmit_mass_below"],
        "strategy.transmit_mask.busy_s": st.busy["strategy.transmit_mask"],
        "strategy.symmetric_difference_measure.calls": st.calls["strategy.symmetric_difference_measure"],
        "success.success_probability.calls": st.calls["success.success_probability"],
        "success.success_probability.busy_s": st.busy["success.success_probability"],
        "success.success_curve.busy_s": st.busy["success.success_curve"],
        "success.evaluator.builds": st.calls["success.evaluator.build"],
        "success.evaluator.evals": st.calls["success.evaluator.eval"],
        "success.evaluator.busy_s": st.busy["success.evaluator.eval"],
        "success.write_csv.busy_s": st.busy["success.write_csv"],
        "best_response.calls": st.calls["best_response"],
        "best_response.busy_s": st.busy["best_response"],
        "best_response.self_s": st.self_time["best_response"],
        "best_response.evals_per_call": ratio(st.calls["success.evaluator.eval"], st.calls["best_response"]),
        "best_response.case.interior": counts.get("best_response.case.interior", 0),
        "best_response.case.full_transmit": counts.get("best_response.case.full-transmit", 0),
        "best_response.case.boundary_zero": counts.get("best_response.case.boundary-zero", 0),
        "equilibrium.solve_sequential.busy_s": st.busy[solve],
        "equilibrium.verify_nash.busy_s": st.busy[verify],
        "equilibrium.class_solve.self_s": st.self_time[solve],
        "equilibrium.verify_share": ratio(st.child_time[(solve, verify)], st.busy[solve]),
        "equilibrium.verify_nash.best_response_calls": st.child_calls[(verify, "best_response")],
        "monte_carlo.draws": counts.get("monte_carlo.draws", 0),
        "monte_carlo.busy_s": st.layer_busy["monte_carlo"],
        "monte_carlo.self_s": st.layer_self["monte_carlo"],
        "cli.import_s": import_s,
        "cli.output_bytes": counts.get("cli.output_bytes", 0),
        "trace.spans": st.spans,
    }
    for sub in ("success-curve", "cutoff-sweep", "equilibrium", "verify", "simulate"):
        values[f"cli.main_s.{sub}"] = cli_mean(sub)
    return values


def traced(wl, seconds: float, outcomes, problems, span_file: Path) -> dict:
    """Untraced and traced passes over round 0, alternating, until ``seconds`` pass."""
    from tracing import Tracer, instrument

    in_process = hasattr(wl, "execute_in_process")
    import_s = import_seconds()
    tracer = Tracer()
    plain, traced_s, per_pass = [], [], []
    start = time.perf_counter()
    # Another pair only if one more of the same length still fits.
    while not per_pass or (time.perf_counter() - start) * (1 + 1 / len(per_pass)) <= seconds:
        plain.append(run_round(wl, wl.inputs(0), outcomes, problems, None, in_process))
        ops = wl.inputs(0)
        tracer.reset()
        instrument(tracer)
        try:
            traced_s.append(run_round(wl, ops, outcomes, problems, tracer, in_process))
        finally:
            tracer.restore()
        per_pass.append(layer_metrics(tracer.stats(), tracer.counts(), import_s))
    span_file.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(span_file)
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    base = statistics.median(plain)
    values["trace.overhead_s"] = statistics.median(traced_s) - base
    values["trace.overhead_share"] = values["trace.overhead_s"] / base
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    bootstrap()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    wl = workloads.make(args.workload, args.seed, ROOT)
    if args.setup_probe:
        wl.inputs(0)
        return 0

    outcomes, problems = [], []
    if args.trace:
        span_file = ROOT / "bench" / ".work" / f"spans-{args.workload}.csv"
        metrics = traced(wl, args.seconds, outcomes, problems, span_file)
        detail = {"spans_file": str(span_file.relative_to(ROOT))}
    else:
        probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
                 "--seed", str(args.seed)]
        setup_s = median_seconds(probe, SETUP_PROBES)
        rounds = measure(wl, args.seconds, outcomes, problems)
        ops_per_s = sum(not o.failed for o in outcomes) / sum(o.elapsed for o in outcomes)
        # cli: the peak of its ragame processes; otherwise this process
        rss_kb = max(o.peak_rss_kb for o in outcomes) or resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
        detail = {"rounds": rounds, **wl.detail(outcomes)}

    for line in problems[:20]:
        print(f"bench: check failed: {line}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
