"""Run every workload several times and print the spread of each metric.

    python3 bench/steady.py                      # 10 seeds per workload
    python3 bench/steady.py --runs 1             # one quick pass over all four
    python3 bench/steady.py --workloads cli --runs 5 --first-seed 100

Each run is ``bench/run.py`` with its own seed.  For every end-to-end
metric the table gives the median, the quartiles (``statistics.quantiles``,
n=4), the spread (q3 - q1) / median, and the bound from BENCHMARK.json
that the spread must stay under (for ``setup_s`` the bound limits only how
far the median may move); bounds are set from this table.  The
workload's own figures (the line before run.py's result) follow without
bounds.  With ``--trace`` one traced run per workload prints the
per-layer metrics as well.  Exits 1 when a run reports wrong output or
the failed share differs between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail)["detail"], json.loads(result)


def spread_row(name, unit, values, bound=None):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else 0.0
    if bound is None:
        bound_s = ""
    elif name == "setup_s":  # bounds the drift of the median between sets, not the spread
        bound_s = f"{bound:6.3f} (median only)"
    else:
        bound_s = f"{bound:6.3f} {'ok' if spread <= bound else 'OVER'}"
    return f"  {name:<24} {unit:<6} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}  {bound_s}"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", action="store_true", help="also print one traced run per workload")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    ok = True
    for workload in args.workloads.split(","):
        details, results = [], []
        for k in range(args.runs):
            detail, result = run_once(workload, args.first_seed + k, args.seconds, 0)
            details.append(detail)
            results.append(result)
        shares = {(r["failed"], r["attempted"]) for r in results}
        fractions = {f / a for f, a in shares}
        wrong = sum(not r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs x {args.seconds} s; attempted/failed per run "
              f"{sorted(shares)}; failed share {sorted(fractions)}; runs with wrong output {wrong}")
        ok &= wrong == 0 and len(fractions) == 1
        if set(results[0]["metrics"]) != set(bounds):
            print(f"  metric names {sorted(results[0]['metrics'])} differ from BENCHMARK.json")
            ok = False
        print(f"  {'metric':<24} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  bound")
        for name, bound in bounds.items():
            unit = results[0]["metrics"][name]["unit"]
            print(spread_row(name, unit, [r["metrics"][name]["value"] for r in results], bound))
        for name in details[0]:
            if name != "rounds":
                values = [d[name]["value"] for d in details if name in d]
                print(spread_row(name, details[0][name]["unit"], values))
        print(f"  rounds per run: {[d['rounds'] for d in details]}")
        if args.trace:
            _, result = run_once(workload, args.first_seed, args.seconds, 1)
            if set(result["metrics"]) != layers:
                print("  per-layer names differ from BENCHMARK.json")
                ok = False
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                print(f"    {name:<46} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
