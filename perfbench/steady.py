#!/usr/bin/env python3
"""Steadiness report for the pncheckd benchmark.

Runs the command from BENCHMARK.json several times per workload, each
time with another seed, and prints for every metric the median and the
quartiles across runs. The spread is (Q3 - Q1) / median, with quartiles
as Python's ``statistics.quantiles(values, n=4)`` gives them. An
end-to-end metric whose spread exceeds its bound is flagged UNRESOLVED.

    python3 perfbench/steady.py --runs 10 [--workloads warm-query,ci-scan]
        [--seed-base 1] [--trace 0] [--out results.json] [--compare old.json]

With ``--compare``, every metric's median is also checked against the
median in an earlier ``--out`` file: a move in the worse direction by
more than the bound is flagged REGRESSED. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def spread(values):
    if len(values) < 2:
        return 0.0, values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return ((q3 - q1) / med if med else float("inf")), q1, med, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--out", default="")
    parser.add_argument("--compare", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["medians"]

    results = {}
    medians = {}
    flagged = 0
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.seed_base + i
            r = run_once(bench["command"], workload, seed, bench["run_seconds"], args.trace)
            runs.append(r)
            print(f"{workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} wall={r['wall_s']:.1f}s", file=sys.stderr)
        results[workload] = runs
        print(f"\n== {workload}: {len(runs)} runs, "
              f"{sum(r['failed'] for r in runs)} failed operations")
        print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for m in metrics:
            name = m["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            s, q1, med, q3 = spread(values)
            medians[f"{workload}/{name}"] = med
            bound = bounds[name]
            flag = ""
            if bound is not None and s > bound:
                flag = "UNRESOLVED"
                flagged += 1
            old = earlier.get(f"{workload}/{name}")
            if bound is not None and old:
                worse = (med - old) / old if better[name] == "lower" else (old - med) / old
                if worse > bound:
                    flag += " REGRESSED"
                    flagged += 1
                flag += f" (vs {old:.4g}: {100 * worse:+.1f}% worse)"
            print(f"{name:34s} {med:12.5g} {q1:12.5g} {q3:12.5g} {100 * s:7.1f}% "
                  f"{'' if bound is None else bound:>6} {flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"results": results, "medians": medians}, f, indent=1)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
