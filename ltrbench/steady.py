#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload of BENCHMARK.json k times at its run_seconds, each run
with its own seed, alternating the order of the workloads from round to
round, and prints for each end-to-end metric its median, quartiles and
spread (distance between the quartiles as a share of the median) next to
the bound BENCHMARK.json gives it. Run from the repository root:

    python3 ltrbench/steady.py -k 10
    python3 ltrbench/steady.py -k 10 --seed-base 100

A spread is marked "ok" when it is below a third of the metric's bound,
"within bound" when it is at most the bound and "TOO WIDE" beyond it.
Raw results are written to .bench_build/steady.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "ltrbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("-k", type=int, default=10, help="runs per workload")
    ap.add_argument("--seed-base", type=int, default=1, help="seeds are seed-base .. seed-base+k-1")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    results = {w: [] for w in workloads}
    for i in range(args.k):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            res = run_once(w, args.seed_base + i, seconds)
            results[w].append(res)
            print(f"round {i + 1}/{args.k} {w}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)

    os.makedirs(".bench_build", exist_ok=True)
    with open(".bench_build/steady.json", "w") as f:
        json.dump(results, f, indent=1)

    worst = 0.0
    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n== {w}: {len(runs)} runs, failed share {shares}")
        print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}  verdict")
        for name in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, 0)
            verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            worst = max(worst, spread / bound if bound else float("inf"))
            print(f"{name:<18}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}{bound:>7.2f}  {verdict}")
    print(f"\nlargest spread as a share of its bound: {worst:.2f}")


if __name__ == "__main__":
    main()
