#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs each workload once per seed 1..N through the command in
BENCHMARK.json, then seed 1 a second time. Prints, per end-to-end
metric, the median, the quartiles and the relative spread (interquartile
distance over the median) of the N seeded runs next to the metric's
bound, and how many runs of a repeated seed reported a different value
than the first run of that seed for the metrics that must repeat exactly
(`sim_cycles_per_access`, `peak_heap_mib`).

    python3 perfbench/steadiness.py                        # 10 seeds per workload
    python3 perfbench/steadiness.py --runs 5 --workloads walk-bound

Run it from the repository root. Exit status 1 if any run failed a
check, any repeated value differed, or any spread exceeded its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

EXACT = ("sim_cycles_per_access", "peak_heap_mib")


def run_once(bench, workload, seed):
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                      for m in bench["end_to_end"])
    print(f"{workload} seed {seed}: {wall:.1f} s, "
          f"{result['failed']}/{result['attempted']} checks failed, {values}", flush=True)
    return result


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per workload")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()

    bad = False
    for workload in args.workloads.split(","):
        runs = [run_once(bench, workload, seed) for seed in range(1, args.runs + 1)]
        repeat = run_once(bench, workload, 1)
        bad |= not all(r["correct"] for r in runs + [repeat])
        print(f"\n{workload}: {len(runs)} seeds")
        print(f"  {'metric':<24} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            name = m["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (med,) * 3
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = m["bound"]
            flag = "ok" if spread <= bound / 3 else ("within" if spread <= bound else "OVER")
            bad |= spread > bound
            print(f"  {name:<24} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {bound:>6} {flag}")
        for name in EXACT:
            differ = int(repeat["metrics"][name]["value"] != runs[0]["metrics"][name]["value"])
            bad |= differ > 0
            print(f"  runs of a repeated seed whose {name} differs from its first run: {differ}")
        print()
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
