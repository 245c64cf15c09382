#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Runs --sets sets of --runs runs of every workload, each run with another
seed, round robin over the workloads, with BENCHMARK.json's command and
run_seconds. For each set, workload and end-to-end metric it reports the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread:
the distance between the first and third quartile as a share of the median,
and each run's wall time. It marks a spread above a third of the metric's
bound (the target), and fails on a spread above the bound (setup_s is
exempt from both) or on a median of a later set worse than the first set's
by more than the bound. Run from the repository root:

    python3 bench/spread.py --sets 2 --runs 10 --out bench/acceptance.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect or failed operations: {lines[-1]}")
    return result, wall


def measure_set(bench, first_seed, runs):
    metrics = [m["name"] for m in bench["end_to_end"]]
    values = {w["name"]: {m: [] for m in metrics} for w in bench["workloads"]}
    walls = {w: [] for w in values}
    for i in range(runs):
        for w in values:
            result, wall = run_once(bench["command"], w, first_seed + i, bench["run_seconds"])
            for m in metrics:
                values[w][m].append(result["metrics"][m]["value"])
            walls[w].append(round(wall, 2))
            print(f"seed {first_seed + i} {w} done in {wall:.1f}s", file=sys.stderr)
    summary = {}
    for w, by_metric in values.items():
        summary[w] = {"wall_s": walls[w]}
        for m, vs in by_metric.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            summary[w][m] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "values": vs}
    return summary


def judge(report, s, metrics):
    """Prints set s of report and marks each metric's summary: within_bound
    is false when its spread exceeds the bound (setup_s is exempt) or its
    median is worse than set 1's by more than the bound. Returns how many
    metrics are not within their bound."""
    flagged = 0
    first_seed = report["sets"][s]["first_seed"]
    for w, rows in report["sets"][s]["workloads"].items():
        walls = rows["wall_s"]
        print(f"== set {s + 1} (seeds {first_seed}-{first_seed + report['runs'] - 1}) {w}:"
              f" run wall time median {statistics.median(walls):.1f}s, max {max(walls):.1f}s")
        for m in metrics:
            r = rows[m]
            bound = metrics[m]["bound"]
            flag = ""
            r["within_bound"] = True
            if m != "setup_s" and r["spread"] > bound:
                flag += "  SPREAD ABOVE BOUND"
                r["within_bound"] = False
            elif m != "setup_s" and r["spread"] > bound / 3:
                flag += "  spread above bound/3"
            if s > 0:
                first = report["sets"][0]["workloads"][w][m]["median"]
                worse = (r["median"] - first) / first
                if metrics[m]["better"] == "higher":
                    worse = -worse
                if worse > bound:
                    flag += f"  MEDIAN {worse:+.3f} WORSE THAN SET 1"
                    r["within_bound"] = False
            flagged += not r["within_bound"]
            print(f"  {m:16s} median {r['median']:12.6g}  q1 {r['q1']:12.6g}  q3 {r['q3']:12.6g}"
                  f"  spread {r['spread']:7.4f}  bound {bound}{flag}")
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default="", help="write every value and summary as JSON to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    report = {"nproc": os.cpu_count(), "go": go, "run_seconds": bench["run_seconds"],
              "runs": args.runs, "sets": []}
    flagged = 0
    for s in range(args.sets):
        first_seed = 1 + s * args.runs
        summary = measure_set(bench, first_seed, args.runs)
        report["sets"].append({"first_seed": first_seed, "workloads": summary})
        flagged += judge(report, s, metrics)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
