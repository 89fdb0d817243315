#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--workloads window,knn,city]
        [--seeds 1-10] [--seconds 30] [--trace 0] [--json OUT]

For every workload and metric it prints the median over the runs with its
unit and, from two runs on, the inter-quartile range
(statistics.quantiles(values, n=4), Q3 - Q1) as a share of the median, next
to the metric's bound from BENCHMARK.json: a spread above a third of the
bound is flagged "NOISY", above the bound "OVER". Workloads and run length
default to those of BENCHMARK.json; with --seeds 1 it is the one command
that prints every metric of every workload. It exits non-zero
when a run fails or its correctness gate counts a failure.
Runs are sequential; each one is a full run.py invocation (its set-up
included). --json writes every run's raw result for later comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--json")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    raw = {}
    status = 0
    for workload in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
                status = 1
                continue
            result = json.loads(lines[-1])
            runs.append(result)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} checks failed")
                status = 1
        raw[workload] = runs
        if not runs:
            continue
        print(f"\n{workload}: {len(runs)} runs")
        for name in sorted(runs[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            line = f"  {name:36s} {med:14.6g} {unit:8s}"
            if len(values) >= 2:
                q = statistics.quantiles(values, n=4)
                spread = (q[2] - q[0]) / med if med else float("inf")
                bound = bounds.get(name)
                flag = ""
                if bound is not None and name != "setup_s":
                    flag = ("OVER" if spread > bound else
                            "NOISY" if spread > bound / 3 else "ok")
                line += (f"  spread {spread:7.3f}"
                         f"  bound {bound if bound is not None else '-':>5}  {flag}")
            print(line)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f)
    return status


if __name__ == "__main__":
    sys.exit(main())
