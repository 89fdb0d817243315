#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one measurement.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload window|knn|city|live --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles ../src) into
the build directory ($CARGO_TARGET_DIR, default .bench_build); later calls
only re-check the build. The measurement's last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; with --trace 0 its
metrics are the end_to_end metrics of BENCHMARK.json, with --trace 1 the
per_layer ones. The exit code is non-zero when the build fails, the
correctness gate counts a failure, or the metric set does not match
BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds perfbench; returns the binary path."""
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    work = os.path.relpath(build_dir(), ROOT)  # short paths for unix sockets

    if args.self_test:
        return subprocess.run([binary, "--self-test", "--work-dir", work],
                              timeout=RUN_TIMEOUT_S, cwd=ROOT).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pins", os.path.join(HERE, "pins.tsv"), "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("run.py: measurement timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"run.py: no result (exit {proc.returncode})", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    missing = expected_metrics(bool(args.trace)) ^ set(result["metrics"])
    if missing:
        print(f"run.py: metric set differs from BENCHMARK.json: {sorted(missing)}",
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
