#!/usr/bin/env python3
"""Regenerates perfbench/pins.tsv, the byte totals the correctness gate pins.

    python3 perfbench/make_pins.py [--seeds 0-127]

For every workload and seed it runs perfbench --pins-only, which computes
the summed access-latency and tuning bytes of the workload's pinned batch
per family (window/knn: the first 16 pool queries; city: population chunk 0;
live: stream 0 of connection slot 0, through SimTransport). A measurement
run whose pinned batch differs from these totals counts a failure.

Regenerate only when a change is MEANT to move the paper's byte metrics;
for a pure performance change the totals must stay byte-identical.
"""

import argparse
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (same directory)

WORKLOADS = ["window", "knn", "city", "live"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-127")
    args = p.parse_args()
    lo, _, hi = args.seeds.partition("-")
    binary = run.build()
    lines = ["# workload\tseed\tfamily\tqueries\tlatency_bytes\ttuning_bytes"]
    for seed in range(int(lo), int(hi or lo) + 1):
        for workload in WORKLOADS:
            proc = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed), "--pins-only",
                 "--work-dir", os.path.relpath(run.build_dir(), run.ROOT)],
                stdout=subprocess.PIPE, text=True, check=True, cwd=run.ROOT)
            lines.extend(proc.stdout.strip().splitlines())
    with open(os.path.join(run.HERE, "pins.tsv"), "w") as f:
        f.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} pins")
    return 0


if __name__ == "__main__":
    sys.exit(main())
