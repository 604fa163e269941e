#!/usr/bin/env python3
"""Build the simulator's perfbench binary and run one workload.

    python3 perfbench/run.py --workload enc-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later
runs only let the build tool confirm it is up to date. Build output and
the binary's check verdicts go to stderr; the last line of stdout is the
result: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("enc-sweep", "auth-sweep", "secmem-rw")


def build():
    """Configure once, then build the perfbench binary; False on any failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=840)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {' '.join(cmd)}: {err}", file=sys.stderr)
            return False
        if proc.returncode != 0:
            print(f"perfbench: {' '.join(cmd)} failed", file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must not be negative")

    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=175)
    except subprocess.TimeoutExpired:
        print("perfbench: the run did not finish in time", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print("perfbench: the binary printed no result", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
