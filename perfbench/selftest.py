#!/usr/bin/env python3
"""Show that every correctness check of the benchmark can fail.

    python3 perfbench/selftest.py

For each check, runs the perfbench binary with --corrupt CHECK, which falsifies
one output that the check inspects, and requires the run to report it:
the check's line reads FAIL (the run is then incorrect), or, for an
operation that failed, the operation is counted in "failed". A clean
run of each workload must pass every check.
"""

import json
import re
import subprocess
import sys

from run import BINARY, build

CASES = [
    ("enc-sweep", 0, None),
    ("enc-sweep", 0, "sweep.budget"),
    ("enc-sweep", 0, "sweep.auth_failures"),
    ("enc-sweep", 0, "sweep.job_failed"),
    ("enc-sweep", 0, "sweep.stable"),
    ("enc-sweep", 0, "order.split_mono8b"),
    ("enc-sweep", 0, "order.counter_width"),
    ("enc-sweep", 1, "trace.identical"),
    ("auth-sweep", 0, None),
    ("auth-sweep", 0, "order.splitgcm_best"),
    ("auth-sweep", 0, "order.gcm_over_sha"),
    ("auth-sweep", 0, "order.split_over_mono_sha"),
    ("auth-sweep", 1, "trace.identical"),
    ("secmem-rw", 0, None),
    ("secmem-rw", 0, "rw.data"),
    ("secmem-rw", 0, "rw.auth_ok"),
    ("secmem-rw", 0, "rw.auth_failures"),
    ("secmem-rw", 0, "rw.ref_ciphertext"),
    ("secmem-rw", 0, "rw.tamper_detected"),
    ("secmem-rw", 1, "trace.identical"),
]


def main():
    if not build():
        return 2
    ok = True
    for workload, trace, check in CASES:
        cmd = [BINARY, "--workload", workload, "--seed", "7", "--seconds",
               "0", "--trace", str(trace)]
        if check:
            cmd += ["--corrupt", check]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if check is None:
            good = result["correct"] and result["failed"] == 0
            what = "clean run passes"
        else:
            line = re.search(rf"^check {re.escape(check)} +(.*)$",
                             proc.stderr, re.M)
            flagged = line is not None and (
                line.group(1).startswith("FAIL") or "(counted)" in
                line.group(1))
            good = flagged and (not result["correct"] or result["failed"] > 0)
            what = f"--corrupt {check} is caught"
        ok = ok and good
        print(f"{'ok  ' if good else 'FAIL'} {workload} trace={trace}: "
              f"{what} (correct={result['correct']}, "
              f"failed={result['failed']})", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
