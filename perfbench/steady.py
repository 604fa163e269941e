#!/usr/bin/env python3
"""Steadiness of the benchmark: repeated runs, spreads and set-to-set drift.

    python3 perfbench/steady.py run --runs 10 --out set1.json
    python3 perfbench/steady.py run --runs 10 --out set2.json --seed-base 101
    python3 perfbench/steady.py compare set1.json set2.json

`run` calls run.py once per (workload, seed) for every workload of
BENCHMARK.json, each in a fresh process with its run_seconds, and
prints for every end-to-end metric the median, the quartiles and the
spread (quartile distance over the median) next to the metric's bound
in BENCHMARK.json; every spread must stay within its bound. `compare`
checks two saved sets: no median of the second set may be worse than
the first's by more than the bound, and the share of failed operations
must be the same in both.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_set(args):
    bench = spec()
    results = {}
    for wl in (w["name"] for w in bench["workloads"]):
        runs = []
        for i in range(args.runs):
            seed = args.seed_base + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", wl, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: run failed ({proc.returncode})")
                return 1
            res = json.loads(lines[-1])
            res["seed"] = seed
            runs.append(res)
            vals = " ".join(f"{k}={v['value']:.6g}"
                            for k, v in res["metrics"].items())
            print(f"{wl} seed {seed}: {vals}", flush=True)
        results[wl] = runs
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if summarize(results, bench) else 1


def summarize(results, bench):
    ok = True
    print(f"{'workload':<11} {'metric':<12} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for wl, runs in results.items():
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            verdict = ""
            if spread > m["bound"]:
                verdict, ok = "WIDE", False
            elif spread > m["bound"] / 3:
                verdict = "over 1/3 bound"
            print(f"{wl:<11} {m['name']:<12} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>7.2%} {m['bound']:>6.0%} {verdict}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"{wl:<11} failed {failed}/{attempted}, "
              f"correct {'yes' if correct else 'NO'}")
        ok = ok and correct
    return ok


def compare(args):
    bench = spec()
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    ok = True
    for wl in first:
        for m in bench["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"]
                                  for r in first[wl])
            b = statistics.median(r["metrics"][m["name"]]["value"]
                                  for r in second[wl])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            ok = ok and verdict == "ok"
            print(f"{wl:<11} {m['name']:<12} {a:>12.6g} -> {b:>12.6g} "
                  f"worse by {worse:>7.2%} (bound {m['bound']:.0%}) {verdict}")
        shares = []
        for runs in (first[wl], second[wl]):
            shares.append((sum(r["failed"] for r in runs),
                           sum(r["attempted"] for r in runs)))
        same = shares[0][0] * shares[1][1] == shares[1][0] * shares[0][1]
        ok = ok and same
        print(f"{wl:<11} failed share {shares[0][0]}/{shares[0][1]} vs "
              f"{shares[1][0]}/{shares[1][1]} {'ok' if same else 'DIFFERS'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run every workload repeatedly")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed-base", type=int, default=1)
    r.add_argument("--out", help="save the runs as JSON")
    c = sub.add_parser("compare", help="compare two saved sets")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    return run_set(args) if args.cmd == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
