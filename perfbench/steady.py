#!/usr/bin/env python3
"""Steadiness check for the end-to-end metrics.

Take a set of runs, each with its own seed, and save it:

    python3 perfbench/steady.py run --workload csv-dirty --runs 10 --seed 100 --out a.json

Take a second set later (not back to back), then compare the two:

    python3 perfbench/steady.py compare a.json b.json

`compare` prints each metric's median and quartiles in both sets, the
spread (interquartile range over median, as `statistics.quantiles(n=4)`
gives it), and whether the sets agree within the bounds in
BENCHMARK.json: every spread within its bound, the two medians apart by
no more than the bound in either direction, and the same share of
failed operations. Run from the root of the repository.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def take_set(args):
    bench = load_bench()
    runs = []
    for i in range(args.runs):
        seed = args.seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"run with seed {seed} failed ({done.returncode}):\n{done.stderr[-2000:]}")
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "result": result})
        values = ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {values}", flush=True)
    with open(args.out, "w") as f:
        json.dump({"workload": args.workload, "runs": runs}, f, indent=1)


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def compare(args):
    bench = load_bench()
    sets = []
    for path in (args.first, args.second):
        with open(path) as f:
            sets.append(json.load(f))
    ok = True
    for s in sets:
        if not all(r["result"]["correct"] for r in s["runs"]):
            print(f"{s['workload']}: a run reported correct=false")
            ok = False
    shares = [{r["result"]["failed"] / r["result"]["attempted"] for r in s["runs"]} for s in sets]
    if len(shares[0] | shares[1]) != 1:
        print(f"failed shares differ: {sorted(shares[0] | shares[1])}")
        ok = False
    print(f"workload {sets[0]['workload']} vs {sets[1]['workload']}")
    print(f"{'metric':26} {'median1':>10} {'q1':>10} {'q3':>10} {'spread1':>8}"
          f" {'median2':>10} {'q1':>10} {'q3':>10} {'spread2':>8} {'worse':>7} bound  verdict")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        got = [[r["result"]["metrics"][name]["value"] for r in s["runs"]] for s in sets]
        (m1, a1, b1, s1), (m2, a2, b2, s2) = summary(got[0]), summary(got[1])
        # Signed so that positive means the second set is worse; the check
        # is two-sided, since identical code should not get better either.
        worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
        verdict = []
        if max(s1, s2) > bound:
            verdict.append("spread")
        if abs(worse) > bound:
            verdict.append("drift")
        ok &= not verdict
        print(f"{name:26} {m1:10.4g} {a1:10.4g} {b1:10.4g} {s1:8.1%} {m2:10.4g} {a2:10.4g}"
              f" {b2:10.4g} {s2:8.1%} {worse:+7.1%} {bound:.2f}  "
              f"{'ok' if not verdict else 'OUT: ' + ','.join(verdict)}")
    print("sets agree within the bounds" if ok else "sets do NOT agree within the bounds")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="take one set of runs")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare", help="compare two saved sets")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args()
    if args.cmd == "run":
        take_set(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
