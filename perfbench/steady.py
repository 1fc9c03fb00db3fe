#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and compare sets.

    python3 perfbench/steady.py run --out set.json [--workloads a,b]
                                    [--seeds 1,2,...] [--seconds S]
    python3 perfbench/steady.py compare first.json second.json

`run` calls perfbench/run.py once per (workload, seed), untraced, and
prints for every end-to-end metric its median, first and third quartile
(statistics.quantiles, n=4) and the quartile spread as a share of the
median, next to the metric's bound in BENCHMARK.json. `compare` checks a
second set against a first: every spread but setup_s within its bound,
every median no worse than the first set's by more than the bound, and
the same share of failed operations. Both exit 1 when a check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(bench, results):
    """Print the table for one set; return the failed-check messages."""
    problems = []
    for w in bench["workloads"]:
        runs = results.get(w["name"], [])
        if not runs:
            continue
        print(f"\n{w['name']} ({len(runs)} runs, "
              f"{statistics.median(r['elapsed_s'] for r in runs):.1f} s per run)")
        print(f"  {'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(values) if len(values) > 1 else (values[0],) * 3
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"]:
                flag = "  OVER"
                problems.append(f"{w['name']} {m['name']}: spread {spread:.3f} > {m['bound']}")
            elif spread > m["bound"] / 3:
                flag = "  >1/3"
            print(f"  {m['name']:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.3f}{m['bound']:>7}{flag}")
        if any(not r["correct"] for r in runs):
            problems.append(f"{w['name']}: a run reported correct=false")
    return problems


def cmd_run(args):
    bench = load_bench()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = args.seconds or bench["run_seconds"]
    results = {}
    for name in names:
        for seed in seeds:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            elapsed = time.monotonic() - t0
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                sys.exit(1)
            result = json.loads(proc.stdout.splitlines()[-1])
            result["seed"] = seed
            result["elapsed_s"] = elapsed
            results.setdefault(name, []).append(result)
            print(f"{name} seed {seed}: {elapsed:.1f} s", file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump(results, f, indent=1)
    problems = summarize(bench, results)
    for p in problems:
        print("FAIL:", p)
    sys.exit(1 if problems else 0)


def cmd_compare(args):
    bench = load_bench()
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    problems = summarize(bench, second)
    for w in bench["workloads"]:
        a, b = first.get(w["name"]), second.get(w["name"])
        if not a or not b:
            continue
        share_a = {r["failed"] / r["attempted"] for r in a}
        share_b = {r["failed"] / r["attempted"] for r in b}
        if share_a != share_b:
            problems.append(f"{w['name']}: failed shares differ {share_a} vs {share_b}")
        for m in bench["end_to_end"]:
            ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a)
            mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            status = "ok" if worse <= m["bound"] else "WORSE"
            if status != "ok":
                problems.append(f"{w['name']} {m['name']}: {worse:+.3f} worse than bound {m['bound']}")
            print(f"  {w['name']:<16} {m['name']:<22} {ma:>14.6g} -> {mb:>14.6g}"
                  f"  worse by {worse:+.3f} (bound {m['bound']}) {status}")
    for p in problems:
        print("FAIL:", p)
    sys.exit(1 if problems else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--out", required=True)
    run.add_argument("--workloads", default="")
    run.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    run.add_argument("--seconds", type=int, default=0)
    cmp = sub.add_parser("compare")
    cmp.add_argument("first")
    cmp.add_argument("second")
    args = parser.parse_args()
    cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    main()
