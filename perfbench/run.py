#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program's library is compiled from
./src together with the driver in perfbench/src (perfbench/CMakeLists.txt),
into $CARGO_TARGET_DIR (default .bench_build) under the root. The driver
then runs single-threaded (ECGF_THREADS=1) and its last output line, one
JSON object, is checked against BENCHMARK.json and printed as this
script's last line. Exit codes: 0 ok, 1 a failed check or run, 2 bad
arguments, 3 missing sources or a failed build.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


class Parser(argparse.ArgumentParser):
    """Prints the full help, not just the usage line, before exiting 2."""

    def error(self, message):
        self.print_help(sys.stderr)
        fail(2, message)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "simulator.h")):
        fail(3, f"program sources not found under {ROOT}/src")
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", out, "-j", jobs]):
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail(3, "build failed: " + " ".join(cmd))
    return os.path.join(out, "ecgf_bench")


def main():
    parser = Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()  # exits 2 on bad arguments

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        parser.print_help(sys.stderr)
        fail(2, f"unknown workload '{args.workload}' (known: {', '.join(names)})")

    binary = build()
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace:
        cmd.append(f"--spans-out={build_dir()}/spans-{args.workload}-{args.seed}.json")
    env = dict(os.environ, ECGF_THREADS="1")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        fail(1, f"benchmark exited with code {proc.returncode}")

    result = json.loads(lines[-1])
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(1, "result keys are not correct, attempted, failed, metrics")
    if sorted(result["metrics"]) != sorted(wanted):
        fail(1, "reported metrics differ from BENCHMARK.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
