#!/usr/bin/env python3
"""Builds the pipeline benchmark from source and runs one workload.

    python3 perfbench/run.py --workload came_inram --seed 1 --seconds 10 --trace 0

The first call configures and builds `came_perfbench` (the repository's
library plus perfbench/src) under .bench_build/perfbench; later calls only
rebuild what changed. Build output goes to stderr. The benchmark's own
stdout is passed through, so the last stdout line is its JSON result.
Run files (details, traces) land in .bench_out/.

Exit status: the benchmark's (0 = every check passed), 2 when the sources
are missing or the build fails, 3 when a run exceeds its time limit. In
the last two cases no result line is printed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "came_perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("came_inram", "distmult_shard", "distmult_int8")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        print("perfbench: the repository sources are not next to perfbench/",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "came_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {' '.join(cmd)}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return os.path.isfile(BINARY)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=("0", "1"), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes (used by test_perfbench.py)")
    p.add_argument("--inject-fault", choices=("loss", "topk"),
                   help="corrupt one output so an output check must fail")
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", OUT_DIR]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_fault:
        cmd += ["--inject-fault", args.inject_fault]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = done.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        sys.stderr.write(done.stdout)
        print("perfbench: the benchmark printed no result line", file=sys.stderr)
        return done.returncode or 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
