#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload train-wide --seed 1 --seconds 15 --trace 0

Run from the repository root. The first run configures and builds the
library and the `perfbench` driver under .bench_build/perfbench (build
output goes to stderr); later runs rebuild only what changed. The driver's
last line of stdout is the JSON result; this script checks that it reports
exactly the metrics BENCHMARK.json declares for the run mode and passes on
the driver's exit status.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("train-wide", "train-deep", "serve-unique", "serve-zipf")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the qkmps sources (src/) are missing next to the benchmark")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", str(min(len(os.sched_getaffinity(0)), 8))],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")
    workdir = os.path.join(BUILD, "work", f"{args.workload}-trace{args.trace}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode)

    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    declared = declared_metrics(args.trace == 1)
    if declared is not None:
        got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
        if got != declared:
            fail("reported metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(declared) - set(got))}, "
                 f"extra {sorted(set(got) - set(declared))}", 4)
    return 0


if __name__ == "__main__":
    sys.exit(main())
