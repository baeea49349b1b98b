#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds `.bench_build/perfbench` (the library
sources under src/ plus the benchmark program); later runs only rebuild what
changed.  Build output goes to standard error.  The last line of standard
output is the run's result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1).  The full report, with the sample count
behind each metric, and the latest traced run's span dump per workload
(its first 100000 spans) land in `.bench_build/results/`.  Exits non-zero, without a result line, when the
build fails or the arguments are invalid, and non-zero with the result line
when an output check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
WORKLOADS = ("churn-incremental", "relabel-spot", "churn-sharded",
             "server-mixed")
RUN_TIMEOUT_S = 170


def non_negative_int(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def positive_int(text):
    value = non_negative_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=non_negative_int)
    parser.add_argument("--seconds", type=positive_int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode:
            return False
    compile_ = ["cmake", "--build", BUILD, "--parallel", "4"]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv):
    args = parse_args(argv)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", os.path.join(RESULTS, stem + ".json")]
    if args.trace:
        # One span dump per workload: the latest traced run's.
        command += ["--spans",
                    os.path.join(RESULTS, args.workload + ".spans.jsonl")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"perfbench: no result (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace)
    if expected is not None and list(result["metrics"]) != expected:
        print("perfbench: reported metrics do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
