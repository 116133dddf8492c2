#!/usr/bin/env python3
"""Builds pipeline_bench from source and runs one workload.

    python3 bench/pipeline_bench/run.py --workload NAME --seed N \
        --seconds T --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under that root: the first run configures and builds the gva
library, gva_serverd and the bench (Release); later runs only re-check it.
The bench's log goes to stdout and its last line is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1 (the
Chrome trace of the layer spans is written under the build directory).
Exits non-zero, printing no result, when the build or the run fails or the
result does not carry exactly the metrics BENCHMARK.json names. A run
whose checks fail prints its result with "correct": false and exits
non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures and builds the bench (a no-op when up to date, well under
    a second); build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs,
              "--target", "pipeline_bench"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "pipeline_bench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "pipeline_bench")
    binary = build(build_dir)

    command = [binary, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--traced", "--trace-out=" + os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("pipeline_bench did not finish in %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict):
        sys.stderr.write(run.stdout)
        fail("pipeline_bench exited with code %d and no result" %
             run.returncode)
    names = sorted(result.get("metrics", {}))
    if names != sorted(expected_metrics(args.trace)):
        sys.stderr.write(run.stdout)
        fail("metrics differ from BENCHMARK.json: %s" % names)
    # A failed CHECK still prints its result (with "correct": false), and
    # the exit code says so.
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
