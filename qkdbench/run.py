#!/usr/bin/env python3
"""End-to-end benchmark of the QKD stack.

Builds qkdbench (a Release CMake project over the repository's src/) into
the build directory and runs one workload:

  python3 qkdbench/run.py --workload <qframe_distill|engine_day|kms_fleet>
                          --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under qkdbench/. The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}: every
end-to-end metric of BENCHMARK.json with --trace 0, every per-layer metric
with --trace 1. A traced run also writes its spans as Chrome trace JSON
under <build>/qkdbench/traces/. A failed build, a failed correctness check
or metric names or units that do not match BENCHMARK.json exit non-zero
without a result line.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("qframe_distill", "engine_day", "kms_fleet")


def fail(message):
    print(f"qkdbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the Release binary; cmake's output goes
    to stderr so the last stdout line stays the result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("run from the repository root: src/CMakeLists.txt is missing")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "qkdbench")


def expected_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "qkdbench")
    binary = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--trace-dir", trace_dir],
        stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"{args.workload} exited with code {run.returncode}")
    result = json.loads(lines[-1])
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = expected_metrics(args.trace)
    if reported != expected:
        differ = set(reported.items()) ^ set(expected.items())
        fail("metrics differ from BENCHMARK.json: " +
             ", ".join(sorted(name for name, _ in differ)))
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
