#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload advising_hot --seed 7 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build). Build output is
written to standard error; the benchmark's report goes to standard output,
its last line one JSON object with the run's metrics: the end-to-end ones
(--trace 0) or the per-layer ones (--trace 1), exactly as BENCHMARK.json
lists them. A per-layer metric the workload does not measure, because that
layer does no work on it, reads 0. A traced run first runs the span-fold
tests.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("advising_hot", "advising_cold", "paper_batch")
# The benchmark ends on its own well inside this; it only guards a hang.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench",
         "span_tree_test"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def commit_id(root):
    # Only the checkout itself counts: never a repository above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                             env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)["per_layer" if trace else "end_to_end"]


def select_metrics(result, declared, trace):
    """Keeps the declared metrics of `result`, in declared order."""
    measured = result["metrics"]
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name not in measured:
            if not trace:
                fail(f"end-to-end metric {name} was not measured")
            metrics[name] = {"value": 0.0, "unit": unit}
        elif measured[name]["unit"] != unit:
            fail(f"{name} measured in {measured[name]['unit']}, declared in {unit}")
        else:
            metrics[name] = measured[name]
    result["metrics"] = metrics
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("run from the root of a CourseNavigator checkout (no sources here)")
    declared = declared_metrics(root, args.trace)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    try:
        if args.trace:
            subprocess.run([os.path.join(build_dir, "span_tree_test")], check=True,
                           stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        run = subprocess.run(
            [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--commit", commit_id(root)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as error:
        fail(f"run failed: {error}")

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the benchmark printed no result")
    print("\n".join(lines[:-1]))
    print(json.dumps(select_metrics(result, declared, args.trace)))


if __name__ == "__main__":
    main()
