#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench package (this directory's CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench under the checkout root, runs the benchmark's self-test, then runs
one workload. Everything the run prints goes to standard output; its last line is the JSON
result. The metric names in that result must be exactly those BENCHMARK.json lists for the
run's kind (end_to_end untraced, per_layer traced), or the run fails.

Exit codes: 0 success, 1 a correctness check failed (the result says "correct": false),
2 the build or the self-test failed, 3 the binary's output did not match BENCHMARK.json.
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
WORKLOADS = ("fault_storm", "learned_replay", "server_open_loop")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the package; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    configured = any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    kind = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[kind]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("perfbench: build failed")
        return 2
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        log("perfbench: self-test failed")
        return 2

    run_dir = os.path.join(BUILD, "run")
    os.makedirs(run_dir, exist_ok=True)
    command = [
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--root", ROOT,
        "--scratch", os.path.relpath(run_dir, ROOT),
    ]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=3 * args.seconds + 60)
    except subprocess.TimeoutExpired:
        log("perfbench: the run timed out")
        return 2

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log(run.stdout)
        log(f"perfbench: no JSON result (exit {run.returncode})")
        return 2
    want = expected_metrics(args.trace)
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        log(run.stdout)
        log(f"perfbench: metrics differ from BENCHMARK.json: got {sorted(got.items())}, "
            f"want {sorted(want.items())}")
        return 3
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0 if run.returncode == 0 and result.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
