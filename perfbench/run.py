#!/usr/bin/env python3
"""Build and run one traq benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The first run configures and builds the
traq library, traq_serve and the benchmark from source into
.bench_build/ (Release); later runs only rebuild what changed.  Build
output goes to stderr; stdout carries the benchmark's report, whose
last line is the JSON result.  --self-test builds and runs the
benchmark's own tests instead.  Inherited TRAQ_* variables are removed
before anything runs, so they cannot change a workload.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
# A run measures --seconds and then some; a stuck one is stopped here.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def scrubbed_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("TRAQ_")}


def build(targets, env):
    for needed in ("CMakeLists.txt", "src", "examples/traq_serve.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no traq sources here (missing %s); run from the "
                 "repository root" % needed)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run(cmd, env):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=("0", "1"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    env = scrubbed_env()

    if args.self_test:
        build(["perfbench_tests", "traq_serve"], env)
        sys.exit(run([os.path.join(BUILD, "perfbench_tests")], env))

    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0:
        fail("--seed must be non-negative")
    build(["traq_perfbench", "traq_serve"], env)
    os.makedirs(TRACES, exist_ok=True)
    sys.stdout.flush()
    sys.exit(run([os.path.join(BUILD, "traq_perfbench"),
                  "--workload", args.workload,
                  "--seed", str(args.seed),
                  "--seconds", repr(args.seconds),
                  "--trace", args.trace,
                  "--serve", os.path.join(BUILD, "traq_serve"),
                  "--trace-dir", TRACES], env))


if __name__ == "__main__":
    main()
