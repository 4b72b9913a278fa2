#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds the benchmark and the repository's libraries from source (the
first run in a checkout compiles; later runs only re-check), then runs one
workload and prints its result as the last line of stdout.

  python3 servebench/run.py --workload score_unique --seed 1 --seconds 12 --trace 0
  python3 servebench/run.py --selftest

Run from the repository root. Build output goes to $CARGO_TARGET_DIR
(default .bench_build) under servebench/; build logs go to stderr.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TARGETS = ["servebench_server", "servebench_load", "servebench_selftest"]


def build(build_dir):
    """Configures once and builds the benchmark targets; True on success."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target"] +
                 TARGETS)
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"servebench: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--router-threads", type=int, default=0,
                        help="router workers; 0 keeps the default (README)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(root, "servebench"))
    if not build(build_dir):
        print("servebench: build failed", file=sys.stderr)
        return 1

    if args.selftest:
        command = [os.path.join(build_dir, "servebench_selftest"),
                   "--seed", str(args.seed)]
    else:
        workdir = os.path.join(build_dir, "run")
        os.makedirs(workdir, exist_ok=True)
        command = [os.path.join(build_dir, "servebench_load"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--server", os.path.join(build_dir, "servebench_server"),
                   "--workdir", workdir]
        if args.router_threads > 0:
            command += ["--router-threads", str(args.router_threads)]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("servebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
