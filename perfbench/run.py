#!/usr/bin/env python3
"""Campaign benchmark for pamr: builds perfbench/ and runs one workload.

    python3 perfbench/run.py --workload paper_campaign --seed 1 --seconds 20 --trace 0

Run from the root of a pamr checkout. The C++ driver (src/main.cpp) is
built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) together with the repository's library, then run;
its last stdout line is the JSON result. Build output goes to stderr. Exits
non-zero, printing no result, when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper_campaign", "mesh16_routable", "dist_fig8")
HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures once, then builds the driver; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    command = [
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--work-dir", os.path.join(build_dir, "work", args.workload),
        "--digests", os.path.join(HERE, "digests.txt"),
    ]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
