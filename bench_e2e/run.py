#!/usr/bin/env python3
"""End-to-end tuning benchmark: build, then run one workload.

    python3 bench_e2e/run.py --workload demo|async-ps|service|all \
        --seed N --seconds S --trace 0|1

Run from the repository root. Every call configures and builds the library
sources and the benchmark (Release) into .bench_build/; after the first call,
which compiles everything, that only confirms the build is up to date.
Build output goes to stderr, so the last stdout line is always the
benchmark's JSON result.
Exits non-zero without a result when the build fails (for example when the
library sources are missing) or when a correctness check fails. `all` runs
the three workloads in turn and fails if any of them does.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
WORK_DIR = os.path.join(BUILD_ROOT, "work")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
WORKLOADS = ("demo", "async-ps", "service")
RUN_TIMEOUT_S = 170
SEED_MODULUS = 1 << 40


def build():
    """Configure and build; serialized across concurrent callers."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")) \
                and shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
        jobs = str(min(os.cpu_count() or 1, 4))
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                       check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    # Session seeds are 1000 * seed + i and travel as JSON numbers, so keep
    # them exact in a double.
    seed = args.seed % SEED_MODULUS

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"bench_e2e: build failed: {err}", file=sys.stderr)
        return 1

    status = 0
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        sys.stdout.flush()
        try:
            result = subprocess.run(
                [BINARY, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", args.trace,
                 "--workdir", WORK_DIR],
                timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"bench_e2e: {workload} exceeded {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            status = 1
            continue
        status = status or result.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
