#!/usr/bin/env python3
"""One command for the HyCiM end-to-end benchmark.

    python3 e2ebench/run.py --workload paper_sweep|anneal_large|service_mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the solver library and the
benchmark from source into .bench_build/e2ebench (CMake, Release), runs the
benchmark's helper unit tests, then runs the workload.  The last line of
standard output is the benchmark's JSON result; build output goes to
standard error.  Exits non-zero, without a result, when the build, the
helper tests, or the workload fail.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "e2ebench")
WORKLOADS = ("paper_sweep", "anneal_large", "service_mix")


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
        subprocess.run([os.path.join(BUILD, "e2ebench_tests")],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2ebench: build or helper tests failed: {err}", file=sys.stderr)
        return 1

    command = [os.path.join(BUILD, "e2ebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
