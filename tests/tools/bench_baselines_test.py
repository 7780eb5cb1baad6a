#!/usr/bin/env python3
"""Tier-1 check of the deterministic scaling-bench baselines.

Runs bench/sched_scaling and bench/archipelago_scaling with --out into a
temporary directory and diffs each fresh BENCH_*.json against its
committed baseline (bench/baselines/) with tools/check_bench.py.  The
pinned fields — identity flags, the pool's tasks_executed, the migration,
resample and respace counts, and the island quality gate — are
deterministic, so a change to the task-tree shape fails here, not only in
the scheduled bench job.  Both benches take well under a second in a
Release build.

Usage: bench_baselines_test.py SCHED_SCALING ARCHIPELAGO_SCALING
"""
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[2]
CHECKER = ROOT / "tools" / "check_bench.py"
BASELINES = ROOT / "bench" / "baselines"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    benches = [(argv[1], "BENCH_sched.json"),
               (argv[2], "BENCH_archipelago.json")]
    failures = 0
    with tempfile.TemporaryDirectory() as out:
        for binary, name in benches:
            run = subprocess.run([binary, "--out", out], cwd=out,
                                 capture_output=True, text=True)
            if run.returncode != 0:
                print(f"FAIL: {binary} exited {run.returncode}\n"
                      f"{run.stdout}{run.stderr}")
                failures += 1
                continue
            check = subprocess.run(
                [sys.executable, str(CHECKER), str(BASELINES / name),
                 str(pathlib.Path(out) / name)],
                capture_output=True, text=True)
            print(check.stdout + check.stderr, end="")
            if check.returncode != 0:
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
