#!/usr/bin/env python3
"""Tier-1 test of tools/check_bench.py.

Every committed bench/baselines/BENCH_*.json checked against itself must
pass.  Each case below copies one baseline, changes one field, and checks
the exit status: 1 for a pinned field (one per rule), 0 for a field the
checker only reports or deliberately ignores.

Usage: check_bench_test.py
"""
import copy
import json
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[2]
CHECKER = ROOT / "tools" / "check_bench.py"
BASELINES = ROOT / "bench" / "baselines"

# (baseline, dotted path — list indices as numbers, new value from old,
#  expected exit status)
CASES = [
    ("BENCH_fig10.json", "per_instance.0.hycim.qubo_computations",
     lambda v: v + 1, 1),
    ("BENCH_fig10.json", "per_instance.1.hycim.success_rate_percent",
     lambda v: v - 10, 1),
    ("BENCH_fig10.json", "per_instance.1.hycim.success_rate_percent",
     lambda v: v - 2, 0),
    ("BENCH_fig10.json", "protocol.iterations", lambda v: v + 1, 1),
    ("BENCH_fig10.json", "protocol.threads", lambda v: v + 4, 0),
    ("BENCH_fig10.json", "summary.hycim_wall_seconds", lambda v: v * 10, 0),
    ("BENCH_sched.json", "measurements.0.tasks_executed", lambda v: v + 1, 1),
    ("BENCH_sched.json", "measurements.2.identical_to_serial",
     lambda v: False, 1),
    ("BENCH_sched.json", "measurements.1.wall_seconds", lambda v: v * 10, 0),
    ("BENCH_sched.json", "protocol.added_field", lambda v: 1, 0),
    ("BENCH_archipelago.json", "measurements.0.migrations_accepted",
     lambda v: v + 1, 1),
    ("BENCH_archipelago.json", "gate.island_beats_sa", lambda v: False, 1),
    ("BENCH_archipelago.json", "gate.island_profit", lambda v: v + 1, 0),
    ("BENCH_serving.json", "deterministic.admission.shed", lambda v: v + 1, 1),
    ("BENCH_serving.json", "informational.load.p99_ms", lambda v: v * 10, 0),
]


def mutated(doc, path, change):
    doc = copy.deepcopy(doc)
    *parents, leaf = [int(p) if p.isdigit() else p for p in path.split(".")]
    node = doc
    for part in parents:
        node = node[part]
    node[leaf] = change(node.get(leaf) if isinstance(node, dict)
                        else node[leaf])
    return doc


def status(baseline, fresh):
    return subprocess.run([sys.executable, str(CHECKER), str(baseline),
                           str(fresh)], capture_output=True).returncode


def main():
    errors = []
    baselines = sorted(BASELINES.glob("BENCH_*.json"))
    if not baselines:
        errors.append(f"no baselines under {BASELINES}")
    for baseline in baselines:
        if status(baseline, baseline) != 0:
            errors.append(f"{baseline.name} fails against itself")
    with tempfile.TemporaryDirectory() as tmp:
        fresh = pathlib.Path(tmp) / "fresh.json"
        for name, path, change, expected in CASES:
            doc = json.loads((BASELINES / name).read_text())
            fresh.write_text(json.dumps(mutated(doc, path, change)))
            got = status(BASELINES / name, fresh)
            if got != expected:
                errors.append(f"{name} {path}: exit {got}, expected "
                              f"{expected}")
    for error in errors:
        print(f"FAIL: {error}", file=sys.stderr)
    print(f"{len(baselines)} baselines, {len(CASES)} mutations, "
          f"{len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
