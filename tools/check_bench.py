#!/usr/bin/env python3
"""Compares a fresh BENCH_*.json against its committed baseline.

The baseline's `bench` key selects the rule table below.  Pinned fields
are deterministic by construction — identity flags, task-tree shapes,
seeded counters — so any drift fails (exit 1).  Wall clocks and latencies
are reported against the baseline but never fail: CI machines differ, and
the per-commit trajectory is what the scheduled job archives.

Every bench:
  * `protocol` must match: fields the fresh run adds are noted (new
    observability does not force a same-commit baseline regeneration),
    dropped or drifted fields fail;
  * rows are keyed by `label` or `name`, and the fresh keys must equal the
    baseline's, in order.

Per bench:
  fig10_solving_efficiency  per-instance hycim.qubo_computations; the
      hycim success rate (summary and per instance) may drop at most
      --max-drop points, because SA walks are bit-reproducible only on one
      platform and a one-ulp libm difference can flip a Metropolis accept;
      protocol.threads is ignored (results are thread-count invariant).
  sched_scaling  identical_to_serial, tasks_executed.
  archipelago_scaling  identical_to_serial, tasks_executed and the
      migration/resample/respace counters; gate.island_beats_sa and
      gate.island_beats_tempering.
  serving_load  every `deterministic` block (admission split, fast-fail,
      seeded fault trajectory), diffed like the protocol.

Usage: check_bench.py BASELINE FRESH [--max-drop 5.0]
"""
import argparse
import json
import sys

RULES = {
    "fig10_solving_efficiency": {
        "ignore": ("threads",),
        "doc_max_drop": ("summary.hycim_avg_success_percent",),
        "rows": "per_instance",
        "row_equal": ("hycim.qubo_computations",),
        "row_max_drop": ("hycim.success_rate_percent",),
        "info": ("summary.hycim_wall_seconds",),
    },
    "sched_scaling": {
        "rows": "measurements",
        "row_true": ("identical_to_serial",),
        "row_equal": ("tasks_executed",),
        "row_info": ("wall_seconds", "dispatches", "steals"),
    },
    "archipelago_scaling": {
        "doc_true": ("gate.island_beats_sa", "gate.island_beats_tempering"),
        "rows": "measurements",
        "row_true": ("identical_to_serial",),
        "row_equal": ("tasks_executed", "migrations_proposed",
                      "migrations_accepted", "resamples", "respaces"),
        "row_info": ("wall_seconds",),
        "info": ("gate.sa_profit", "gate.tempering_profit",
                 "gate.island_profit"),
    },
    "serving_load": {
        "blocks": "deterministic",
        "info": ("informational.load.wall_seconds", "informational.load.qps",
                 "informational.load.p50_ms", "informational.load.p99_ms"),
    },
}


def get(doc, path):
    """The value at a dotted path, or None when any step is missing."""
    for part in path.split("."):
        if not isinstance(doc, dict) or part not in doc:
            return None
        doc = doc[part]
    return doc


def diff_block(name, base, fresh, failures, ignore=()):
    """Pins a deterministic block: added fields are noted, dropped or
    drifted fields fail."""
    base = {k: v for k, v in base.items() if k not in ignore}
    fresh = {k: v for k, v in fresh.items() if k not in ignore}
    added = sorted(set(fresh) - set(base))
    if added:
        print(f"note: fresh {name} adds new field(s) {added} "
              "(absent from the baseline; tolerated)")
    dropped = sorted(set(base) - set(fresh))
    if dropped:
        failures.append(f"{name} dropped field(s) {dropped} — align the "
                        "bench flags or regenerate the baseline")
    drifted = {k: (base[k], fresh[k]) for k in sorted(base)
               if k in fresh and base[k] != fresh[k]}
    if drifted:
        failures.append(f"{name} mismatch on {drifted} — align the bench "
                        "flags, or regenerate the baseline if the change is "
                        "intentional")


def report(name, b, f):
    """Prints an informational delta; never fails."""
    if f is None:
        return
    if isinstance(b, (int, float)) and isinstance(f, (int, float)) and b > 0:
        print(f"{name}: {b} -> {f} ({f / b:.2f}x baseline; informational)")
    else:
        print(f"{name}: {b} -> {f} (informational)")


def check(base, fresh, rule, max_drop):
    """Applies one RULES entry; returns the failure messages."""
    failures = []

    def rate(name, b, f):
        if not isinstance(b, (int, float)) or not isinstance(f, (int, float)):
            failures.append(f"{name}: rate missing ({b} -> {f})")
            return
        print(f"{name}: {b:.2f}% -> {f:.2f}% ({f - b:+.2f} points)")
        if f - b < -max_drop:
            failures.append(f"{name} dropped {b - f:.2f} points "
                            f"(tolerance {max_drop})")

    diff_block("protocol", base["protocol"], fresh["protocol"], failures,
               rule.get("ignore", ()))
    for path in rule.get("doc_max_drop", ()):
        rate(path, get(base, path), get(fresh, path))
    for path in rule.get("doc_true", ()):
        if get(fresh, path) is not True:
            failures.append(f"{path} is not true")

    if "rows" in rule:
        def by_key(doc):
            return {row.get("label", row.get("name")): row
                    for row in doc[rule["rows"]]}

        base_rows, fresh_rows = by_key(base), by_key(fresh)
        if list(base_rows) != list(fresh_rows):
            failures.append(f"row set mismatch: baseline {list(base_rows)} "
                            f"vs fresh {list(fresh_rows)}")
        for key, ref in base_rows.items():
            cur = fresh_rows.get(key)
            if cur is None:
                continue  # already reported by the row-set check
            for path in rule.get("row_true", ()):
                if get(cur, path) is not True:
                    failures.append(f"{key}: {path} is not true — the "
                                    "determinism contract is broken")
            for path in rule.get("row_equal", ()):
                b, f = get(ref, path), get(cur, path)
                if b != f:
                    failures.append(f"{key}: {path} changed {b} -> {f} (a "
                                    "deterministic count; regenerate the "
                                    "baseline if intentional)")
            for path in rule.get("row_max_drop", ()):
                rate(f"{key} {path}", get(ref, path), get(cur, path))
            for path in rule.get("row_info", ()):
                report(f"{key} {path}", get(ref, path), get(cur, path))

    if "blocks" in rule:
        name = rule["blocks"]
        base_blocks, fresh_blocks = base[name], fresh[name]
        missing = sorted(set(base_blocks) - set(fresh_blocks))
        if missing:
            failures.append(f"{name} block(s) {missing} missing from the "
                            "fresh run")
        for block in sorted(set(base_blocks) & set(fresh_blocks)):
            diff_block(f"{name}.{block}", base_blocks[block],
                       fresh_blocks[block], failures)

    for path in rule.get("info", ()):
        report(path, get(base, path), get(fresh, path))
    return failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--max-drop", type=float, default=5.0,
                    help="max tolerated success-rate drop in %% points "
                         "(fig10)")
    args = ap.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)
    bench = base.get("bench")
    if bench not in RULES:
        print(f"unknown bench {bench!r}; known: {sorted(RULES)}",
              file=sys.stderr)
        return 1
    if fresh.get("bench") != bench:
        print(f"bench mismatch: baseline {bench!r} vs fresh "
              f"{fresh.get('bench')!r}", file=sys.stderr)
        return 1

    failures = check(base, fresh, RULES[bench], args.max_drop)
    if failures:
        print("\nREGRESSIONS:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: {bench} matches its baseline.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
