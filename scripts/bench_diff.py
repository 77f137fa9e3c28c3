#!/usr/bin/env python3
"""Diff two directories of BENCH_<name>.json and flag perf regressions.

Every bench binary writes a machine-readable sidecar (bench/bench_util.h,
FlushJson): a list of records keyed by (name, config) with seconds and the
deterministic execution counters. This script compares a baseline directory
(e.g. docs/bench_pr1 or a checkout of the previous PR's build dir) against a
current one and reports per-record deltas in `seconds` and
`memory_accesses`.

Policy: memory_accesses is deterministic, so a regression beyond the
threshold fails the run (exit 1). seconds is noisy on shared machines, so
it is reported as a warning by default; pass --fail-on-seconds to make it
fatal too (useful on a quiet dedicated box).

Usage:
  scripts/bench_diff.py BASELINE_DIR CURRENT_DIR [--threshold 0.10]
                        [--fail-on-seconds]
"""

import argparse
import json
import os
import sys


def load_records(path):
    """Returns {(name, config): record} for one BENCH_*.json file."""
    with open(path, "r", encoding="utf-8") as f:
        records = json.load(f)
    return {(r.get("name", ""), r.get("config", "")): r for r in records}


def fmt_delta(base, cur):
    if base == 0:
        return "n/a" if cur == 0 else "+inf"
    return f"{(cur - base) / base:+.1%}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline_dir")
    parser.add_argument("current_dir")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative regression threshold (default 0.10)")
    parser.add_argument("--fail-on-seconds", action="store_true",
                        help="treat wall-clock regressions as fatal")
    parser.add_argument("--skip-config", action="append", default=[],
                        metavar="SUBSTRING",
                        help="skip records whose config contains SUBSTRING "
                             "(for configurations whose counters are "
                             "interleaving-dependent, e.g. racing)")
    args = parser.parse_args()

    shared_files = sorted(
        f for f in os.listdir(args.baseline_dir)
        if f.startswith("BENCH_") and f.endswith(".json")
        and os.path.isfile(os.path.join(args.current_dir, f)))
    if not shared_files:
        print(f"bench_diff: no shared BENCH_*.json between "
              f"{args.baseline_dir} and {args.current_dir}; nothing to do")
        return 0

    failures = []
    warnings = []
    compared = 0
    for fname in shared_files:
        base_records = load_records(os.path.join(args.baseline_dir, fname))
        cur_records = load_records(os.path.join(args.current_dir, fname))
        for key in sorted(base_records.keys() & cur_records.keys()):
            base, cur = base_records[key], cur_records[key]
            # A run that hit a limit on either side has truncated counters;
            # comparing them would be noise.
            if any(r.get("timed_out") or r.get("out_of_memory")
                   for r in (base, cur)):
                continue
            # Explicitly excluded configurations (nondeterministic counters
            # — e.g. requests racing through one shared cache, where
            # hit/miss splits depend on worker interleaving).
            if any(s in key[1] for s in args.skip_config):
                continue
            compared += 1
            label = f"{fname}:{key[0]}"

            base_acc = base.get("memory_accesses", 0)
            cur_acc = cur.get("memory_accesses", 0)
            if base_acc > 0 and cur_acc > base_acc * (1 + args.threshold):
                failures.append(
                    f"REGRESSION {label}: memory_accesses "
                    f"{base_acc} -> {cur_acc} ({fmt_delta(base_acc, cur_acc)})")

            base_s = base.get("seconds", 0.0)
            cur_s = cur.get("seconds", 0.0)
            if base_s > 0 and cur_s > base_s * (1 + args.threshold):
                msg = (f"{label}: seconds {base_s:.4f} -> {cur_s:.4f} "
                       f"({fmt_delta(base_s, cur_s)})")
                if args.fail_on_seconds:
                    failures.append("REGRESSION " + msg)
                else:
                    warnings.append("warning (wall-clock, noisy) " + msg)

    for w in warnings:
        print(w)
    for f in failures:
        print(f)
    print(f"bench_diff: {compared} record(s) compared across "
          f"{len(shared_files)} file(s); "
          f"{len(failures)} regression(s), {len(warnings)} warning(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
