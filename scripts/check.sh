#!/usr/bin/env bash
# Tier-1 verify + bench gate. Fails on build error, test failure, a bench
# crash or a bench self-gate. Usage: scripts/check.sh [build-dir]
# [baseline-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j
# --timeout backstops the per-test TIMEOUT property: the robustness suites
# assert "never hang", so a wedged test must fail loudly.
(cd "$BUILD_DIR" && ctest --output-on-failure --timeout 300 -j"$(nproc)")

# Docs gate: every relative link/anchor in README.md and docs/ must
# resolve, and every top-level doc must be reachable from the README.
python3 scripts/check_docs.py

# Quick-mode bench gate: the same bench list the CI bench-gate job runs
# (scripts/bench_gate.sh). When a baseline directory of BENCH_*.json
# sidecars is available (CLFTJ_BENCH_BASELINE, or as the second positional
# argument), the gate also diffs the freshly written JSON against it and
# fails on memory-access regressions >10% (wall clock only warns; see
# scripts/bench_diff.py). Each bench runs with the gate's 30 s
# CLFTJ_BENCH_TIMEOUT unless the environment sets another. The failure is
# handled explicitly — not left to `set -e` — so the gate still trips if
# this script is ever sourced or run with errexit disabled.
BASELINE_DIR="${CLFTJ_BENCH_BASELINE:-${2:-}}"
if [[ -n "$BASELINE_DIR" && ! -d "$BASELINE_DIR" ]]; then
  BASELINE_DIR=""
fi
if ! scripts/bench_gate.sh "$BUILD_DIR" "$BASELINE_DIR"; then
  echo "check.sh: FAILED — the bench gate failed (see above)" >&2
  exit 1
fi

echo "check.sh: all green"
