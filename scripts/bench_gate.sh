#!/usr/bin/env bash
# The quick-bench gate, shared by scripts/check.sh and the CI bench-gate
# job so both run the same benches. Builds every bench below, runs each in
# --quick mode (each writes BENCH_<name>.json into the build directory),
# then, when a baseline directory of BENCH_*.json sidecars is given, diffs
# against it with scripts/bench_diff.py and fails on memory-access
# regressions >10% (wall clock only warns). "racing" records are
# interleaving-dependent (concurrent requests warm one shared cache, so who
# inserts first decides who hits), so the diff skips them; they stay in the
# recorded JSON as trajectory documentation.
#
# Each bench run gets CLFTJ_BENCH_TIMEOUT=30 seconds unless the caller set
# another value: --quick's own 2 s is shorter than some runs in the list
# (bench_batch's lone cold wiki-Vote 5-cycle takes about 2 s on a shared
# 4-core Xeon, bench_fig10_cache_size's bounded wiki-Vote 5-cycles 3-5 s),
# and a run that times out either aborts its bench or is skipped by
# bench_diff, which would shrink the gate's coverage.
#
# Usage: scripts/bench_gate.sh <build-dir> [baseline-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:?usage: scripts/bench_gate.sh <build-dir> [baseline-dir]}"
BASELINE_DIR="${2:-}"
export CLFTJ_BENCH_TIMEOUT="${CLFTJ_BENCH_TIMEOUT:-30}"

# Five of these gate themselves and exit nonzero on their own checks:
#   bench_dict          string-vs-int parity: identical Value data must yield
#                       bit-identical counters;
#   bench_service_warm  a warm QueryService answers a repeated request >= 2x
#                       faster than a cold one, with an identical count;
#   bench_delta         a small delta beats a full rebuild+Put by >= 5x with
#                       an identical count, and the post-delta warm query
#                       stays within 3x of the pre-write warm latency;
#   bench_seek          the AVX2 dispatch arm matches the scalar arm bit for
#                       bit and beats it on wall clock (the speedup gates
#                       skip on hosts without AVX2);
#   bench_batch         batch admission answers a warm 8-burst of identical
#                       5-cycles >= 2x faster than FIFO with identical
#                       counts, and a cold 8-burst plans once and builds no
#                       more substrates than one lone cold request.
BENCHES=(
  bench_intro_memaccess
  bench_fig5_count
  bench_fig10_cache_size
  bench_parallel_scaling
  bench_build
  bench_dict
  bench_service_warm
  bench_delta
  bench_seek
  bench_batch
)

if grep -q '^benchmark_DIR:PATH=.*NOTFOUND' "$BUILD_DIR/CMakeCache.txt"; then
  echo "warning: google-benchmark not found; bench gate skipped" >&2
  exit 0
fi
cmake --build "$BUILD_DIR" -j"$(nproc)" --target "${BENCHES[@]}"

# A bench that exits nonzero (a failed self-gate or a crash) does not stop
# the gate: every bench runs and the diff runs, then the gate fails naming
# each bench that failed. A build failure above still stops it at once.
failed=()
for bench in "${BENCHES[@]}"; do
  if ! (cd "$BUILD_DIR" &&
        "./$bench" --quick --benchmark_min_warmup_time=0); then
    failed+=("$bench")
  fi
done

if [[ -n "$BASELINE_DIR" ]]; then
  if ! python3 scripts/bench_diff.py "$BASELINE_DIR" "$BUILD_DIR" \
      --skip-config "racing"; then
    failed+=("bench_diff.py")
  fi
fi

if ((${#failed[@]} > 0)); then
  echo "bench_gate.sh: FAILED — ${failed[*]}" >&2
  exit 1
fi
