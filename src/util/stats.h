#ifndef CLFTJ_UTIL_STATS_H_
#define CLFTJ_UTIL_STATS_H_

#include <cstdint>
#include <string>

namespace clftj {

/// Execution counters shared by all join engines. The paper's evaluation is
/// partly framed in terms of memory traffic (Section 1: 45e9 accesses for
/// LFTJ vs 1.4e9 for CLFTJ on a 5-cycle), so every engine threads an
/// ExecStats through its data-structure touches:
///   * trie element comparisons and pointer chases -> memory_accesses
///   * hash table probes and inserts               -> memory_accesses
///   * intermediate tuples materialized            -> intermediate_tuples
/// The counters are a deterministic proxy for DRAM traffic: they count data
/// touches rather than cache-miss events, which is what makes the paper's
/// cross-algorithm comparison reproducible on any host.
struct ExecStats {
  std::uint64_t memory_accesses = 0;
  std::uint64_t intermediate_tuples = 0;
  std::uint64_t output_tuples = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_inserts = 0;
  std::uint64_t cache_rejects = 0;     // insert refused by policy/capacity
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_entries_peak = 0;
  /// Peak payload bytes held by the cache (byte-budget mode only; stays 0
  /// in entry-count mode).
  std::uint64_t cache_bytes_peak = 0;

  // Cross-query reuse counters (the serving loop's plan cache and shared
  // trie substrate). These are charged by CrossQueryReuse::Prepare, not by
  // the engines, so a cold standalone run leaves them all zero.
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  /// Trie builds performed / avoided for this request's atom views. A fully
  /// warm request has substrate_builds == 0: every view came from the
  /// registry.
  std::uint64_t substrate_builds = 0;
  std::uint64_t substrate_reuses = 0;
  /// Wall-clock nanoseconds spent resolving the plan (TD enumeration +
  /// lowering) and building tries — the work reuse amortizes away.
  std::uint64_t plan_resolve_ns = 0;
  std::uint64_t substrate_build_ns = 0;

  // Batch-admission counters (the serving loop's shared-scan scheduler;
  // see docs/serving.md "Batch admission"). Charged by QueryService, not by
  // the engines: a standalone run leaves them zero.
  /// Number of requests grouped into the batch that served this request
  /// (0 on the unbatched FIFO path, >= 1 on the batched path).
  std::uint64_t batch_size = 0;
  /// 1 when this response was answered by a run shared with other
  /// identical batch members (its engine counters are the shared run's,
  /// reported verbatim to every member).
  std::uint64_t batch_shared_execs = 0;
  /// Count-cache entries seeded into this request's shape from another
  /// resident shape with matching subjoin signatures (cross-shape reuse).
  std::uint64_t batch_prefix_seeds = 0;

  /// Resets all counters to zero.
  void Reset() { *this = ExecStats(); }

  /// Merges counters from another run (peaks are max-merged: right for
  /// sequential reuse of one cache). Parallel shards whose private caches
  /// coexist must instead *sum* per-shard peaks — CachedTrieJoin does
  /// that explicitly after merging.
  void Merge(const ExecStats& other);

  /// Human-readable one-line summary for logs and benches.
  std::string ToString() const;

  /// Compact single-token wire encoding ("ma:1,it:2,...", no spaces) for
  /// the line protocol's OK response. Every counter is emitted.
  std::string ToWire() const;

  /// Parses a ToWire() token. Unknown keys are ignored (a newer server may
  /// emit counters an older client does not know); malformed syntax or a
  /// non-numeric value returns false with *out untouched.
  static bool FromWire(const std::string& text, ExecStats* out);
};

}  // namespace clftj

#endif  // CLFTJ_UTIL_STATS_H_
