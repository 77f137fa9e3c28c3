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

/// One counter of ExecStats in the one table of counters below. `key` is
/// the wire key, short on purpose: the stats token rides on every OK
/// response. `label` is the ToString label, `name` the member's own name
/// and the key of BENCH_*.json records. Merge sums a flow counter and
/// takes the max of a peak.
struct ExecStatsField {
  const char* key;
  const char* label;
  const char* name;
  std::uint64_t ExecStats::*member;
  bool peak;
};

/// Every ExecStats counter, in ToString / ToWire order. Merge, ToString,
/// ToWire, FromWire and the benches' JSON records all loop over it, so a
/// new counter is added here once.
inline constexpr ExecStatsField kExecStatsFields[] = {
    {"ma", "mem_accesses", "memory_accesses", &ExecStats::memory_accesses,
     false},
    {"it", "intermediates", "intermediate_tuples",
     &ExecStats::intermediate_tuples, false},
    {"ot", "outputs", "output_tuples", &ExecStats::output_tuples, false},
    {"ch", "cache_hits", "cache_hits", &ExecStats::cache_hits, false},
    {"cm", "cache_misses", "cache_misses", &ExecStats::cache_misses, false},
    {"ci", "cache_inserts", "cache_inserts", &ExecStats::cache_inserts,
     false},
    {"cr", "cache_rejects", "cache_rejects", &ExecStats::cache_rejects,
     false},
    {"ce", "cache_evictions", "cache_evictions", &ExecStats::cache_evictions,
     false},
    {"cep", "cache_peak", "cache_entries_peak",
     &ExecStats::cache_entries_peak, true},
    {"cbp", "cache_bytes_peak", "cache_bytes_peak",
     &ExecStats::cache_bytes_peak, true},
    {"pch", "plan_cache_hits", "plan_cache_hits", &ExecStats::plan_cache_hits,
     false},
    {"pcm", "plan_cache_misses", "plan_cache_misses",
     &ExecStats::plan_cache_misses, false},
    {"sb", "substrate_builds", "substrate_builds",
     &ExecStats::substrate_builds, false},
    {"sr", "substrate_reuses", "substrate_reuses",
     &ExecStats::substrate_reuses, false},
    {"prn", "plan_resolve_ns", "plan_resolve_ns", &ExecStats::plan_resolve_ns,
     false},
    {"sbn", "substrate_build_ns", "substrate_build_ns",
     &ExecStats::substrate_build_ns, false},
    {"bsz", "batch_size", "batch_size", &ExecStats::batch_size, false},
    {"bse", "batch_shared_execs", "batch_shared_execs",
     &ExecStats::batch_shared_execs, false},
    {"bps", "batch_prefix_seeds", "batch_prefix_seeds",
     &ExecStats::batch_prefix_seeds, false},
};

}  // namespace clftj

#endif  // CLFTJ_UTIL_STATS_H_
