#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <vector>

#include "bench.h"
#include "util/stats.h"

namespace perfbench {

/// What one replayed request answered (for the correctness gate).
struct ReplayAnswer {
  std::size_t index = 0;
  int shape = -1;
  std::string mode;
  /// DELTAs that precede the request in schedule order.
  std::size_t state = 0;
  bool ok = false;
  std::uint64_t count = 0;
  std::uint64_t tuple_checksum = 0;
};

/// Per-layer observations of the sequential in-process replay.
struct ReplayResult {
  std::vector<double> parse_validate_us;
  std::vector<double> prepare_ms;
  std::vector<double> plan_resolve_ms;
  std::vector<double> format_response_us;
  std::vector<double> apply_delta_ms;
  /// Reuse counters charged by CrossQueryReuse::Prepare, merged.
  clftj::ExecStats prepare_stats;
  /// Engine counters of every run, merged.
  clftj::ExecStats engine_stats;
  /// StripedCacheManager::AggregatedStats over every shape cache the
  /// replay's reuse layer handed out; peaks are summed across caches.
  clftj::ExecStats cache_stats;
  std::uint64_t cache_hot_hits = 0;
  std::uint64_t planner_searches = 0;
  std::vector<ReplayAnswer> answers;
};

/// Replays the workload's warm-up (untimed) and then its first
/// replay_count stream entries, one at a time and in schedule order,
/// through the public calls the service makes: ParseRequest,
/// ParseQuery/ValidateQueryForDatabase/CanonicalShapeKey,
/// CrossQueryReuse::Prepare, MakeEngine(...)->Count/Evaluate,
/// FormatResponse and Database::ApplyDelta. Runs on its own copy of the
/// data and its own reuse layer, configured like the service's. Spans go
/// to `spans`, keyed by schedule index.
ReplayResult Replay(const Workload& workload,
                    const clftj::ServiceOptions& options, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
