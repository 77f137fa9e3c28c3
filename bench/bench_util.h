#ifndef CLFTJ_BENCH_BENCH_UTIL_H_
#define CLFTJ_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "data/snap_profiles.h"
#include "engine/engine.h"
#include "query/parser.h"
#include "query/query.h"
#include "server/service.h"
#include "util/check.h"
#include "util/stats.h"

namespace clftj::bench {

/// Quick-smoke mode: set by `--quick` on the command line (or the
/// CLFTJ_BENCH_QUICK env var). Benches that support it register a reduced
/// workload matrix and the default timeout drops, so `bench_X --quick` is a
/// seconds-scale crash/ctest smoke rather than a full figure reproduction.
inline bool& QuickFlag() {
  static bool quick = std::getenv("CLFTJ_BENCH_QUICK") != nullptr;
  return quick;
}
inline bool Quick() { return QuickFlag(); }

/// Strips bench-harness flags (currently `--quick`) from argv before
/// benchmark::Initialize sees them. Call first in every bench main.
inline void InitBench(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      QuickFlag() = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argv[out] = nullptr;  // keep the argv[argc] == NULL convention
  *argc = out;
}

/// Wall-clock budget per run, mirroring the paper's 10-hour timeout at
/// laptop scale. Override with CLFTJ_BENCH_TIMEOUT (seconds).
inline double Timeout() {
  if (const char* env = std::getenv("CLFTJ_BENCH_TIMEOUT")) {
    return std::atof(env);
  }
  return Quick() ? 2.0 : 10.0;
}

/// Materialization budget standing in for the paper's 64 GB RAM cap.
inline std::uint64_t RowBudget() { return 20'000'000; }

/// Cached per-profile databases so dataset generation is excluded from
/// every benchmark's measured region.
inline const Database& SnapDb(const std::string& label) {
  static std::map<std::string, Database>& cache =
      *new std::map<std::string, Database>();
  auto it = cache.find(label);
  if (it == cache.end()) {
    it = cache.emplace(label, MakeSnapDatabase(SnapProfileByLabel(label)))
             .first;
  }
  return it->second;
}

inline const Database& ImdbDb() {
  static Database& db = *new Database(MakeImdbDatabase());
  return db;
}

/// The IMDB 2k-cycle of Figure 14 (see data/snap_profiles.h).
inline Query ImdbCycle(int persons) { return ImdbCycleQuery(persons); }

/// One benchmark run captured for the machine-readable BENCH_<name>.json
/// sidecar (the cross-PR perf trajectory record).
struct JsonRecord {
  std::string name;
  std::string config;
  RunResult result;
};

inline std::vector<JsonRecord>& JsonLog() {
  static std::vector<JsonRecord>& log = *new std::vector<JsonRecord>();
  return log;
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // drop control chars
    out.push_back(c);
  }
  return out;
}

/// Writes BENCH_<basename(argv0)>.json into the working directory: one
/// object per recorded run with config, seconds, status, and every
/// ExecStats counter under its member name (kExecStatsFields). Call after
/// RunSpecifiedBenchmarks in each bench main.
inline void FlushJson(const char* argv0) {
  std::string name = argv0;
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "[\n");
  const std::vector<JsonRecord>& log = JsonLog();
  for (std::size_t i = 0; i < log.size(); ++i) {
    const JsonRecord& rec = log[i];
    std::fprintf(
        f,
        "  {\"name\": \"%s\", \"config\": \"%s\", \"seconds\": %.6f, "
        "\"results\": %llu, \"timed_out\": %s, \"out_of_memory\": %s",
        JsonEscape(rec.name).c_str(), JsonEscape(rec.config).c_str(),
        rec.result.seconds,
        static_cast<unsigned long long>(rec.result.count),
        rec.result.status == RunStatus::kTimeout ? "true" : "false",
        rec.result.status == RunStatus::kOutOfMemory ? "true" : "false");
    for (const ExecStatsField& field : kExecStatsFields) {
      std::fprintf(f, ", \"%s\": %llu", field.name,
                   static_cast<unsigned long long>(rec.result.stats.*
                                                   field.member));
    }
    std::fprintf(f, "}%s\n", i + 1 == log.size() ? "" : ",");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

/// Publishes a RunResult through benchmark counters: result count, memory
/// accesses, cache statistics, and the timeout/out-of-memory flags (the
/// paper's crisscross and white-dotted bars). Also appends the run to the
/// JSON log under `label` (the registered benchmark name — benchmark 1.7's
/// State has no name accessor, so it is threaded through explicitly);
/// `config` describes the engine/cache configuration.
inline void PublishResult(benchmark::State& state, const RunResult& r,
                          const std::string& label = "",
                          const std::string& config = "") {
  state.counters["results"] = static_cast<double>(r.count);
  state.counters["mem_accesses"] = static_cast<double>(r.stats.memory_accesses);
  state.counters["cache_hits"] = static_cast<double>(r.stats.cache_hits);
  state.counters["cache_peak"] =
      static_cast<double>(r.stats.cache_entries_peak);
  state.counters["intermediates"] =
      static_cast<double>(r.stats.intermediate_tuples);
  state.counters["TIMEOUT"] = r.status == RunStatus::kTimeout ? 1 : 0;
  state.counters["OOM"] = r.status == RunStatus::kOutOfMemory ? 1 : 0;
  state.SetIterationTime(r.seconds);
  JsonLog().push_back({label, config, r});
}

/// A QueryService response as a bench record: the count, counters, status
/// and message the service reported, timed by the caller's wall clock
/// (which, unlike response.seconds, covers the reuse layer's Prepare).
inline RunResult ToRunResult(const QueryResponse& response, double seconds) {
  RunResult r;
  r.count = response.count;
  r.seconds = seconds;
  r.stats = response.stats;
  r.status = response.status;
  r.message = response.message;
  return r;
}

/// A failed self-gate check: prints the printf-style diagnostic to stderr
/// and returns 1, the exit status of a failed gate. Gates either return it
/// at once or add it to a failure count and report every check.
__attribute__((format(printf, 1, 2))) inline int GateFail(const char* format,
                                                          ...) {
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  return 1;
}

/// The main of a self-gating bench: strips --quick, registers the runs,
/// runs them, writes BENCH_<name>.json, then returns gate() — 0 when every
/// check held (or a --benchmark_filter left nothing to compare), nonzero
/// otherwise — as the process exit status.
inline int GatedBenchMain(int argc, char** argv, void (*register_all)(),
                          int (*gate)()) {
  InitBench(&argc, argv);
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  FlushJson(argv[0]);
  return gate();
}

/// Runs one count benchmark body: a single timed execution per iteration
/// (benchmarks register with Iterations(1) + UseManualTime so the paper's
/// one-shot-with-timeout protocol is what gets reported).
inline void CountOnce(benchmark::State& state, JoinEngine& engine,
                      const Query& q, const Database& db,
                      const std::string& label = "",
                      const std::string& config = "") {
  RunLimits limits;
  limits.timeout_seconds = Timeout();
  limits.max_intermediate_tuples = RowBudget();
  for (auto _ : state) {
    const RunResult r = engine.Count(q, db, limits);
    PublishResult(state, r, label.empty() ? engine.name() : label,
                  config.empty() ? engine.name() : config);
  }
}

/// Runs one evaluation benchmark body; tuples are consumed and counted but
/// not stored (the paper measures materialization cost, not storage).
inline void EvalOnce(benchmark::State& state, JoinEngine& engine,
                     const Query& q, const Database& db,
                     const std::string& label = "",
                     const std::string& config = "") {
  RunLimits limits;
  limits.timeout_seconds = Timeout();
  limits.max_intermediate_tuples = RowBudget();
  for (auto _ : state) {
    std::uint64_t checksum = 0;
    const RunResult r = engine.Evaluate(
        q, db,
        [&checksum](const Tuple& t) { checksum += t.empty() ? 0 : t[0]; },
        limits);
    benchmark::DoNotOptimize(checksum);
    PublishResult(state, r, label.empty() ? engine.name() : label,
                  config.empty() ? engine.name() : config);
  }
}

}  // namespace clftj::bench

#endif  // CLFTJ_BENCH_BENCH_UTIL_H_
