// Cross-query reuse in the serving loop (PR 7): the same request served by
// a cold QueryService (reuse disabled — every request replans, rebuilds its
// tries, and starts with an empty cache) versus a warm one (plan cache +
// substrate registry + persistent striped caches, all warmed by one prior
// identical request). The workload is the repeated-shape steady state the
// reuse layer targets: a dashboard refiring the wiki-Vote 5-cycle count.
//
// Beyond publishing both latencies, this bench *gates*: it exits nonzero
// unless the warm service answers at least 2x faster than the cold one, so
// a regression that silently disables any reuse layer fails scripts/check.sh
// and the CI bench job outright.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "server/service.h"
#include "util/timer.h"

namespace clftj::bench {
namespace {

constexpr const char* kFiveCycle =
    "E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)";

// Measured per-request seconds, filled by the benchmark bodies and compared
// by the gate in main after RunSpecifiedBenchmarks.
double& ColdSeconds() {
  static double s = 0.0;
  return s;
}
double& WarmSeconds() {
  static double s = 0.0;
  return s;
}
std::uint64_t& ColdCount() {
  static std::uint64_t c = 0;
  return c;
}
std::uint64_t& WarmCount() {
  static std::uint64_t c = 0;
  return c;
}

// Runs `reps` identical requests through one service and reports the mean
// per-request wall clock. The engine-reported response.seconds excludes the
// reuse layer's Prepare step, so the timer wraps the whole Execute — cold
// planning/builds and warm cache lookups are both inside the measured
// region. workers=1 keeps execution sequential, which keeps the published
// memory_accesses deterministic for the bench_diff baseline gate.
void ServiceBody(benchmark::State& state, bool warm, const std::string& name) {
  ServiceOptions options;
  options.workers = 1;
  options.engine = "CLFTJ";
  options.reuse.enabled = warm;
  QueryService service(SnapDb("wiki-Vote"), options);

  QueryRequest request;
  request.query_text = kFiveCycle;
  request.mode = "count";
  request.timeout_ms = static_cast<std::uint64_t>(Timeout() * 1000.0);

  // Warm path: one untimed request fills the plan cache, the substrate
  // registry, and the shape's persistent striped cache.
  if (warm) {
    const QueryResponse first = service.Execute(request);
    CLFTJ_CHECK(first.status == RunStatus::kOk);
  }

  const int reps = Quick() ? 2 : 5;
  for (auto _ : state) {
    Timer timer;
    QueryResponse last;
    for (int i = 0; i < reps; ++i) last = service.Execute(request);
    const double seconds = timer.Seconds() / reps;
    CLFTJ_CHECK(last.status == RunStatus::kOk);
    (warm ? WarmSeconds() : ColdSeconds()) = seconds;
    (warm ? WarmCount() : ColdCount()) = last.count;
    PublishResult(state, ToRunResult(last, seconds), name,
                  warm ? "service reuse=on" : "service reuse=off");
  }
}

void RegisterAll() {
  for (const bool warm : {false, true}) {
    const std::string name = std::string("ServiceWarm/wiki-Vote/5-cycle/") +
                             (warm ? "warm" : "cold");
    benchmark::RegisterBenchmark(name.c_str(),
                                 [warm, name](benchmark::State& state) {
                                   ServiceBody(state, warm, name);
                                 })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
}

// Exit nonzero unless warm beat cold by >= 2x (the PR's acceptance bar) and
// both sides agreed on the count (reuse must never change answers).
int Gate() {
  if (ColdSeconds() <= 0.0 || WarmSeconds() <= 0.0) {
    // A --benchmark_filter run skipped one side; nothing to compare.
    return 0;
  }
  if (ColdCount() != WarmCount()) {
    return GateFail("bench_service_warm: FAIL — warm count %llu != cold count "
                    "%llu (reuse changed the answer)\n",
                    static_cast<unsigned long long>(WarmCount()),
                    static_cast<unsigned long long>(ColdCount()));
  }
  const double speedup = ColdSeconds() / WarmSeconds();
  if (speedup < 2.0) {
    return GateFail("bench_service_warm: FAIL — warm %.3f ms vs cold %.3f ms "
                    "is only %.2fx (need >= 2x)\n",
                    WarmSeconds() * 1e3, ColdSeconds() * 1e3, speedup);
  }
  std::printf("bench_service_warm: warm-over-cold speedup %.1fx "
              "(cold %.3f ms, warm %.3f ms)\n",
              speedup, ColdSeconds() * 1e3, WarmSeconds() * 1e3);
  return 0;
}

}  // namespace
}  // namespace clftj::bench

int main(int argc, char** argv) {
  return clftj::bench::GatedBenchMain(argc, argv, clftj::bench::RegisterAll,
                                      clftj::bench::Gate);
}
