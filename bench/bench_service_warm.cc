// Cross-query reuse in the serving loop (PR 7): the same request served by
// a cold QueryService (reuse disabled — every request replans, rebuilds its
// tries, and starts with an empty cache) versus a warm one (plan cache +
// substrate registry + persistent striped caches, all warmed by one prior
// identical request). The workload is the repeated-shape steady state the
// reuse layer targets: a dashboard refiring the wiki-Vote 4-cycle and
// 5-cycle counts. A warm run of either is all cache hits, probed in groups
// (docs/cache.md "Grouped probes").
//
// Beyond publishing both latencies, this bench *gates*: it exits nonzero
// unless, for each shape, the warm service answers at least 2x faster than
// the cold one with the same count, so a regression that silently disables
// any reuse layer fails scripts/check.sh and the CI bench job outright.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "server/service.h"
#include "util/timer.h"

namespace clftj::bench {
namespace {

struct Shape {
  const char* name;
  const char* query;
};
constexpr Shape kShapes[] = {
    {"4-cycle", "E(a,b), E(b,c), E(c,d), E(d,a)"},
    {"5-cycle", "E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)"},
};
constexpr int kNumShapes = sizeof(kShapes) / sizeof(kShapes[0]);

// One side (cold or warm) of one shape: the measured per-request seconds
// and count, filled by the benchmark bodies and compared by the gate in
// main after RunSpecifiedBenchmarks.
struct Side {
  double seconds = 0.0;
  std::uint64_t count = 0;
};
Side& Measured(int shape, bool warm) {
  static Side sides[kNumShapes][2];
  return sides[shape][warm ? 1 : 0];
}

// Runs `reps` identical requests through one service and reports the mean
// per-request wall clock. The engine-reported response.seconds excludes the
// reuse layer's Prepare step, so the timer wraps the whole Execute — cold
// planning/builds and warm cache lookups are both inside the measured
// region. workers=1 keeps execution sequential, which keeps the published
// memory_accesses deterministic for the bench_diff baseline gate.
void ServiceBody(benchmark::State& state, int shape, bool warm,
                 const std::string& name) {
  ServiceOptions options;
  options.workers = 1;
  options.engine = "CLFTJ";
  options.reuse.enabled = warm;
  QueryService service(SnapDb("wiki-Vote"), options);

  QueryRequest request;
  request.query_text = kShapes[shape].query;
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
    Measured(shape, warm) = {seconds, last.count};
    PublishResult(state, ToRunResult(last, seconds), name,
                  warm ? "service reuse=on" : "service reuse=off");
  }
}

void RegisterAll() {
  for (int shape = 0; shape < kNumShapes; ++shape) {
    for (const bool warm : {false, true}) {
      const std::string name = std::string("ServiceWarm/wiki-Vote/") +
                               kShapes[shape].name + (warm ? "/warm" : "/cold");
      benchmark::RegisterBenchmark(
          name.c_str(),
          [shape, warm, name](benchmark::State& state) {
            ServiceBody(state, shape, warm, name);
          })
          ->Iterations(1)
          ->UseManualTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
}

// Exit nonzero unless, for every shape, warm beat cold by >= 2x (the PR's
// acceptance bar) and both sides agreed on the count (reuse must never
// change answers).
int Gate() {
  for (int shape = 0; shape < kNumShapes; ++shape) {
    const Side& cold = Measured(shape, false);
    const Side& warm = Measured(shape, true);
    const char* name = kShapes[shape].name;
    if (cold.seconds <= 0.0 || warm.seconds <= 0.0) {
      // A --benchmark_filter run skipped one side; nothing to compare.
      continue;
    }
    if (cold.count != warm.count) {
      return GateFail("bench_service_warm: FAIL — %s warm count %llu != cold "
                      "count %llu (reuse changed the answer)\n",
                      name, static_cast<unsigned long long>(warm.count),
                      static_cast<unsigned long long>(cold.count));
    }
    const double speedup = cold.seconds / warm.seconds;
    if (speedup < 2.0) {
      return GateFail("bench_service_warm: FAIL — %s warm %.3f ms vs cold "
                      "%.3f ms is only %.2fx (need >= 2x)\n",
                      name, warm.seconds * 1e3, cold.seconds * 1e3, speedup);
    }
    std::printf("bench_service_warm: %s warm-over-cold speedup %.1fx "
                "(cold %.3f ms, warm %.3f ms)\n",
                name, speedup, cold.seconds * 1e3, warm.seconds * 1e3);
  }
  return 0;
}

}  // namespace
}  // namespace clftj::bench

int main(int argc, char** argv) {
  return clftj::bench::GatedBenchMain(argc, argv, clftj::bench::RegisterAll,
                                      clftj::bench::Gate);
}
