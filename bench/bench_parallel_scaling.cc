// Parallel scaling of CLFTJ-P: the Fig5 5-cycle count and a Fig10-style
// bounded-cache count at 1/2/4/8 worker threads, against single-thread
// CLFTJ as the baseline. Expected shape on a multi-core host: near-linear
// wall-clock scaling up to the physical core count (>=2x at 4 threads),
// with the summed memory accesses a modest constant factor above the
// single-thread run (private shard caches cannot share hits). On a 1-core
// container the thread counts interleave and wall-clock stays flat — the
// JSON sidecar still records the per-configuration counters either way.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "clftj/cached_trie_join.h"
#include "engine/engine.h"
#include "query/patterns.h"

namespace clftj::bench {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

struct Workload {
  std::string name;
  std::string profile;
  Query query;
  std::uint64_t cache_capacity;  // 0 = unbounded (the Fig5 configuration)
};

std::vector<Workload> Workloads() {
  std::vector<Workload> w;
  // The Fig5 5-cycle on the skewed profiles where caching pays most.
  w.push_back({"Fig5/5-cycle", "wiki-Vote", CycleQuery(5), 0});
  if (!Quick()) {
    w.push_back({"Fig5/5-cycle", "ego-Facebook", CycleQuery(5), 0});
    // Fig10-style: the same query under a tight global entry budget, split
    // capacity/K across the shards' private caches.
    w.push_back({"Fig10/5-cycle/cap=4096", "wiki-Vote", CycleQuery(5), 4096});
  }
  return w;
}

void RegisterAll() {
  static std::vector<Workload>& workloads =
      *new std::vector<Workload>(Workloads());
  for (const Workload& w : workloads) {
    CacheOptions cache;
    cache.capacity = w.cache_capacity;

    const std::string base_name =
        "Parallel/" + w.profile + "/" + w.name + "/CLFTJ";
    benchmark::RegisterBenchmark(
        base_name.c_str(),
        [&w, cache, base_name](benchmark::State& state) {
          CachedTrieJoin::Options options;
          options.cache = cache;
          CachedTrieJoin engine(options);
          CountOnce(state, engine, w.query, SnapDb(w.profile), base_name,
                    "CLFTJ " + cache.ToString());
        })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);

    for (const int threads : kThreadCounts) {
      const std::string bench_name = "Parallel/" + w.profile + "/" + w.name +
                                     "/CLFTJ-P/threads=" +
                                     std::to_string(threads);
      benchmark::RegisterBenchmark(
          bench_name.c_str(),
          [&w, cache, threads, bench_name](benchmark::State& state) {
            CachedTrieJoin::Options options;
            options.threads = threads;
            options.cache = cache;
            CachedTrieJoin engine(options);
            CountOnce(state, engine, w.query, SnapDb(w.profile), bench_name,
                      "CLFTJ-P threads=" + std::to_string(threads) + " " +
                          cache.ToString());
          })
          ->Iterations(1)
          ->UseManualTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace clftj::bench

int main(int argc, char** argv) {
  clftj::bench::InitBench(&argc, argv);
  clftj::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  clftj::bench::FlushJson(argv[0]);
  return 0;
}
