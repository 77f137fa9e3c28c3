// Striped shared cache vs private per-shard caches (CLFTJ-P,
// CacheOptions::Sharing): the Fig5 5-cycle (unbounded cache) and a
// Fig10-style bounded-cache configuration, each at 2/4 worker threads in
// both sharing modes against single-thread CLFTJ.
//
// The number to watch is the *summed* memory accesses: with private
// capacity/K caches the shards recompute each other's subtrees and the sum
// runs 1.5-2x the single-thread count; the striped shared table closes
// that gap (any shard's computed subtree is a hit for every other shard),
// so its sum must come back down toward — and strictly below private at
// every thread count >= 2 on — these workloads. Striped counters are
// interleaving-dependent (who inserts first decides who hits), so striped
// records are informative trajectory data but are excluded from the
// recorded regression baselines; private/single records are deterministic.
//
// On a 1-core container wall-clock stays flat across thread counts; the
// JSON sidecar records the per-configuration counters either way.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "clftj/cached_trie_join.h"
#include "engine/engine.h"
#include "query/patterns.h"

namespace clftj::bench {
namespace {

constexpr int kThreadCounts[] = {2, 4};

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
    // Fig10-style: the same query under a bounded global entry budget. The
    // private split hands each shard capacity/K; striped keeps the whole
    // budget in one table, so this configuration shows both effects (reuse
    // *and* one 65536-entry table instead of K slices of it). The budget is
    // chosen where the cache-size curve of Figure 10 is steep: large enough
    // that retained entries get reused, small enough that eviction is
    // constant — a *very* tight budget (e.g. 4096) is eviction-bound and
    // neither mode can share much.
    w.push_back(
        {"Fig10/5-cycle/cap=65536", "wiki-Vote", CycleQuery(5), 65536});
  }
  return w;
}

CacheOptions MakeCache(std::uint64_t capacity, CacheOptions::Sharing sharing) {
  CacheOptions cache;
  cache.capacity = capacity;
  cache.sharing = sharing;
  return cache;
}

void RegisterAll() {
  static std::vector<Workload>& workloads =
      *new std::vector<Workload>(Workloads());
  for (const Workload& w : workloads) {
    const std::string base_name =
        "Striped/" + w.profile + "/" + w.name + "/CLFTJ";
    benchmark::RegisterBenchmark(
        base_name.c_str(),
        [&w, base_name](benchmark::State& state) {
          CachedTrieJoin::Options options;
          options.cache =
              MakeCache(w.cache_capacity, CacheOptions::Sharing::kPrivate);
          CachedTrieJoin engine(options);
          CountOnce(state, engine, w.query, SnapDb(w.profile), base_name,
                    "CLFTJ " + options.cache.ToString());
        })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);

    for (const CacheOptions::Sharing sharing :
         {CacheOptions::Sharing::kPrivate, CacheOptions::Sharing::kStriped}) {
      const std::string mode =
          sharing == CacheOptions::Sharing::kStriped ? "striped" : "private";
      for (const int threads : kThreadCounts) {
        const std::string bench_name =
            "Striped/" + w.profile + "/" + w.name + "/CLFTJ-P/sharing=" +
            mode + "/threads=" + std::to_string(threads);
        benchmark::RegisterBenchmark(
            bench_name.c_str(),
            [&w, sharing, threads, bench_name](benchmark::State& state) {
              CachedTrieJoin::Options options;
              options.threads = threads;
              options.cache = MakeCache(w.cache_capacity, sharing);
              CachedTrieJoin engine(options);
              CountOnce(state, engine, w.query, SnapDb(w.profile), bench_name,
                        "CLFTJ-P threads=" + std::to_string(threads) + " " +
                            options.cache.ToString());
            })
            ->Iterations(1)
            ->UseManualTime()
            ->Unit(benchmark::kMillisecond);
      }
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
