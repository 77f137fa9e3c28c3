// Figure 10: dynamically bounded cache sizes. Count-mode CLFTJ with LRU
// caches of growing capacity on the IMDB 4-cycle and 6-cycle queries and
// the wiki-Vote 6-cycle, against the LFTJ baseline (capacity 0 here means
// unbounded — the "full cache" configuration). Expected shape: speedup
// grows with the cache budget, small caches already help substantially,
// and the skewed wiki-Vote dataset saturates at a small cache (the paper's
// 246x with a fully cached 6-cycle). Note: the paper's third workload is
// the wiki-Vote 6-cycle; at our denser scaled profile that query exceeds
// the bench budget for every engine, so the 5-cycle stands in (same cache
// dimensionality, same sweep shape). --quick keeps only the cap=4096 and
// cap=65536 records of each workload (the six the bench gate compares);
// its LFTJ baselines are left out, the IMDB 6-cycle's taking longer than
// the gate's timeout.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "clftj/cached_trie_join.h"
#include "lftj/trie_join.h"
#include "query/patterns.h"
#include "td/planner.h"

namespace clftj::bench {
namespace {

std::vector<std::uint64_t> Capacities() {
  if (Quick()) return {4096, 65536};
  return {256, 1024, 4096, 16384, 65536, 0};
}

// The person-pivot decompositions of Figure 14 (the TDs the paper's
// Figure 10 runs use); persons == 0 means "let the planner choose".
TreeDecomposition PersonPivotTd(int persons) {
  TreeDecomposition td;
  if (persons == 2) {
    const NodeId root = td.AddNode({0, 1, 2}, kNone);  // {p1,m1,p2}
    td.AddNode({0, 2, 3}, root);                       // {p1,p2,m2}
  } else {
    const NodeId b1 = td.AddNode({0, 1, 2}, kNone);    // {p1,m1,p2}
    const NodeId b2 = td.AddNode({0, 2, 3}, b1);       // {p1,p2,m2}
    const NodeId b3 = td.AddNode({0, 3, 4}, b2);       // {p1,m2,p3}
    td.AddNode({0, 4, 5}, b3);                         // {p1,p3,m3}
  }
  return td;
}

void RegisterFor(const std::string& tag, const Query& query,
                 const Database& db, int imdb_persons = 0) {
  if (!Quick()) {
    const std::string lftj_name = "Fig10/" + tag + "/LFTJ";
    benchmark::RegisterBenchmark(
        lftj_name.c_str(),
        [&query, &db, lftj_name](benchmark::State& state) {
          LeapfrogTrieJoin engine;
          CountOnce(state, engine, query, db, lftj_name);
        })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  for (const std::uint64_t capacity : Capacities()) {
    const std::string label =
        capacity == 0 ? "CLFTJ/unbounded"
                      : "CLFTJ/cap=" + std::to_string(capacity);
    const std::string bench_name = "Fig10/" + tag + "/" + label;
    benchmark::RegisterBenchmark(
        bench_name.c_str(),
        [&query, &db, capacity, imdb_persons,
         bench_name](benchmark::State& state) {
          CachedTrieJoin::Options options;
          options.cache.capacity = capacity;
          options.cache.eviction = CacheOptions::Eviction::kLru;
          if (imdb_persons > 0) {
            options.plan =
                MakePlanFromTd(query, db, PersonPivotTd(imdb_persons));
          }
          CachedTrieJoin engine(options);
          CountOnce(state, engine, query, db, bench_name,
                    options.cache.ToString());
        })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
}

void RegisterAll() {
  static Query& imdb4 = *new Query(ImdbCycle(2));  // 4-cycle: 2 persons
  static Query& imdb6 = *new Query(ImdbCycle(3));  // 6-cycle: 3 persons
  static Query& wiki5 = *new Query(CycleQuery(5));
  RegisterFor("IMDB/4-cycle", imdb4, ImdbDb(), /*imdb_persons=*/2);
  RegisterFor("IMDB/6-cycle", imdb6, ImdbDb(), /*imdb_persons=*/3);
  RegisterFor("wiki-Vote/5-cycle", wiki5, SnapDb("wiki-Vote"));
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
