// Incremental maintenance in the serving loop (docs/incremental.md): what a
// small data change costs on a warm service. Three measurements over the
// wiki-Vote 2-path count:
//
//   appends     — DELTA batches/sec into a warm read-write service (the
//                 sustained write path: one merge pass into the sorted
//                 columns + minor-version bump per batch);
//   delta path  — apply one small batch, then answer the same-shape query
//                 (plans revalidate, the changed relation's trie is rebuilt
//                 once for its new version, targeted invalidation keeps the
//                 subtree cache);
//   reload path — the non-incremental alternative: rebuild + Put() the
//                 whole relation with the same tuples, then answer the now
//                 fully-cold query.
//
// A fourth measures what a batch that does touch cached keys costs: the
// wiki-Vote 4-cycle's first count after one seeded write-mix-shaped batch
// (100 deletes + 100 adds), which refills exactly the entries the batch
// could change. Its memory_accesses grow with every entry the sweep evicts
// beyond those, so the recorded baseline guards the exact rule.
//
// The bench gates (exits nonzero) unless (a) both paths agree on the final
// count — incremental maintenance must never change answers, (b) applying
// the delta is >= 5x faster than the full rebuild + Put() that lands the
// same tuples, (c) the warm query latency right after the delta stays
// within 3x of the pre-write warm latency — i.e. a small write must not
// silently de-warm the service — and (d) the 4-cycle's count after its
// batch equals a cold run's on the same data. The first post-write query
// of each path is published too, making the cold-restart cost of the
// reload visible.

#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "server/service.h"
#include "util/rng.h"
#include "util/timer.h"

namespace clftj::bench {
namespace {

// The 2-path: its one cacheable TD node has the single-variable adhesion
// {b}, bound by the participating atom — targeted invalidation keeps the
// persistent cache warm across non-touching deltas.
constexpr const char* kPath = "E(a,b), E(b,c)";

// Eight far-away edges per batch: values collide with nothing (and odd
// targets are never 2-path midpoints), so every batch leaves the query
// answer unchanged and both paths end with identical data.
std::vector<Tuple> SmallBatch(int k) {
  std::vector<Tuple> adds;
  for (Value i = 0; i < 8; ++i) {
    const Value base = 10'000'000 + 1'000 * static_cast<Value>(k) + 2 * i;
    adds.push_back({base, base + 1});
  }
  return adds;
}

// The delta path times the third batch after two untimed ones, so the
// timed apply is a steady-state write on a service that has already seen
// writes (the appends bench reports the same regime).
constexpr int kWarmupBatches = 2;

double& WarmSeconds() {
  static double s = 0.0;
  return s;
}
double& AfterDeltaSeconds() {
  static double s = 0.0;
  return s;
}
double& ApplySeconds() {
  static double s = 0.0;
  return s;
}
double& ReloadSeconds() {
  static double s = 0.0;
  return s;
}
std::uint64_t& DeltaPathCount() {
  static std::uint64_t c = 0;
  return c;
}
std::uint64_t& ReloadPathCount() {
  static std::uint64_t c = 0;
  return c;
}
std::uint64_t& FourCycleCount() {
  static std::uint64_t c = 0;
  return c;
}
std::uint64_t& FourCycleColdCount() {
  static std::uint64_t c = 0;
  return c;
}

constexpr const char* kFourCycle = "E(x1,x2), E(x2,x3), E(x3,x4), E(x1,x4)";

// One write-mix-shaped batch, drawn as perfbench's FillDeltas draws them:
// 100 deletes of live edges, then 100 adds of new edges whose endpoints are
// a live edge's source and another live edge's target, which keeps the
// degree skew.
DeltaBatch MixedBatch(const Relation& edges, std::uint64_t seed) {
  using Edge = std::pair<Value, Value>;
  std::vector<Edge> live;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    live.emplace_back(edges.At(i, 0), edges.At(i, 1));
  }
  std::set<Edge> present(live.begin(), live.end());
  std::set<Edge> deleted;
  Rng rng(seed);
  DeltaBatch batch;
  batch.relation = "E";
  for (int k = 0; k < 100; ++k) {
    const std::size_t at = rng.Uniform(live.size());
    batch.deletes.push_back({live[at].first, live[at].second});
    deleted.insert(live[at]);
    present.erase(live[at]);
    live[at] = live.back();
    live.pop_back();
  }
  while (batch.adds.size() < 100) {
    const Value u = live[rng.Uniform(live.size())].first;
    const Value v = live[rng.Uniform(live.size())].second;
    if (u == v || present.count({u, v}) > 0 || deleted.count({u, v}) > 0) {
      continue;
    }
    batch.adds.push_back({u, v});
    present.insert({u, v});
    live.emplace_back(u, v);
  }
  return batch;
}

QueryRequest CountRequest() {
  QueryRequest request;
  request.query_text = kPath;
  request.mode = "count";
  request.timeout_ms = static_cast<std::uint64_t>(Timeout() * 1000.0);
  return request;
}

QueryRequest DeltaRequest(std::vector<Tuple> adds) {
  QueryRequest request;
  request.kind = "delta";
  request.delta.relation = "E";
  request.delta.adds = std::move(adds);
  return request;
}

double MeanQuerySeconds(QueryService& service, int reps,
                        QueryResponse* last) {
  Timer timer;
  for (int i = 0; i < reps; ++i) {
    *last = service.Execute(CountRequest());
    CLFTJ_CHECK(last->status == RunStatus::kOk);
  }
  return timer.Seconds() / reps;
}

// Sustained write throughput: many small DELTA batches into a warm service.
void AppendsBody(benchmark::State& state, const std::string& name) {
  Database db = SnapDb("wiki-Vote");  // private mutable copy
  ServiceOptions options;
  options.workers = 1;
  options.engine = "CLFTJ";
  QueryService service(&db, options);
  CLFTJ_CHECK(service.Execute(CountRequest()).status == RunStatus::kOk);

  const int batches = Quick() ? 16 : 64;
  for (auto _ : state) {
    Timer timer;
    std::uint64_t applied = 0;
    for (int b = 0; b < batches; ++b) {
      std::vector<Tuple> adds;
      for (Value i = 0; i < 8; ++i) {
        const Value base = 20'000'000 + 16 * b + 2 * i;
        adds.push_back({base, base + 1});
      }
      const QueryResponse response =
          service.Execute(DeltaRequest(std::move(adds)));
      CLFTJ_CHECK(response.status == RunStatus::kOk);
      applied += response.count;
    }
    const double seconds = timer.Seconds();
    RunResult r;
    r.count = applied;
    r.seconds = seconds / batches;  // per-batch latency
    state.counters["batches_per_sec"] = batches / seconds;
    PublishResult(state, r, name, "service delta batches");
  }
}

// Delta path: warm service, one small batch, same-shape query.
void DeltaPathBody(benchmark::State& state, const std::string& name) {
  Database db = SnapDb("wiki-Vote");
  ServiceOptions options;
  options.workers = 1;
  options.engine = "CLFTJ";
  QueryService service(&db, options);

  const int reps = Quick() ? 2 : 5;
  for (auto _ : state) {
    QueryResponse last;
    WarmSeconds() = MeanQuerySeconds(service, reps + 1, &last);

    for (int k = 0; k < kWarmupBatches; ++k) {
      CLFTJ_CHECK(service.Execute(DeltaRequest(SmallBatch(k))).status ==
                  RunStatus::kOk);
    }
    Timer write_timer;
    const QueryResponse applied =
        service.Execute(DeltaRequest(SmallBatch(kWarmupBatches)));
    const double write_seconds = write_timer.Seconds();
    CLFTJ_CHECK(applied.status == RunStatus::kOk);
    Timer query_timer;
    QueryResponse first_after = service.Execute(CountRequest());
    CLFTJ_CHECK(first_after.status == RunStatus::kOk);
    const double first_query_seconds = query_timer.Seconds();

    AfterDeltaSeconds() = MeanQuerySeconds(service, reps, &last);
    ApplySeconds() = write_seconds;
    DeltaPathCount() = last.count;
    state.counters["write_ms"] = write_seconds * 1e3;
    state.counters["first_query_ms"] = first_query_seconds * 1e3;
    PublishResult(state, ToRunResult(first_after, write_seconds), name,
                  "service delta write");
  }
}

// Reload path: the same small change applied the pre-incremental way — a
// full rebuild + Put() (generation bump: every reuse layer restarts cold).
void ReloadPathBody(benchmark::State& state, const std::string& name) {
  Database db = SnapDb("wiki-Vote");
  ServiceOptions options;
  options.workers = 1;
  options.engine = "CLFTJ";
  QueryService service(&db, options);

  const int reps = Quick() ? 2 : 5;
  for (auto _ : state) {
    QueryResponse last;
    MeanQuerySeconds(service, reps + 1, &last);  // warm, untimed

    Timer write_timer;
    Relation rebuilt = db.Get("E");  // copy, as a from-scratch reload would
    for (int k = 0; k <= kWarmupBatches; ++k) {
      for (const Tuple& t : SmallBatch(k)) rebuilt.Add(t);
    }
    rebuilt.Normalize();
    db.Put(std::move(rebuilt));
    const double write_seconds = write_timer.Seconds();
    Timer query_timer;
    const QueryResponse first_after = service.Execute(CountRequest());
    CLFTJ_CHECK(first_after.status == RunStatus::kOk);
    const double first_query_seconds = query_timer.Seconds();

    ReloadSeconds() = write_seconds;
    ReloadPathCount() = first_after.count;
    state.counters["write_ms"] = write_seconds * 1e3;
    state.counters["first_query_ms"] = first_query_seconds * 1e3;
    PublishResult(state, ToRunResult(first_after, write_seconds), name,
                  "service reload write");
  }
}

// The 4-cycle's first count after a batch that touches cached keys: the
// refill of what the sweep evicted.
void FourCycleDeltaBody(benchmark::State& state, const std::string& name) {
  Database db = SnapDb("wiki-Vote");
  ServiceOptions options;
  options.workers = 1;
  options.engine = "CLFTJ";
  QueryService service(&db, options);
  QueryRequest count = CountRequest();
  count.query_text = kFourCycle;

  for (auto _ : state) {
    for (int i = 0; i < 2; ++i) {
      CLFTJ_CHECK(service.Execute(count).status == RunStatus::kOk);
    }
    QueryRequest delta;
    delta.kind = "delta";
    delta.delta = MixedBatch(db.Get("E"), /*seed=*/1);
    CLFTJ_CHECK(service.Execute(delta).status == RunStatus::kOk);
    Timer query_timer;
    const QueryResponse first_after = service.Execute(count);
    CLFTJ_CHECK(first_after.status == RunStatus::kOk);
    const double first_query_seconds = query_timer.Seconds();

    FourCycleCount() = first_after.count;
    FourCycleColdCount() =
        MakeEngine("CLFTJ")->Count(*ParseQuery(kFourCycle), db, RunLimits{})
            .count;
    state.counters["first_query_ms"] = first_query_seconds * 1e3;
    PublishResult(state, ToRunResult(first_after, first_query_seconds), name,
                  "service delta refill");
  }
}

void RegisterAll() {
  const struct {
    const char* name;
    void (*body)(benchmark::State&, const std::string&);
  } benches[] = {
      {"Delta/wiki-Vote/2-path/appends", AppendsBody},
      {"Delta/wiki-Vote/2-path/delta-path", DeltaPathBody},
      {"Delta/wiki-Vote/2-path/reload-path", ReloadPathBody},
      {"Delta/wiki-Vote/4-cycle/delta-path", FourCycleDeltaBody},
  };
  for (const auto& bench : benches) {
    const std::string name = bench.name;
    auto* body = bench.body;
    benchmark::RegisterBenchmark(name.c_str(),
                                 [body, name](benchmark::State& state) {
                                   body(state, name);
                                 })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
}

int Gate() {
  if (FourCycleCount() != FourCycleColdCount()) {
    return GateFail("bench_delta: FAIL — 4-cycle count %llu after its batch "
                    "!= cold count %llu (the sweep kept a stale entry)\n",
                    static_cast<unsigned long long>(FourCycleCount()),
                    static_cast<unsigned long long>(FourCycleColdCount()));
  }
  if (ApplySeconds() <= 0.0 || ReloadSeconds() <= 0.0) {
    // A --benchmark_filter run skipped one side; nothing to compare.
    return 0;
  }
  if (DeltaPathCount() != ReloadPathCount()) {
    return GateFail("bench_delta: FAIL — delta-path count %llu != "
                    "reload-path count %llu (incremental maintenance changed "
                    "the answer)\n",
                    static_cast<unsigned long long>(DeltaPathCount()),
                    static_cast<unsigned long long>(ReloadPathCount()));
  }
  const double speedup = ReloadSeconds() / ApplySeconds();
  if (speedup < 5.0) {
    return GateFail("bench_delta: FAIL — delta apply %.3f ms vs full reload "
                    "%.3f ms is only %.2fx (need >= 5x)\n",
                    ApplySeconds() * 1e3, ReloadSeconds() * 1e3, speedup);
  }
  if (WarmSeconds() > 0.0 && AfterDeltaSeconds() > 3.0 * WarmSeconds()) {
    return GateFail("bench_delta: FAIL — warm latency after a small delta is "
                    "%.3f ms vs %.3f ms before it (> 3x: the write "
                    "de-warmed the service)\n",
                    AfterDeltaSeconds() * 1e3, WarmSeconds() * 1e3);
  }
  std::printf("bench_delta: delta-over-reload write speedup %.1fx (apply "
              "%.3f ms, reload %.3f ms); warm query %.3f ms -> post-delta "
              "%.3f ms\n",
              speedup, ApplySeconds() * 1e3, ReloadSeconds() * 1e3,
              WarmSeconds() * 1e3, AfterDeltaSeconds() * 1e3);
  return 0;
}

}  // namespace
}  // namespace clftj::bench

int main(int argc, char** argv) {
  return clftj::bench::GatedBenchMain(argc, argv, clftj::bench::RegisterAll,
                                      clftj::bench::Gate);
}
