// Batch admission over the reuse layer (PR 10): eight identical wiki-Vote
// 5-cycle count requests arriving together at a 4-worker service, dispatched
// FIFO (batch.enabled=false — every request pays its own plan resolution,
// substrate acquisition, and probe) versus batched (the leader drains the
// co-arriving same-shape requests into one batch that plans once, pins the
// substrate once, and answers every member from one shared engine run).
//
// Two scenarios, two kinds of gate:
//
//  * cold burst — the batch does exactly one lone request's resolution
//    work: the gate checks plan_cache_misses == 1 and substrate_builds ==
//    one lone cold run's builds across all eight members, identical counts,
//    and that batching is not slower than FIFO. (The *speedup* here is
//    bounded by the cold run itself: racing FIFO workers already warm the
//    shared striped cache for each other (PR 3/7), so the duplicated tail
//    is small — measured ~1.5x on one core.)
//
//  * warm burst — the steady state batching exists for. FIFO pays one full
//    warm probe per request; the batch answers all eight from one shared
//    probe. The gate requires batched >= 2x FIFO-warm with identical
//    counts (measured ~5-7x on one core).
//
// Any regression that silently stops batching flips the counter gates
// (plan misses and builds multiply by the worker count), and any perf
// regression in the shared run flips the warm-speedup gate — either exits
// nonzero and fails scripts/check.sh and the CI bench job outright.

#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "server/service.h"
#include "util/timer.h"

namespace clftj::bench {
namespace {

constexpr const char* kFiveCycle =
    "E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)";
constexpr const char* kTriangle = "E(x,y), E(y,z), E(z,x)";
constexpr int kBurst = 8;

// Measured burst wall clock and batch-total counters, filled by the
// benchmark bodies and compared by the gate in main.
struct Side {
  double seconds = 0.0;
  std::uint64_t count = 0;
  std::uint64_t plan_misses = 0;
  std::uint64_t substrate_builds = 0;
  bool all_ok = false;
};
Side& ColdFifo() {
  static Side s;
  return s;
}
Side& ColdBatched() {
  static Side s;
  return s;
}
Side& WarmFifo() {
  static Side s;
  return s;
}
Side& WarmBatched() {
  static Side s;
  return s;
}
// One lone cold request's substrate builds: the batched cold burst must
// not exceed this across all eight members combined.
std::uint64_t& AnchorBuilds() {
  static std::uint64_t b = 0;
  return b;
}

QueryRequest BurstRequest(const char* text) {
  QueryRequest request;
  request.query_text = text;
  request.mode = "count";
  request.timeout_ms = static_cast<std::uint64_t>(Timeout() * 1000.0);
  return request;
}

ServiceOptions BurstOptions(bool batched, std::uint64_t window_ms = 1000) {
  ServiceOptions options;
  options.workers = 4;
  options.engine = "CLFTJ";
  options.batch.enabled = batched;
  if (batched) {
    options.batch.max_size = kBurst;
    // The leader claims the shape the instant it pops the first member
    // (pop + claim are one critical section), so a full batch closes the
    // moment the 8th member arrives; the window only bounds how long a
    // partial batch waits for stragglers. The same-shape bursts use a
    // generous window (they always fill), the mixed burst a short one
    // (each shape only ever collects 4 of 8, so the window is pure added
    // latency there — the tradeoff docs/serving.md documents).
    options.batch.window_ms = window_ms;
  }
  return options;
}

// Submits the whole burst at once and waits for every response — the
// co-arrival pattern batching exists for. The service is constructed
// fresh every iteration; `warm` issues one untimed request first so the
// timed burst measures the steady state instead of the cold build.
void BurstBody(benchmark::State& state, bool batched, bool warm,
               const std::string& name) {
  for (auto _ : state) {
    QueryService service(SnapDb("wiki-Vote"), BurstOptions(batched));
    const QueryRequest request = BurstRequest(kFiveCycle);
    if (warm) {
      CLFTJ_CHECK(service.Execute(request).status == RunStatus::kOk);
    }

    Timer timer;
    std::vector<std::future<QueryResponse>> futures;
    futures.reserve(kBurst);
    for (int i = 0; i < kBurst; ++i) futures.push_back(service.Submit(request));
    std::vector<QueryResponse> responses;
    responses.reserve(kBurst);
    for (auto& f : futures) responses.push_back(f.get());
    const double seconds = timer.Seconds();

    Side& side = warm ? (batched ? WarmBatched() : WarmFifo())
                      : (batched ? ColdBatched() : ColdFifo());
    side = Side{};
    side.seconds = seconds;
    side.all_ok = true;
    for (const QueryResponse& response : responses) {
      side.all_ok = side.all_ok && response.status == RunStatus::kOk;
      side.count = response.count;
      side.plan_misses += response.stats.plan_cache_misses;
      side.substrate_builds += response.stats.substrate_builds;
    }
    CLFTJ_CHECK(side.all_ok);
    // Cold FIFO runs race each other through the shared striped cache, so
    // their per-run counters depend on interleaving: the "racing" token
    // tells the bench_diff baseline gate to skip them (warm FIFO runs are
    // all-hits and deterministic; batched runs are one shared run).
    PublishResult(state, ToRunResult(responses.front(), seconds), name,
                  std::string(batched ? "batch" : "fifo") + " burst=8 " +
                      (warm ? "warm" : "cold") + " workers=4" +
                      (!batched && !warm ? " racing" : ""));
  }
}

// Mixed-shape burst (4 triangles + 4 five-cycles interleaved): published
// for the record, not gated — it shows the leader only drains its own
// shape and foreign shapes still complete correctly.
void MixedBody(benchmark::State& state, bool batched,
               const std::string& name) {
  for (auto _ : state) {
    QueryService service(SnapDb("wiki-Vote"),
                         BurstOptions(batched, /*window_ms=*/150));
    Timer timer;
    std::vector<std::future<QueryResponse>> futures;
    for (int i = 0; i < kBurst / 2; ++i) {
      futures.push_back(service.Submit(BurstRequest(kTriangle)));
      futures.push_back(service.Submit(BurstRequest(kFiveCycle)));
    }
    QueryResponse last;
    for (auto& f : futures) {
      last = f.get();
      CLFTJ_CHECK(last.status == RunStatus::kOk);
    }
    PublishResult(state, ToRunResult(last, timer.Seconds()), name,
                  batched ? "batch mixed=4+4 workers=4"
                          : "fifo mixed=4+4 workers=4 racing");
  }
}

void RegisterAll() {
  // Anchor: one lone cold request, to learn the substrate-build budget the
  // batched cold burst must stay within. Not compared by time.
  benchmark::RegisterBenchmark(
      "BatchAdmission/wiki-Vote/5-cycle/lone-cold",
      [](benchmark::State& state) {
        for (auto _ : state) {
          QueryService service(SnapDb("wiki-Vote"), BurstOptions(false));
          Timer timer;
          const QueryResponse response =
              service.Execute(BurstRequest(kFiveCycle));
          CLFTJ_CHECK(response.status == RunStatus::kOk);
          AnchorBuilds() = response.stats.substrate_builds;
          PublishResult(state, ToRunResult(response, timer.Seconds()),
                        "BatchAdmission/wiki-Vote/5-cycle/lone-cold",
                        "fifo burst=1 workers=4");
        }
      })
      ->Iterations(1)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
  for (const bool batched : {false, true}) {
    for (const bool warm : {false, true}) {
      const std::string name =
          std::string("BatchAdmission/wiki-Vote/5-cycle/burst8/") +
          (warm ? "warm/" : "cold/") + (batched ? "batched" : "fifo");
      benchmark::RegisterBenchmark(
          name.c_str(),
          [batched, warm, name](benchmark::State& state) {
            BurstBody(state, batched, warm, name);
          })
          ->Iterations(1)
          ->UseManualTime()
          ->Unit(benchmark::kMillisecond);
    }
    const std::string mixed =
        std::string("BatchAdmission/wiki-Vote/mixed4+4/") +
        (batched ? "batched" : "fifo");
    benchmark::RegisterBenchmark(mixed.c_str(),
                                 [batched, mixed](benchmark::State& state) {
                                   MixedBody(state, batched, mixed);
                                 })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
}

// The PR's acceptance bars (see file comment). Counter gates run on the
// cold burst; the >= 2x speed gate runs on the warm burst.
int Gate() {
  if (ColdFifo().seconds <= 0.0 || ColdBatched().seconds <= 0.0 ||
      WarmFifo().seconds <= 0.0 || WarmBatched().seconds <= 0.0) {
    // A --benchmark_filter run skipped a side; nothing to compare.
    return 0;
  }
  if (ColdFifo().count != ColdBatched().count ||
      WarmFifo().count != WarmBatched().count) {
    return GateFail("bench_batch: FAIL — batched count %llu != fifo count "
                    "%llu (batching changed the answer)\n",
                    static_cast<unsigned long long>(ColdBatched().count),
                    static_cast<unsigned long long>(ColdFifo().count));
  }
  if (ColdBatched().plan_misses != 1) {
    return GateFail("bench_batch: FAIL — cold batch-total plan_cache_misses "
                    "%llu (a batch of %llu must resolve its plan exactly "
                    "once)\n",
                    static_cast<unsigned long long>(ColdBatched().plan_misses),
                    static_cast<unsigned long long>(kBurst));
  }
  if (AnchorBuilds() > 0 &&
      ColdBatched().substrate_builds != AnchorBuilds()) {
    return GateFail(
        "bench_batch: FAIL — cold batch-total substrate_builds %llu != lone "
        "cold run's %llu\n",
        static_cast<unsigned long long>(ColdBatched().substrate_builds),
        static_cast<unsigned long long>(AnchorBuilds()));
  }
  const double cold_speedup = ColdFifo().seconds / ColdBatched().seconds;
  if (cold_speedup < 1.0) {
    return GateFail("bench_batch: FAIL — cold batched %.3f ms slower than "
                    "cold fifo %.3f ms\n",
                    ColdBatched().seconds * 1e3, ColdFifo().seconds * 1e3);
  }
  const double warm_speedup = WarmFifo().seconds / WarmBatched().seconds;
  if (warm_speedup < 2.0) {
    return GateFail("bench_batch: FAIL — warm batched %.3f ms vs warm fifo "
                    "%.3f ms is only %.2fx (need >= 2x)\n",
                    WarmBatched().seconds * 1e3, WarmFifo().seconds * 1e3,
                    warm_speedup);
  }
  std::printf("bench_batch: batched-over-fifo speedup %.1fx warm / %.1fx "
              "cold on the 8-burst (warm fifo %.3f ms -> %.3f ms; cold "
              "plan misses 1, substrate builds %llu)\n",
              warm_speedup, cold_speedup, WarmFifo().seconds * 1e3,
              WarmBatched().seconds * 1e3,
              static_cast<unsigned long long>(
                  ColdBatched().substrate_builds));
  return 0;
}

}  // namespace
}  // namespace clftj::bench

int main(int argc, char** argv) {
  return clftj::bench::GatedBenchMain(argc, argv, clftj::bench::RegisterAll,
                                      clftj::bench::Gate);
}
