// QueryService behaviour: correct results through the serving path,
// typed admission failures (kBadQuery without a queue slot, kShed with a
// retry-after hint), per-request deadlines and budgets, aggregate byte
// budget accounting, and both shutdown modes.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "server/service.h"
#include "test_util.h"
#include "util/fault.h"

namespace clftj {
namespace {

constexpr const char* kTriangle = "E(x,y), E(y,z), E(z,x)";

QueryRequest CountReq(const std::string& text) {
  QueryRequest request;
  request.query_text = text;
  request.mode = "count";
  return request;
}

TEST(QueryService, CountMatchesReference) {
  const Database db = testing::SmallSkewedDb(11);
  QueryService service(db, ServiceOptions{});
  const QueryResponse response = service.Execute(CountReq(kTriangle));
  EXPECT_EQ(response.status, RunStatus::kOk);
  EXPECT_EQ(response.count,
            testing::ReferenceCount(testing::Q(kTriangle), db));
  EXPECT_TRUE(response.tuples.empty());  // count mode returns no tuples
}

TEST(QueryService, EvalReturnsReferenceTuples) {
  const Database db = testing::SmallSkewedDb(11);
  QueryService service(db, ServiceOptions{});
  QueryRequest request = CountReq(kTriangle);
  request.mode = "eval";
  QueryResponse response = service.Execute(request);
  ASSERT_EQ(response.status, RunStatus::kOk);
  std::vector<Tuple> got = response.tuples;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, testing::ReferenceTuples(testing::Q(kTriangle), db));
  EXPECT_EQ(response.count, got.size());
}

TEST(QueryService, EveryEngineServesTheSameCount) {
  const Database db = testing::SmallSkewedDb(3);
  QueryService service(db, ServiceOptions{});
  const std::uint64_t want =
      testing::ReferenceCount(testing::Q(kTriangle), db);
  for (const char* name : {"CLFTJ", "CLFTJ-P", "LFTJ", "YTD", "PairwiseHJ",
                           "GenericJoin"}) {
    QueryRequest request = CountReq(kTriangle);
    request.engine = name;
    const QueryResponse response = service.Execute(request);
    EXPECT_EQ(response.status, RunStatus::kOk) << name;
    EXPECT_EQ(response.count, want) << name;
  }
}

TEST(QueryService, BadQueryNeverOccupiesAQueueSlot) {
  const Database db = testing::SmallSkewedDb(5);
  QueryService service(db, ServiceOptions{});
  const struct {
    const char* text;
    const char* mode;
    const char* engine;
  } cases[] = {
      {"E(x,y) nonsense", "count", ""},   // parse error
      {"Missing(x,y)", "count", ""},      // unknown relation
      {"E(x,y,z)", "count", ""},          // arity mismatch
      {kTriangle, "frobnicate", ""},      // unknown mode
      {kTriangle, "count", "NoSuchEngine"},
  };
  for (const auto& c : cases) {
    QueryRequest request;
    request.query_text = c.text;
    request.mode = c.mode;
    request.engine = c.engine;
    const QueryResponse response = service.Execute(request);
    EXPECT_EQ(response.status, RunStatus::kBadQuery) << c.text;
    EXPECT_FALSE(response.message.empty()) << c.text;
    EXPECT_EQ(service.QueueDepth(), 0u) << c.text;
  }
}

TEST(QueryService, ShedsWhenTheQueueIsFull) {
  const Database db = testing::SmallSkewedDb(9, /*nodes=*/120,
                                             /*edges_per_node=*/4);
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.retry_after_ms = 123;
  QueryService service(db, options);

  // Slow every admitted request down so the single worker stays busy while
  // we overfill the queue.
  fault::Config faults;
  faults.seed = 42;
  faults.period[static_cast<int>(fault::Site::kWorkerDelay)] = 1;
  faults.delay_ms = 100;
  fault::ScopedFaults scoped(faults);

  std::vector<std::future<QueryResponse>> futures;
  int sheds = 0;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.Submit(CountReq(kTriangle)));
  }
  std::uint64_t ok_count = 0;
  for (auto& f : futures) {
    const QueryResponse response = f.get();
    if (response.status == RunStatus::kShed) {
      ++sheds;
      EXPECT_EQ(response.retry_after_ms, 123u);
      EXPECT_TRUE(IsRetryable(response.status));
    } else {
      ASSERT_EQ(response.status, RunStatus::kOk);
      ok_count = response.count;
    }
  }
  EXPECT_GT(sheds, 0) << "8 submits into capacity-1 queue never shed";
  EXPECT_EQ(ok_count, testing::ReferenceCount(testing::Q(kTriangle), db));
}

TEST(QueryService, AggregateByteBudgetShedsAndCredits) {
  const Database db = testing::SmallSkewedDb(5);
  ServiceOptions options;
  options.workers = 1;
  options.aggregate_budget_bytes = 1024;  // room for one 64-tuple request
  QueryService service(db, options);

  // Hold the worker so charges stay outstanding while we probe admission.
  fault::Config faults;
  faults.seed = 1;
  faults.period[static_cast<int>(fault::Site::kWorkerDelay)] = 1;
  faults.delay_ms = 150;
  std::vector<std::future<QueryResponse>> kept;
  int shed = 0;
  {
    fault::ScopedFaults scoped(faults);
    QueryRequest request = CountReq(kTriangle);
    request.max_tuples = 64;  // charged 64 * 8 = 512 bytes
    kept.push_back(service.Submit(request));  // 512 charged
    kept.push_back(service.Submit(request));  // 1024 charged
    EXPECT_EQ(service.ChargedBytes(), 1024u);
    const QueryResponse third = service.Execute(request);  // would be 1536
    EXPECT_EQ(third.status, RunStatus::kShed);
    ++shed;
    for (auto& f : kept) f.get();  // drain so ScopedFaults can restore
  }
  EXPECT_EQ(shed, 1);
  // Completed requests credit their charge back.
  EXPECT_EQ(service.ChargedBytes(), 0u);
  // ...and with the budget free again, the same request admits fine.
  EXPECT_EQ(service.Execute(CountReq(kTriangle)).status, RunStatus::kOk);
}

TEST(QueryService, UnlimitedRequestChargesTheWholeBudget) {
  const Database db = testing::SmallSkewedDb(5);
  ServiceOptions options;
  options.workers = 1;
  options.aggregate_budget_bytes = 4096;
  QueryService service(db, options);
  fault::Config faults;
  faults.seed = 2;
  faults.period[static_cast<int>(fault::Site::kWorkerDelay)] = 1;
  faults.delay_ms = 150;
  {
    fault::ScopedFaults scoped(faults);
    // max_tuples == 0 → charged the whole budget. The first request always
    // admits (the service would otherwise deadlock on oversize charges)...
    auto first = service.Submit(CountReq(kTriangle));
    EXPECT_EQ(service.ChargedBytes(), 4096u);
    // ...but a second unlimited request must wait its turn: shed.
    EXPECT_EQ(service.Execute(CountReq(kTriangle)).status, RunStatus::kShed);
    // So must a bound past the budget: it is charged the whole budget too,
    // never max_tuples * 8 wrapped around 2^64 (2^61 * 8 would charge 0).
    QueryRequest huge = CountReq(kTriangle);
    huge.max_tuples = std::uint64_t{1} << 61;
    EXPECT_EQ(service.Execute(huge).status, RunStatus::kShed);
    EXPECT_EQ(first.get().status, RunStatus::kOk);
  }
  EXPECT_EQ(service.ChargedBytes(), 0u);
}

TEST(QueryService, PerRequestTimeoutReportsTimeout) {
  // A large-ish db plus a 4-atom cycle gives the deadline a chance to trip
  // mid-run even on fast machines; 1ms is far below the full runtime.
  const Database db = testing::SmallSkewedDb(13, /*nodes=*/4000,
                                             /*edges_per_node=*/24);
  QueryService service(db, ServiceOptions{});
  QueryRequest request = CountReq("E(a,b), E(b,c), E(c,d), E(d,a)");
  request.timeout_ms = 1;
  const QueryResponse response = service.Execute(request);
  EXPECT_EQ(response.status, RunStatus::kTimeout);
  EXPECT_FALSE(IsRetryable(response.status));
}

TEST(QueryService, TupleBudgetReportsOutOfMemory) {
  const Database db = testing::SmallSkewedDb(13, /*nodes=*/500,
                                             /*edges_per_node=*/6);
  QueryService service(db, ServiceOptions{});
  QueryRequest request = CountReq(kTriangle);
  request.engine = "PairwiseHJ";  // materializes intermediates
  request.max_tuples = 4;
  const QueryResponse response = service.Execute(request);
  EXPECT_EQ(response.status, RunStatus::kOutOfMemory);
}

TEST(QueryService, EvalTuplesClearedOnFailure) {
  const Database db = testing::SmallSkewedDb(13, /*nodes=*/500,
                                             /*edges_per_node=*/6);
  QueryService service(db, ServiceOptions{});
  QueryRequest request = CountReq(kTriangle);
  request.mode = "eval";
  request.engine = "PairwiseHJ";
  request.max_tuples = 4;
  const QueryResponse response = service.Execute(request);
  EXPECT_NE(response.status, RunStatus::kOk);
  EXPECT_TRUE(response.tuples.empty())
      << "partial tuples must not leak out of a failed run";
}

TEST(QueryService, DrainShutdownCompletesQueuedWork) {
  const Database db = testing::SmallSkewedDb(7);
  ServiceOptions options;
  options.workers = 1;
  QueryService service(db, options);
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.Submit(CountReq(kTriangle)));
  }
  service.Shutdown(/*drain=*/true);
  const std::uint64_t want =
      testing::ReferenceCount(testing::Q(kTriangle), db);
  for (auto& f : futures) {
    const QueryResponse response = f.get();
    EXPECT_EQ(response.status, RunStatus::kOk);
    EXPECT_EQ(response.count, want);
  }
  // New submits after shutdown are shed, typed and retryable (another
  // replica might be up), not silently dropped.
  const QueryResponse late = service.Execute(CountReq(kTriangle));
  EXPECT_EQ(late.status, RunStatus::kShed);
  EXPECT_NE(late.message.find("shutting down"), std::string::npos);
}

TEST(QueryService, ImmediateShutdownCancelsQueuedWork) {
  const Database db = testing::SmallSkewedDb(7, /*nodes=*/3000,
                                             /*edges_per_node=*/24);
  ServiceOptions options;
  options.workers = 1;
  QueryService service(db, options);
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(
        service.Submit(CountReq("E(a,b), E(b,c), E(c,d), E(d,a)")));
  }
  service.Shutdown(/*drain=*/false);
  int cancelled = 0;
  for (auto& f : futures) {
    const QueryResponse response = f.get();  // must resolve — no hangs
    if (response.status == RunStatus::kCancelled) ++cancelled;
  }
  // At least the queued (not yet started) requests must be cancelled; an
  // in-flight one may have finished before the flag tripped.
  EXPECT_GE(cancelled, 4);
  EXPECT_EQ(service.ChargedBytes(), 0u);
}

TEST(QueryService, ShutdownIsIdempotent) {
  const Database db = testing::SmallSkewedDb(7);
  QueryService service(db, ServiceOptions{});
  service.Shutdown(true);
  service.Shutdown(false);
  service.Shutdown(true);  // no crash, no hang
}

TEST(QueryService, ConcurrentSubmittersAllGetTypedResponses) {
  const Database db = testing::SmallSkewedDb(17);
  ServiceOptions options;
  options.workers = 3;
  options.queue_capacity = 4;
  QueryService service(db, options);
  const std::uint64_t want =
      testing::ReferenceCount(testing::Q(kTriangle), db);
  constexpr int kThreads = 6;
  constexpr int kPerThread = 10;
  std::atomic<int> ok{0}, shed{0}, other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const QueryResponse r = service.Execute(CountReq(kTriangle));
        if (r.status == RunStatus::kOk) {
          EXPECT_EQ(r.count, want);
          ok.fetch_add(1);
        } else if (r.status == RunStatus::kShed) {
          shed.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load() + shed.load() + other.load(), kThreads * kPerThread);
  EXPECT_EQ(other.load(), 0) << "unexpected non-OK/SHED statuses";
  EXPECT_GT(ok.load(), 0);
}

}  // namespace
}  // namespace clftj
