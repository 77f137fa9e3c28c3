// Unit tests for the cooperative stop machinery: AbortFlag's typed
// first-trip-wins reason, DeadlineChecker's stride contract (fresh
// checkers observe an already-tripped flag immediately; K workers halt
// within one stride of a trip), and MergeRunStatus's precedence.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "test_util.h"

namespace clftj {
namespace {

TEST(AbortFlag, StartsUntripped) {
  AbortFlag flag;
  EXPECT_FALSE(flag.Tripped());
  EXPECT_EQ(flag.reason(), RunStatus::kOk);
}

TEST(AbortFlag, TripCarriesReason) {
  AbortFlag flag;
  flag.Trip(RunStatus::kOutOfMemory);
  EXPECT_TRUE(flag.Tripped());
  EXPECT_EQ(flag.reason(), RunStatus::kOutOfMemory);
}

TEST(AbortFlag, FirstTripWins) {
  // A worker that "times out" because a sibling already tripped the flag
  // must not overwrite the original reason — the secondary timeout is an
  // artifact of the stop signal.
  AbortFlag flag;
  flag.Trip(RunStatus::kCancelled);
  flag.Trip(RunStatus::kTimeout);
  flag.Trip(RunStatus::kOutOfMemory);
  EXPECT_EQ(flag.reason(), RunStatus::kCancelled);
}

TEST(AbortFlag, ConcurrentTripsSettleOnExactlyOneReason) {
  for (int round = 0; round < 20; ++round) {
    AbortFlag flag;
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    const RunStatus reasons[] = {RunStatus::kTimeout, RunStatus::kOutOfMemory,
                                 RunStatus::kCancelled};
    for (const RunStatus reason : reasons) {
      threads.emplace_back([&flag, &ready, reason] {
        ready.fetch_add(1);
        while (ready.load() < 3) {
        }
        flag.Trip(reason);
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_TRUE(flag.Tripped());
    const RunStatus got = flag.reason();
    EXPECT_TRUE(got == RunStatus::kTimeout ||
                got == RunStatus::kOutOfMemory ||
                got == RunStatus::kCancelled);
  }
}

TEST(DeadlineChecker, FreshCheckerObservesTrippedFlagImmediately) {
  // A run handed an already-cancelled flag must terminate before doing any
  // work: the very FIRST Expired() call performs a check, not call kStride.
  AbortFlag flag;
  flag.Trip(RunStatus::kCancelled);
  DeadlineChecker checker(/*timeout_seconds=*/0.0, &flag);
  EXPECT_TRUE(checker.Expired());
}

TEST(DeadlineChecker, NoTimeoutNoFlagNeverExpires) {
  DeadlineChecker checker(/*timeout_seconds=*/0.0);
  for (std::uint64_t i = 0; i < 3 * DeadlineChecker::kStride; ++i) {
    ASSERT_FALSE(checker.Expired());
  }
}

TEST(DeadlineChecker, ObservesTripWithinOneStride) {
  AbortFlag flag;
  DeadlineChecker checker(/*timeout_seconds=*/0.0, &flag);
  EXPECT_FALSE(checker.Expired());  // call 0 checked: flag still clear
  flag.Trip(RunStatus::kCancelled);
  std::uint64_t calls = 0;
  while (!checker.Expired()) {
    ++calls;
    ASSERT_LE(calls, DeadlineChecker::kStride) << "trip not observed "
                                                  "within one stride";
  }
  EXPECT_LE(calls, DeadlineChecker::kStride);
}

TEST(DeadlineChecker, KWorkersAllHaltWithinOneStrideOfATrip) {
  constexpr int kWorkers = 4;
  AbortFlag flag;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::uint64_t> calls_after_trip(kWorkers, 0);
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      DeadlineChecker checker(/*timeout_seconds=*/0.0, &flag);
      ready.fetch_add(1);
      while (!go.load()) {
      }
      // Spin the checker like an innermost join loop until it reports
      // expiry; every worker must stop within one stride of the trip.
      std::uint64_t calls = 0;
      while (!checker.Expired()) {
        if (flag.Tripped()) ++calls;  // count only post-trip iterations
        if (calls > 2 * DeadlineChecker::kStride) break;  // fail below
      }
      calls_after_trip[w] = calls;
    });
  }
  while (ready.load() < kWorkers) {
  }
  go.store(true);
  flag.Trip(RunStatus::kTimeout);
  for (std::thread& t : workers) t.join();
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_LE(calls_after_trip[w], DeadlineChecker::kStride)
        << "worker " << w << " overran the stride bound";
  }
}

TEST(DeadlineChecker, ExpiryTripsSharedFlagAsTimeout) {
  AbortFlag flag;
  DeadlineChecker checker(/*timeout_seconds=*/1e-9, &flag);
  while (!checker.Expired()) {
  }
  EXPECT_TRUE(flag.Tripped());
  EXPECT_EQ(flag.reason(), RunStatus::kTimeout);
}

TEST(MergeRunStatus, OkWhenNothingFailed) {
  AbortFlag flag;
  EXPECT_EQ(MergeRunStatus(false, false, nullptr), RunStatus::kOk);
  EXPECT_EQ(MergeRunStatus(false, false, &flag), RunStatus::kOk);
}

TEST(MergeRunStatus, OomDominatesTimeout) {
  // One worker blew the materialization budget, siblings "timed out" on
  // the stop signal: the run is out-of-memory, not a deadline miss.
  AbortFlag flag;
  flag.Trip(RunStatus::kOutOfMemory);
  EXPECT_EQ(MergeRunStatus(/*any_timed_out=*/true,
                           /*any_out_of_memory=*/true, &flag),
            RunStatus::kOutOfMemory);
  EXPECT_EQ(MergeRunStatus(/*any_timed_out=*/true,
                           /*any_out_of_memory=*/false, &flag),
            RunStatus::kOutOfMemory);
}

TEST(MergeRunStatus, CancelReasonOverridesSecondaryTimeouts) {
  AbortFlag flag;
  flag.Trip(RunStatus::kCancelled);
  EXPECT_EQ(MergeRunStatus(/*any_timed_out=*/true,
                           /*any_out_of_memory=*/false, &flag),
            RunStatus::kCancelled);
  // ...but a real budget violation still dominates the cancel.
  EXPECT_EQ(MergeRunStatus(/*any_timed_out=*/true,
                           /*any_out_of_memory=*/true, &flag),
            RunStatus::kOutOfMemory);
}

TEST(MergeRunStatus, PlainTimeoutStaysTimeout) {
  AbortFlag flag;
  flag.Trip(RunStatus::kTimeout);
  EXPECT_EQ(MergeRunStatus(true, false, &flag), RunStatus::kTimeout);
  EXPECT_EQ(MergeRunStatus(true, false, nullptr), RunStatus::kTimeout);
}

TEST(RunStatusNames, RoundTrip) {
  const RunStatus all[] = {RunStatus::kOk,        RunStatus::kTimeout,
                           RunStatus::kOutOfMemory, RunStatus::kShed,
                           RunStatus::kCancelled, RunStatus::kBadQuery,
                           RunStatus::kInternal};
  for (const RunStatus s : all) {
    RunStatus parsed;
    ASSERT_TRUE(ParseRunStatus(RunStatusName(s), &parsed))
        << RunStatusName(s);
    EXPECT_EQ(parsed, s);
  }
  EXPECT_FALSE(ParseRunStatus("NOT-A-STATUS", nullptr));
}

TEST(RunStatusNames, RetryTaxonomy) {
  EXPECT_TRUE(IsRetryable(RunStatus::kShed));
  EXPECT_TRUE(IsRetryable(RunStatus::kInternal));
  EXPECT_FALSE(IsRetryable(RunStatus::kOk));
  EXPECT_FALSE(IsRetryable(RunStatus::kTimeout));
  EXPECT_FALSE(IsRetryable(RunStatus::kOutOfMemory));
  EXPECT_FALSE(IsRetryable(RunStatus::kBadQuery));
  EXPECT_FALSE(IsRetryable(RunStatus::kCancelled));
}

TEST(RunResult, OkIsStatusOk) {
  RunResult result;
  EXPECT_TRUE(result.ok());
  for (const RunStatus status :
       {RunStatus::kTimeout, RunStatus::kOutOfMemory, RunStatus::kShed,
        RunStatus::kCancelled, RunStatus::kBadQuery, RunStatus::kInternal}) {
    result.status = status;
    EXPECT_FALSE(result.ok()) << RunStatusName(status);
  }
}

// External cancellation through RunLimits::cancel terminates a real
// engine run with a typed kCancelled, for both single-threaded CLFTJ and
// the sharded executor (where the flag doubles as the workers' shared
// stop signal).
TEST(ExternalCancel, PreCancelledRunReportsCancelledImmediately) {
  const Database db = testing::SmallSkewedDb(7);
  const Query q = testing::Q("E(x,y), E(y,z), E(z,x)");
  for (const char* name : {"CLFTJ", "CLFTJ-P", "LFTJ", "YTD", "PairwiseHJ",
                           "GenericJoin", "NestedLoop"}) {
    AbortFlag cancel;
    cancel.Trip(RunStatus::kCancelled);
    RunLimits limits;
    limits.cancel = &cancel;
    const auto engine = MakeEngine(name);
    const RunResult result = engine->Count(q, db, limits);
    EXPECT_EQ(result.status, RunStatus::kCancelled) << name;
    EXPECT_FALSE(result.ok()) << name;
  }
}

TEST(ExternalCancel, ValidateQueryForDatabaseRejectsBadQueries) {
  const Database db = testing::SmallSkewedDb(7);
  std::string message;
  EXPECT_EQ(ValidateQueryForDatabase(testing::Q("E(x,y)"), db, &message),
            RunStatus::kOk);
  EXPECT_TRUE(message.empty());
  EXPECT_EQ(ValidateQueryForDatabase(testing::Q("Nope(x,y)"), db, &message),
            RunStatus::kBadQuery);
  EXPECT_NE(message.find("Nope"), std::string::npos);
  EXPECT_EQ(ValidateQueryForDatabase(testing::Q("E(x,y,z)"), db, &message),
            RunStatus::kBadQuery);
  EXPECT_NE(message.find("arity"), std::string::npos);
}

}  // namespace
}  // namespace clftj
