// Differential and failure-propagation tests for CachedTrieJoin's sharded
// runs: at every thread count the run must reproduce the one-shard run
// (sequential CLFTJ) bit for bit — counts, emission order, and factorized
// structure — and a limit hit in any shard must stop and be reported by
// the whole run. Also exercises the re-entrant run states directly
// (FirstVarRange shard arithmetic over one shared plan/substrate).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "clftj/cached_trie_join.h"
#include "query/patterns.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace clftj {
namespace {

using ::clftj::testing::CollectTuples;
using ::clftj::testing::Q;

constexpr int kThreadCounts[] = {1, 2, 3, 8};

struct Instance {
  Query query;
  Database db;
};

Instance MakeInstance(std::uint64_t seed) {
  Rng rng(seed * 6271 + 5);
  const int num_vars = 3 + static_cast<int>(rng.Uniform(4));  // 3..6
  const double p = 0.35 + 0.1 * static_cast<double>(rng.Uniform(5));
  Instance inst{RandomPatternQuery(num_vars, p, seed + 1), Database()};
  const int nodes = 25 + static_cast<int>(rng.Uniform(40));
  if (rng.Flip(0.5)) {
    inst.db.Put(PreferentialAttachmentGraph(
        "E", nodes, 2 + static_cast<int>(rng.Uniform(3)), seed + 2));
  } else {
    inst.db.Put(NearRegularGraph("E", nodes, nodes * 2, seed + 2));
  }
  return inst;
}

CachedTrieJoin MakeSharded(int threads, CacheOptions cache = {}) {
  CachedTrieJoin::Options options;
  options.threads = threads;
  options.cache = cache;
  return CachedTrieJoin(options);
}

class ShardedDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedDifferentialTest, CountsMatchAtAllThreadCounts) {
  const Instance inst = MakeInstance(GetParam());
  CachedTrieJoin single;
  const RunResult anchor = single.Count(inst.query, inst.db, {});
  for (const int threads : kThreadCounts) {
    CachedTrieJoin parallel = MakeSharded(threads);
    const RunResult got = parallel.Count(inst.query, inst.db, {});
    EXPECT_EQ(got.count, anchor.count)
        << inst.query.ToString() << " threads=" << threads;
    EXPECT_TRUE(got.ok());
  }
}

TEST_P(ShardedDifferentialTest, TupleSetsMatchAtAllThreadCounts) {
  const Instance inst = MakeInstance(GetParam());
  CachedTrieJoin single;
  // Sorted: cache hits expand skipped subtrees at the emission point, so the
  // raw interleaving depends on the hit pattern, and private shard caches
  // hit differently than the one shared cache. The result *set* is
  // identical at every thread count.
  const std::vector<Tuple> anchor = CollectTuples(single, inst.query, inst.db);
  for (const int threads : kThreadCounts) {
    CachedTrieJoin parallel = MakeSharded(threads);
    EXPECT_EQ(CollectTuples(parallel, inst.query, inst.db), anchor)
        << inst.query.ToString() << " threads=" << threads;
  }
}

TEST_P(ShardedDifferentialTest, FactorizedResultMatchesSingleThread) {
  const Instance inst = MakeInstance(GetParam());
  CachedTrieJoin single;
  RunResult single_run;
  const auto anchor =
      single.EvaluateFactorized(inst.query, inst.db, {}, &single_run);
  ASSERT_TRUE(anchor.has_value());
  for (const int threads : kThreadCounts) {
    CachedTrieJoin parallel = MakeSharded(threads);
    RunResult run;
    const auto got = parallel.EvaluateFactorized(inst.query, inst.db, {}, &run);
    ASSERT_TRUE(got.has_value()) << "threads=" << threads;
    EXPECT_EQ(got->Count(), anchor->Count()) << "threads=" << threads;
    // The flat expansion must agree tuple for tuple in enumeration order.
    // NumEntries is *not* compared: it counts distinct shared sets, and
    // sub-structure sharing follows the cache hit pattern, which private
    // shard caches legitimately change.
    std::vector<Tuple> anchor_tuples;
    anchor->Enumerate([&](const Tuple& t) { anchor_tuples.push_back(t); });
    std::vector<Tuple> got_tuples;
    got->Enumerate([&](const Tuple& t) { got_tuples.push_back(t); });
    std::sort(anchor_tuples.begin(), anchor_tuples.end());
    std::sort(got_tuples.begin(), got_tuples.end());
    EXPECT_EQ(got_tuples, anchor_tuples) << "threads=" << threads;
  }
}

TEST_P(ShardedDifferentialTest, BoundedPrivateCachesStayCorrect) {
  const Instance inst = MakeInstance(GetParam());
  CacheOptions cache;
  cache.capacity = 16;  // split to 16/K per shard
  CachedTrieJoin::Options single_options;
  single_options.cache = cache;
  CachedTrieJoin single(single_options);
  const std::uint64_t anchor = single.Count(inst.query, inst.db, {}).count;
  for (const int threads : kThreadCounts) {
    CachedTrieJoin parallel = MakeSharded(threads, cache);
    EXPECT_EQ(parallel.Count(inst.query, inst.db, {}).count, anchor)
        << inst.query.ToString() << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedDifferentialTest,
                         ::testing::Range(0, 12));

TEST(Sharded, DomainSmallerThanThreadCount) {
  // Three edges — the first variable's depth-0 intersection has at most 3
  // values, so 8 requested workers collapse to <= 3 shards.
  Relation e("E", 2);
  e.AddPair(1, 2);
  e.AddPair(2, 3);
  e.AddPair(3, 1);
  Database db;
  db.Put(std::move(e));
  const Query q = Q("E(x,y), E(y,z), E(z,x)");
  CachedTrieJoin single;
  const std::uint64_t anchor = single.Count(q, db, {}).count;
  EXPECT_EQ(anchor, 3u);  // the 3 rotations of the directed triangle
  CachedTrieJoin parallel = MakeSharded(8);
  const RunResult got = parallel.Count(q, db, {});
  EXPECT_EQ(got.count, anchor);
  EXPECT_TRUE(got.ok());
}

TEST(Sharded, EmptyResultAndEmptyIntersection) {
  // E has tuples but no (y,x) partner: the depth-0 intersection of the
  // triangle-closing pair is empty, so MakeShards finds nothing to run.
  Relation e("E", 2);
  e.AddPair(1, 2);
  e.AddPair(3, 4);
  Database db;
  db.Put(std::move(e));
  const Query q = Q("E(x,y), E(y,x)");
  for (const int threads : kThreadCounts) {
    CachedTrieJoin parallel = MakeSharded(threads);
    const RunResult got = parallel.Count(q, db, {});
    EXPECT_EQ(got.count, 0u);
    EXPECT_TRUE(got.ok());
    std::vector<Tuple> tuples = CollectTuples(parallel, q, db);
    EXPECT_TRUE(tuples.empty());
  }
}

TEST(Sharded, EmptyShardRangeYieldsNothing) {
  // Drives the re-entrant run state directly over a shared plan and
  // substrate: a shard whose value interval contains no first-variable
  // value must contribute zero, and disjoint shard ranges must partition
  // the full count.
  Database db = testing::SmallSkewedDb(7);
  const Query q = Q("E(x,y), E(y,z)");
  const CachedPlan plan =
      CachedPlan::Resolve(q, db, std::nullopt, {}, CacheOptions{});
  const TrieJoinSubstrate substrate(q, db, plan.order);
  ASSERT_FALSE(substrate.HasEmptyAtom());

  ExecStats stats;
  auto count_range = [&](const FirstVarRange& range) {
    TrieJoinContext ctx(substrate, &stats);
    CountRun<CountingSemiring> run(plan, CacheOptions{}, &ctx, &stats,
                                   RunLimits{}, range);
    return run.Run();
  };

  const std::uint64_t all = count_range(FirstVarRange{});
  EXPECT_EQ(all, testing::ReferenceCount(q, db));

  FirstVarRange empty;
  empty.lo = 1u << 20;  // beyond every node id in the small graph
  EXPECT_EQ(count_range(empty), 0u);

  FirstVarRange low, high;
  low.has_hi = true;
  low.hi = 30;  // split the node-id domain at an arbitrary boundary
  high.lo = 30;
  EXPECT_EQ(count_range(low) + count_range(high), all);
}

TEST(Sharded, TimeoutPropagatesToAllWorkers) {
  Database db;
  db.Put(PreferentialAttachmentGraph("E", 800, 5, /*seed=*/3));
  const Query q = CycleQuery(5);
  RunLimits limits;
  limits.timeout_seconds = 1e-9;  // expires at the first stride sample
  CachedTrieJoin parallel = MakeSharded(4);
  const RunResult got = parallel.Count(q, db, limits);
  EXPECT_EQ(got.status, RunStatus::kTimeout);
  EXPECT_FALSE(got.ok());
}

TEST(Sharded, OutOfMemoryInOneWorkerFailsTheRun) {
  Database db = testing::SmallSkewedDb(11, /*nodes=*/80, /*edges_per_node=*/4);
  const Query q = CycleQuery(4);
  RunLimits limits;
  limits.max_intermediate_tuples = 5;  // far below the real intermediate load
  CachedTrieJoin parallel = MakeSharded(4);
  RunResult run;
  const auto got = parallel.EvaluateFactorized(q, db, limits, &run);
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(run.status, RunStatus::kOutOfMemory);
  // OOM dominates the secondary abort-flag "timeouts" of sibling workers.
  EXPECT_NE(run.status, RunStatus::kTimeout);
}

TEST(Sharded, EvaluateBufferRespectsMaterializationBudget) {
  Database db = testing::SmallSkewedDb(13, /*nodes=*/80, /*edges_per_node=*/4);
  const Query q = Q("E(x,y), E(y,z)");
  RunLimits limits;
  limits.max_intermediate_tuples = 10;  // the 2-path result is much larger
  CachedTrieJoin parallel = MakeSharded(2);
  std::uint64_t emitted = 0;
  const RunResult got = parallel.Evaluate(
      q, db, [&emitted](const Tuple&) { ++emitted; }, limits);
  EXPECT_EQ(got.status, RunStatus::kOutOfMemory);
  // The budget is run-wide: both shards together stay within it.
  EXPECT_LE(emitted, limits.max_intermediate_tuples);
}

TEST(Sharded, OneShardStreamsOutputOutsideTheBudget) {
  // One shard is sequential CLFTJ: it streams tuples into the callback
  // instead of buffering them, so only intermediate entries draw on the
  // materialization budget. The budget below fits the 2-path's
  // intermediates but not its output, which a buffering run would charge.
  Database db = testing::SmallSkewedDb(13, /*nodes=*/80, /*edges_per_node=*/4);
  const Query q = Q("E(x,y), E(y,z)");
  CachedTrieJoin one_shard = MakeSharded(1);
  const RunResult unbounded =
      one_shard.Evaluate(q, db, [](const Tuple&) {}, {});
  ASSERT_TRUE(unbounded.ok());
  RunLimits limits;
  limits.max_intermediate_tuples = unbounded.stats.intermediate_tuples;
  ASSERT_GT(unbounded.count, limits.max_intermediate_tuples);

  std::vector<Tuple> got;
  const RunResult run = one_shard.Evaluate(
      q, db, [&got](const Tuple& t) { got.push_back(t); }, limits);
  EXPECT_EQ(run.status, RunStatus::kOk);
  EXPECT_EQ(run.count, unbounded.count);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, testing::ReferenceTuples(q, db));
}

TEST(Sharded, MemoryAccessSumIsReportedAndSane) {
  Instance inst{Q("E(x,y), E(y,z), E(x,z)"), testing::SmallSkewedDb(42)};
  CacheOptions no_cache;
  no_cache.enabled = false;
  CachedTrieJoin::Options nocache_options;
  nocache_options.cache = no_cache;
  CachedTrieJoin nocache_single(nocache_options);
  const std::uint64_t nocache_accesses =
      nocache_single.Count(inst.query, inst.db, {}).stats.memory_accesses;

  const int threads = 4;
  CachedTrieJoin parallel = MakeSharded(threads);
  const RunResult got = parallel.Count(inst.query, inst.db, {});
  const std::uint64_t sum = got.stats.memory_accesses;
  EXPECT_GT(sum, 0u);
  // Private caches duplicate work the shared cache would have skipped, but
  // each shard's traversal is a sub-range of the cache-free traversal plus
  // bounded probe overhead: the sum can never blow past K cache-free runs.
  EXPECT_LE(sum, 3 * static_cast<std::uint64_t>(threads) * nocache_accesses +
                     1000u);
}

TEST(Sharded, RunOwnedStatsAreDeterministic) {
  // Each shard owns its cache, so a K-shard run's counters depend on the
  // shard split alone, never on how the workers interleave: repeated runs
  // must report the same stats token, which is what lets the bench gate
  // compare every CLFTJ-P record.
  Database db = testing::SmallSkewedDb(31, /*nodes=*/90, /*edges_per_node=*/4);
  const Query q = CycleQuery(5);
  for (const std::uint64_t capacity : {std::uint64_t{0}, std::uint64_t{16}}) {
    CacheOptions cache;
    cache.capacity = capacity;
    std::vector<std::string> count_wire;
    std::vector<std::string> eval_wire;
    for (int run = 0; run < 3; ++run) {
      CachedTrieJoin parallel = MakeSharded(4, cache);
      const RunResult counted = parallel.Count(q, db, {});
      ASSERT_TRUE(counted.ok());
      EXPECT_GT(counted.stats.cache_hits, 0u);
      count_wire.push_back(counted.stats.ToWire());
      const RunResult evaluated =
          parallel.Evaluate(q, db, [](const Tuple&) {}, {});
      ASSERT_TRUE(evaluated.ok());
      eval_wire.push_back(evaluated.stats.ToWire());
    }
    for (int run = 1; run < 3; ++run) {
      EXPECT_EQ(count_wire[run], count_wire[0]) << "capacity=" << capacity;
      EXPECT_EQ(eval_wire[run], eval_wire[0]) << "capacity=" << capacity;
    }
  }
}

}  // namespace
}  // namespace clftj
