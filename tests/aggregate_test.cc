#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "clftj/cache.h"
#include "clftj/cached_trie_join.h"
#include "clftj/semiring.h"
#include "query/patterns.h"
#include "tests/test_util.h"

namespace clftj {
namespace {

using ::clftj::testing::Q;
using ::clftj::testing::ReferenceTuples;
using ::clftj::testing::SmallBalancedDb;
using ::clftj::testing::SmallSkewedDb;

// Edge weight derived deterministically from the atom's endpoint values so
// brute force and the engine agree without shared state.
double EdgeWeight(const Query& q, AtomId a, const Tuple& mu) {
  double w = 1.0;
  for (const Term& t : q.atom(a).terms) {
    if (t.is_variable) w += 0.01 * static_cast<double>(mu[t.var] % 17);
  }
  return w;
}

// Brute-force semiring aggregate over the reference tuple set.
template <typename S>
typename S::Value BruteAggregate(const Query& q, const Database& db) {
  typename S::Value total = S::Zero();
  for (const Tuple& t : ReferenceTuples(q, db)) {
    typename S::Value prod = S::One();
    for (AtomId a = 0; a < q.num_atoms(); ++a) {
      prod = S::Times(prod, static_cast<typename S::Value>(
                                EdgeWeight(q, a, t)));
    }
    total = S::Plus(total, prod);
  }
  return total;
}

TEST(Aggregate, CountingSemiringMatchesCount) {
  // Count is the unweighted CountingSemiring run, so the aggregate matches
  // it in value, memory accesses and cache traffic at every thread count.
  const Database db = SmallSkewedDb(101, 50, 3);
  for (const int threads : {1, 2, 4}) {
    for (const std::uint64_t capacity : {0, 16}) {
      CachedTrieJoin::Options options;
      options.threads = threads;
      options.cache.capacity = capacity;
      CachedTrieJoin engine(options);
      for (const Query& q :
           {PathQuery(4), CycleQuery(4), LollipopQuery(3, 2)}) {
        const RunResult count = engine.Count(q, db, {});
        const auto agg = engine.Aggregate<CountingSemiring>(q, db);
        const ExecStats& a = agg.stats;
        const ExecStats& c = count.stats;
        EXPECT_EQ(agg.status, RunStatus::kOk);
        EXPECT_EQ(agg.value, count.count) << q.ToString();
        EXPECT_EQ(a.memory_accesses, c.memory_accesses) << q.ToString();
        EXPECT_EQ(a.cache_hits, c.cache_hits) << q.ToString();
        EXPECT_EQ(a.cache_misses, c.cache_misses) << q.ToString();
        EXPECT_EQ(a.cache_inserts, c.cache_inserts) << q.ToString();
        EXPECT_EQ(a.cache_rejects, c.cache_rejects) << q.ToString();
        EXPECT_EQ(a.cache_evictions, c.cache_evictions) << q.ToString();
        EXPECT_EQ(a.cache_entries_peak, c.cache_entries_peak) << q.ToString();
        EXPECT_EQ(a.cache_bytes_peak, c.cache_bytes_peak) << q.ToString();
      }
    }
  }
}

TEST(Aggregate, NeverTouchesTheInjectedCountCache) {
  // Aggregate entries are weighted values, so an aggregate must neither
  // read nor fill the serving loop's persistent count table.
  const Database db = SmallSkewedDb(101, 50, 3);
  const Query q = PathQuery(4);
  StripedCacheManager<std::uint64_t> table(CacheOptions{}, /*workers=*/1);
  CachedTrieJoin::Options options;
  options.shared_count_cache = &table;
  CachedTrieJoin engine(options);
  const auto agg = engine.Aggregate<CountingSemiring>(q, db);
  EXPECT_EQ(table.size(), 0u);
  const ExecStats table_stats = table.AggregatedStats();
  EXPECT_EQ(table_stats.cache_hits + table_stats.cache_misses, 0u);
  EXPECT_GT(agg.stats.cache_inserts, 0u) << "the run's own cache is used";
  EXPECT_EQ(agg.value, engine.Count(q, db, {}).count);
}

TEST(Aggregate, RealSemiringMatchesBruteForce) {
  const Database db = SmallSkewedDb(103, 40, 2);
  for (const Query& q : {PathQuery(3), PathQuery(4), CycleQuery(4)}) {
    CachedTrieJoin engine;
    const double got = engine
                           .Aggregate<RealSemiring>(
                               q, db,
                               [&q](AtomId a, const Tuple& mu) {
                                 return EdgeWeight(q, a, mu);
                               })
                           .value;
    const double expected = BruteAggregate<RealSemiring>(q, db);
    EXPECT_NEAR(got, expected, 1e-6 * std::max(1.0, std::fabs(expected)))
        << q.ToString();
  }
}

TEST(Aggregate, MaxPlusFindsHeaviestInstance) {
  const Database db = SmallSkewedDb(105, 40, 2);
  const Query q = PathQuery(4);
  CachedTrieJoin engine;
  const double got = engine
                         .Aggregate<MaxPlusSemiring>(q, db,
                                        [&q](AtomId a, const Tuple& mu) {
                                          return EdgeWeight(q, a, mu);
                                        })
                         .value;
  // Brute force: max over tuples of the sum of atom weights.
  double expected = -std::numeric_limits<double>::infinity();
  for (const Tuple& t : ReferenceTuples(q, db)) {
    double sum = 0;
    for (AtomId a = 0; a < q.num_atoms(); ++a) sum += EdgeWeight(q, a, t);
    expected = std::max(expected, sum);
  }
  EXPECT_NEAR(got, expected, 1e-9);
}

TEST(Aggregate, MinPlusFindsLightestInstance) {
  const Database db = SmallSkewedDb(107, 40, 2);
  const Query q = CycleQuery(4);
  CachedTrieJoin engine;
  const double got = engine
                         .Aggregate<MinPlusSemiring>(q, db,
                                        [&q](AtomId a, const Tuple& mu) {
                                          return EdgeWeight(q, a, mu);
                                        })
                         .value;
  double expected = std::numeric_limits<double>::infinity();
  for (const Tuple& t : ReferenceTuples(q, db)) {
    double sum = 0;
    for (AtomId a = 0; a < q.num_atoms(); ++a) sum += EdgeWeight(q, a, t);
    expected = std::min(expected, sum);
  }
  EXPECT_NEAR(got, expected, 1e-9);
}

TEST(Aggregate, BooleanSemiringIsSatisfiability) {
  Database db;
  Relation e("E", 2);
  e.AddPair(1, 2);
  e.AddPair(2, 3);
  db.Put(std::move(e));
  CachedTrieJoin engine;
  EXPECT_TRUE(engine.Aggregate<BooleanSemiring>(Q("E(x,y), E(y,z)"), db).value);
  EXPECT_FALSE(
      engine.Aggregate<BooleanSemiring>(Q("E(x,y), E(y,x)"), db).value);
}

TEST(Aggregate, EmptySemiringResultIsZero) {
  Database db;
  db.Put(Relation("E", 2));
  CachedTrieJoin engine;
  EXPECT_EQ(engine.Aggregate<RealSemiring>(PathQuery(3), db).value, 0.0);
}

TEST(Aggregate, CachePoliciesPreserveAggregates) {
  const Database db = SmallSkewedDb(109, 45, 3);
  const Query q = PathQuery(5);
  const auto weight = [&q](AtomId a, const Tuple& mu) {
    return EdgeWeight(q, a, mu);
  };
  CachedTrieJoin unbounded;
  const double expected =
      unbounded.Aggregate<RealSemiring>(q, db, weight).value;
  for (int policy = 0; policy < 3; ++policy) {
    CachedTrieJoin::Options options;
    switch (policy) {
      case 0:
        options.cache.capacity = 4;
        options.cache.eviction = CacheOptions::Eviction::kLru;
        break;
      case 1:
        options.cache.enabled = false;
        break;
      default:
        options.cache.admission = CacheOptions::Admission::kSupportThreshold;
        options.cache.support_threshold = 4;
        break;
    }
    CachedTrieJoin engine(options);
    const double got = engine.Aggregate<RealSemiring>(q, db, weight).value;
    EXPECT_NEAR(got, expected, 1e-6 * std::max(1.0, std::fabs(expected)))
        << "policy " << policy;
  }
}

TEST(Aggregate, ExplicitPlanHonored) {
  const Database db = SmallSkewedDb(111, 40, 2);
  const Query q = PathQuery(4);
  CachedTrieJoin::Options options;
  TreeDecomposition td;
  const NodeId root = td.AddNode({0, 1}, kNone);
  const NodeId mid = td.AddNode({1, 2}, root);
  td.AddNode({2, 3}, mid);
  options.plan = MakePlanFromTd(q, db, std::move(td));
  CachedTrieJoin engine(options);
  CachedTrieJoin counter;
  EXPECT_EQ(engine.Aggregate<CountingSemiring>(q, db).value,
            counter.Count(q, db, {}).count);
}

TEST(Aggregate, TimeoutReported) {
  const Database db = SmallSkewedDb(113, 200, 8);
  CachedTrieJoin::Options options;
  options.cache.enabled = false;
  CachedTrieJoin engine(options);
  RunLimits limits;
  limits.timeout_seconds = 1e-9;
  EXPECT_EQ(
      engine.Aggregate<CountingSemiring>(PathQuery(6), db, nullptr, limits)
          .status,
      RunStatus::kTimeout);
}

TEST(Aggregate, PreCancelledRunReportsCancelled) {
  // A cancel handle tripped before the run starts stops every shard at its
  // first deadline check, and the run reports the trip's reason.
  const Database db = SmallSkewedDb(113, 60, 3);
  const Query q = PathQuery(5);
  const auto weight = [&q](AtomId a, const Tuple& mu) {
    return EdgeWeight(q, a, mu);
  };
  AbortFlag cancel;
  cancel.Trip(RunStatus::kCancelled);
  RunLimits limits;
  limits.cancel = &cancel;
  for (const int threads : {1, 4}) {
    CachedTrieJoin::Options options;
    options.threads = threads;
    CachedTrieJoin engine(options);
    const auto full = engine.Aggregate<RealSemiring>(q, db, weight);
    const auto cancelled =
        engine.Aggregate<RealSemiring>(q, db, weight, limits);
    EXPECT_EQ(full.status, RunStatus::kOk);
    EXPECT_EQ(cancelled.status, RunStatus::kCancelled) << threads;
    EXPECT_LT(cancelled.stats.memory_accesses, full.stats.memory_accesses)
        << threads;
  }
}

TEST(Aggregate, ShardedAggregatesMatchOneThread) {
  // Shards are contiguous first-variable ranges combined with S::Plus in
  // shard order, so max/min/or aggregates are exact at every thread count
  // and sums agree up to floating-point reassociation.
  const Database db = SmallSkewedDb(117, 60, 3);
  for (const Query& q : {PathQuery(4), CycleQuery(4)}) {
    const auto weight = [&q](AtomId a, const Tuple& mu) {
      return EdgeWeight(q, a, mu);
    };
    CachedTrieJoin one;
    const double real = one.Aggregate<RealSemiring>(q, db, weight).value;
    const double heaviest =
        one.Aggregate<MaxPlusSemiring>(q, db, weight).value;
    const double lightest =
        one.Aggregate<MinPlusSemiring>(q, db, weight).value;
    const bool any = one.Aggregate<BooleanSemiring>(q, db).value;
    for (const int threads : {2, 4}) {
      CachedTrieJoin::Options options;
      options.threads = threads;
      CachedTrieJoin sharded(options);
      EXPECT_NEAR(sharded.Aggregate<RealSemiring>(q, db, weight).value, real,
                  1e-9 * std::max(1.0, std::fabs(real)))
          << q.ToString() << " threads=" << threads;
      EXPECT_EQ(sharded.Aggregate<MaxPlusSemiring>(q, db, weight).value,
                heaviest)
          << q.ToString() << " threads=" << threads;
      EXPECT_EQ(sharded.Aggregate<MinPlusSemiring>(q, db, weight).value,
                lightest)
          << q.ToString() << " threads=" << threads;
      EXPECT_EQ(sharded.Aggregate<BooleanSemiring>(q, db).value, any)
          << q.ToString() << " threads=" << threads;
    }
  }
}

TEST(Aggregate, CachingActuallyHappens) {
  const Database db = SmallSkewedDb(115, 60, 3);
  CachedTrieJoin engine;
  const Query q = PathQuery(5);
  const auto result = engine.Aggregate<RealSemiring>(
      q, db,
      [&q](AtomId a, const Tuple& mu) { return EdgeWeight(q, a, mu); });
  EXPECT_GT(result.stats.cache_hits, 0u);
}

}  // namespace
}  // namespace clftj
