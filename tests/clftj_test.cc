#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include "clftj/cache.h"
#include "clftj/cached_trie_join.h"
#include "clftj/factorized.h"
#include "clftj/semiring.h"
#include "lftj/trie_join.h"
#include "query/patterns.h"
#include "tests/test_util.h"

namespace clftj {
namespace {

using ::clftj::testing::CollectTuples;
using ::clftj::testing::Q;
using ::clftj::testing::ReferenceCount;
using ::clftj::testing::ReferenceTuples;
using ::clftj::testing::SmallBalancedDb;
using ::clftj::testing::SmallSkewedDb;

// The paper's running example (Example 3.1): query of Figure 3 over the
// complete bipartite R = {1,2} x {1,2}.
Query Fig3Query() {
  return Q("R(x1,x2), R(x2,x3), R(x2,x4), R(x3,x5), R(x4,x6)");
}

Database Fig3Database() {
  Database db;
  Relation r("R", 2);
  r.AddPair(1, 1);
  r.AddPair(1, 2);
  r.AddPair(2, 1);
  r.AddPair(2, 2);
  db.Put(std::move(r));
  return db;
}

TdPlan Fig3Plan(const Query& q, const Database& db) {
  TreeDecomposition td;
  const NodeId root = td.AddNode({0, 1}, kNone);      // {x1,x2}
  const NodeId v = td.AddNode({1, 2, 3}, root);       // {x2,x3,x4}
  td.AddNode({2, 4}, v);                              // {x3,x5}
  td.AddNode({3, 5}, v);                              // {x4,x6}
  return MakePlanFromTd(q, db, std::move(td));
}

TEST(Clftj, PaperExampleCountIs64) {
  const Query q = Fig3Query();
  const Database db = Fig3Database();
  CachedTrieJoin::Options options;
  options.plan = Fig3Plan(q, db);
  CachedTrieJoin engine(options);
  const RunResult r = engine.Count(q, db, {});
  // 4 choices of (x1,x2) x 16 assignments to x3..x6 each.
  EXPECT_EQ(r.count, 64u);
  // x2 takes each value twice, so the second encounter of each adhesion
  // assignment must hit (the paper's "value 16 is reused" narrative).
  EXPECT_GE(r.stats.cache_hits, 2u);
}

TEST(Clftj, PaperExampleEvaluation) {
  const Query q = Fig3Query();
  const Database db = Fig3Database();
  CachedTrieJoin::Options options;
  options.plan = Fig3Plan(q, db);
  CachedTrieJoin engine(options);
  EXPECT_EQ(CollectTuples(engine, q, db), ReferenceTuples(q, db));
}

// --- Property sweep: CLFTJ must agree with LFTJ everywhere ---

struct SweepCase {
  std::string label;
  Query query;
};

class ClftjAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

Query ZooQuery(int index) {
  switch (index) {
    case 0: return PathQuery(3);
    case 1: return PathQuery(4);
    case 2: return PathQuery(5);
    case 3: return CycleQuery(3);   // clique: CLFTJ degenerates to LFTJ
    case 4: return CycleQuery(4);
    case 5: return CycleQuery(5);
    case 6: return LollipopQuery(3, 2);
    case 7: return RandomPatternQuery(5, 0.4, 42);
    case 8: return RandomPatternQuery(5, 0.6, 43);
    default: return Q("E(x,y), E(y,z), E(z,x), E(z,w)");
  }
}

TEST_P(ClftjAgreementTest, CountAndEvalMatchLftj) {
  const auto [query_index, db_index] = GetParam();
  const Query q = ZooQuery(query_index);
  const Database db =
      db_index == 0 ? SmallSkewedDb(7, 50, 3) : SmallBalancedDb(8, 50, 110);
  LeapfrogTrieJoin lftj;
  CachedTrieJoin clftj;
  const std::uint64_t expected = lftj.Count(q, db, {}).count;
  EXPECT_EQ(clftj.Count(q, db, {}).count, expected);
  EXPECT_EQ(CollectTuples(clftj, q, db), CollectTuples(lftj, q, db));
}

INSTANTIATE_TEST_SUITE_P(
    QueryZoo, ClftjAgreementTest,
    ::testing::Combine(::testing::Range(0, 10), ::testing::Range(0, 2)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "q" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == 0 ? "_skewed" : "_balanced");
    });

// --- Cache policies preserve correctness ---

class CachePolicyTest : public ::testing::TestWithParam<int> {};

CacheOptions PolicyForIndex(int index) {
  CacheOptions options;
  switch (index) {
    case 0:  // cache everything, unbounded
      break;
    case 1:  // tiny LRU cache
      options.capacity = 4;
      options.eviction = CacheOptions::Eviction::kLru;
      break;
    case 2:  // tiny reject-on-full cache
      options.capacity = 4;
      options.eviction = CacheOptions::Eviction::kRejectNew;
      break;
    case 3:  // capacity one
      options.capacity = 1;
      break;
    case 4:  // support threshold admission
      options.admission = CacheOptions::Admission::kSupportThreshold;
      options.support_threshold = 3;
      break;
    case 5:  // threshold so high nothing is admitted
      options.admission = CacheOptions::Admission::kSupportThreshold;
      options.support_threshold = 1000000;
      break;
    case 6:  // caching disabled entirely
      options.enabled = false;
      break;
    default:  // only 1-dimensional caches
      options.max_dimension = 1;
      break;
  }
  return options;
}

TEST_P(CachePolicyTest, CountUnchangedUnderPolicy) {
  const Database db = SmallSkewedDb(21, 60, 3);
  CacheOptions cache = PolicyForIndex(GetParam());
  for (const Query& q : {PathQuery(5), CycleQuery(5), LollipopQuery(3, 2)}) {
    CachedTrieJoin::Options options;
    options.cache = cache;
    CachedTrieJoin engine(options);
    EXPECT_EQ(engine.Count(q, db, {}).count, ReferenceCount(q, db))
        << q.ToString() << " under " << cache.ToString();
  }
}

TEST_P(CachePolicyTest, EvalUnchangedUnderPolicy) {
  const Database db = SmallSkewedDb(23, 45, 2);
  CacheOptions cache = PolicyForIndex(GetParam());
  const Query q = CycleQuery(4);
  CachedTrieJoin::Options options;
  options.cache = cache;
  CachedTrieJoin engine(options);
  EXPECT_EQ(CollectTuples(engine, q, db), ReferenceTuples(q, db))
      << cache.ToString();
}

INSTANTIATE_TEST_SUITE_P(Policies, CachePolicyTest, ::testing::Range(0, 8));

TEST(Clftj, BoundedCacheRespectsCapacity) {
  const Database db = SmallSkewedDb(25, 80, 4);
  CachedTrieJoin::Options options;
  options.cache.capacity = 8;
  CachedTrieJoin engine(options);
  const RunResult r = engine.Count(PathQuery(5), db, {});
  EXPECT_LE(r.stats.cache_entries_peak, 8u);
  EXPECT_EQ(r.count, ReferenceCount(PathQuery(5), db));
}

TEST(Clftj, DisabledCacheDoesNoCacheWork) {
  const Database db = SmallSkewedDb(27, 40, 2);
  CachedTrieJoin::Options options;
  options.cache.enabled = false;
  CachedTrieJoin engine(options);
  const RunResult r = engine.Count(PathQuery(4), db, {});
  EXPECT_EQ(r.stats.cache_hits + r.stats.cache_misses +
                r.stats.cache_inserts,
            0u);
}

TEST(Clftj, CachingReducesMemoryAccessesOnSkewedData) {
  Database db;
  db.Put(PreferentialAttachmentGraph("E", 250, 4, 29));
  LeapfrogTrieJoin lftj;
  CachedTrieJoin clftj;
  const Query q = PathQuery(5);
  const RunResult plain = lftj.Count(q, db, {});
  const RunResult cached = clftj.Count(q, db, {});
  ASSERT_EQ(plain.count, cached.count);
  EXPECT_LT(cached.stats.memory_accesses, plain.stats.memory_accesses / 2)
      << "caching should cut memory traffic on skewed 5-paths";
}

TEST(Clftj, ZeroCountsAreCachedAndReused) {
  // A graph where many adhesion assignments have no extension: a star.
  Database db;
  Relation e("E", 2);
  for (Value leaf = 1; leaf <= 30; ++leaf) {
    e.AddPair(0, leaf);
    e.AddPair(leaf, 0);
  }
  db.Put(std::move(e));
  CachedTrieJoin engine;
  const Query q = CycleQuery(4);  // star has no 4-cycles
  const RunResult r = engine.Count(q, db, {});
  EXPECT_EQ(r.count, ReferenceCount(q, db));
}

TEST(Clftj, ExplicitPlanWithTwoOneDimCaches) {
  // {3,2}-lollipop with the paper's CS2 structure: triangle root bag, tail
  // split into two bags with 1-dimensional adhesions.
  const Query q = LollipopQuery(3, 2);
  const Database db = SmallSkewedDb(31, 50, 3);
  TreeDecomposition td;
  const NodeId root = td.AddNode({0, 1, 2}, kNone);
  const NodeId mid = td.AddNode({2, 3}, root);
  td.AddNode({3, 4}, mid);
  CachedTrieJoin::Options options;
  options.plan = MakePlanFromTd(q, db, std::move(td));
  CachedTrieJoin engine(options);
  EXPECT_EQ(engine.Count(q, db, {}).count, ReferenceCount(q, db));
}

TEST(Clftj, CacheableImpliesMaintainedAndEvalInsertIsReachable) {
  // Regression pin for the cacheable/maintain interplay: EvalRun's cache
  // insert lives inside its `entering && maintain[v]` block, so a node with
  // cacheable[v] && !maintain[v] would compute try_cache = true and then
  // silently never insert. CachedPlan::Build must make that state
  // unrepresentable (cacheable[v] implies maintain[v])...
  const Query q = Fig3Query();
  const Database db = Fig3Database();
  const TdPlan td_plan = Fig3Plan(q, db);
  const CachedPlan plan = CachedPlan::Build(q, db, td_plan, CacheOptions{});
  bool any_cacheable = false;
  for (std::size_t v = 0; v < plan.cacheable.size(); ++v) {
    if (plan.cacheable[v]) {
      any_cacheable = true;
      EXPECT_TRUE(plan.maintain[v])
          << "cacheable node " << v << " is not maintained";
    }
  }
  ASSERT_TRUE(any_cacheable) << "test query must have a cacheable node";
  // ...and an evaluation run over such a plan must actually populate and
  // reuse the cache (the insert is reachable, not just intended).
  CachedTrieJoin::Options options;
  options.plan = td_plan;
  CachedTrieJoin engine(options);
  const RunResult r =
      engine.Evaluate(q, db, [](const Tuple&) {}, RunLimits{});
  EXPECT_GT(r.stats.cache_inserts, 0u);
  EXPECT_GT(r.stats.cache_hits, 0u);
}

TEST(Clftj, WideAdhesionsAreNotCached) {
  // Cache keys hold at most two values (CacheOptions::max_dimension is
  // 0-2), so a node whose adhesion is wider is simply never cached. K4
  // with an explicit TD whose child bag shares three variables with the
  // root gives a 3-dimensional adhesion: the run is plain LFTJ over the
  // plan's order, with the reference count and tuples and no cache insert.
  const Query q = Q("E(a,b), E(a,c), E(b,c), E(a,d), E(b,d), E(c,d)");
  const Database db = SmallSkewedDb(41, 60, 3);
  TreeDecomposition td;
  const NodeId root = td.AddNode({0, 1, 2}, kNone);  // {a,b,c}
  td.AddNode({0, 1, 2, 3}, root);                    // {a,b,c,d}
  CachedTrieJoin::Options options;
  options.plan = MakePlanFromTd(q, db, std::move(td));
  CachedTrieJoin engine(options);
  const RunResult r = engine.Count(q, db, {});
  EXPECT_EQ(r.count, ReferenceCount(q, db));
  EXPECT_EQ(r.stats.cache_inserts, 0u);
  EXPECT_EQ(r.stats.cache_hits + r.stats.cache_misses, 0u);
  EXPECT_EQ(CollectTuples(engine, q, db), ReferenceTuples(q, db));
}

TEST(Clftj, TimeoutPropagates) {
  const Database db = SmallSkewedDb(33, 200, 8);
  CachedTrieJoin::Options options;
  options.cache.enabled = false;  // force the full traversal
  CachedTrieJoin engine(options);
  RunLimits limits;
  limits.timeout_seconds = 1e-9;
  const RunResult r = engine.Count(PathQuery(6), db, limits);
  EXPECT_EQ(r.status, RunStatus::kTimeout);
}

TEST(Clftj, EvalRowLimitTriggersOutOfMemory) {
  const Database db = SmallSkewedDb(35, 120, 6);
  CachedTrieJoin engine;
  RunLimits limits;
  limits.max_intermediate_tuples = 3;
  const RunResult r = engine.Evaluate(
      PathQuery(5), db, [](const Tuple&) {}, limits);
  EXPECT_EQ(r.status, RunStatus::kOutOfMemory);
}

TEST(Clftj, EmptyRelation) {
  Database db;
  db.Put(Relation("E", 2));
  CachedTrieJoin engine;
  EXPECT_EQ(engine.Count(CycleQuery(4), db, {}).count, 0u);
}

TEST(Clftj, ConstantsAndSelfLoops) {
  Database db;
  Relation e("E", 2);
  e.AddPair(1, 1);
  e.AddPair(1, 2);
  e.AddPair(2, 1);
  e.AddPair(2, 3);
  db.Put(std::move(e));
  CachedTrieJoin engine;
  for (const char* text : {"E(x,y), E(y,z), E(1,x)", "E(x,x), E(x,y)"}) {
    const Query q = Q(text);
    EXPECT_EQ(engine.Count(q, db, {}).count, ReferenceCount(q, db)) << text;
  }
}

TEST(Clftj, DisconnectedQueryUsesEmptyAdhesionCache) {
  Database db;
  Relation e("E", 2);
  e.AddPair(1, 2);
  e.AddPair(2, 3);
  e.AddPair(5, 6);
  db.Put(std::move(e));
  CachedTrieJoin engine;
  const Query q = Q("E(a,b), E(c,d)");
  EXPECT_EQ(engine.Count(q, db, {}).count, 9u);
}

// --- Grouped cache probes (docs/cache.md "Grouped probes") ---

// An atom's weight from its endpoint values, so brute force over the
// reference tuples and the engine agree without shared state.
double EndpointWeight(const Query& q, AtomId a, const Tuple& mu) {
  double w = 1.0;
  for (const Term& t : q.atom(a).terms) {
    if (t.is_variable) w += 0.01 * static_cast<double>(mu[t.var] % 13);
  }
  return w;
}

template <typename S>
typename S::Value BruteAggregate(const Query& q,
                                 const std::vector<Tuple>& tuples) {
  typename S::Value total = S::Zero();
  for (const Tuple& t : tuples) {
    typename S::Value prod = S::One();
    for (AtomId a = 0; a < q.num_atoms(); ++a) {
      prod = S::Times(prod, EndpointWeight(q, a, t));
    }
    total = S::Plus(total, prod);
  }
  return total;
}

// One whole-domain CountRun<S> weighted by EndpointWeight over the striped
// table `table`: the engine injects only count tables, so this is how a
// weighted aggregate runs cold and then warm against one persistent table.
template <typename S>
typename S::Value InjectedAggregate(const Query& q, const Database& db,
                                    StripedCacheManager<typename S::Value>*
                                        table) {
  const CachedPlan plan = CachedPlan::Resolve(q, db, std::nullopt,
                                              PlannerOptions{}, CacheOptions{});
  const TrieJoinSubstrate substrate(q, db, plan.order);
  if (substrate.HasEmptyAtom()) return S::Zero();
  AtomWeights<S> weights;
  weights.fn = [&q](AtomId a, const Tuple& mu) {
    return static_cast<typename S::Value>(EndpointWeight(q, a, mu));
  };
  weights.ending_at.resize(plan.order.size());
  for (AtomId a = 0; a < q.num_atoms(); ++a) {
    int last = 0;
    for (const VarId x : q.atom(a).Vars()) {
      last = std::max(last, plan.var_rank[x]);
    }
    weights.ending_at[last].push_back(a);
  }
  ExecStats stats;
  TrieJoinContext ctx(substrate, &stats);
  CountRun<S> run(plan, CacheOptions{}, &ctx, &stats, RunLimits{}, {},
                  nullptr, table, &weights);
  return run.Run();
}

// The cache budgets of the grouped-probe tests: unbounded, and 16 entries
// under each eviction policy.
std::vector<CacheOptions> GroupedProbeBudgets() {
  CacheOptions lru;
  lru.capacity = 16;
  lru.eviction = CacheOptions::Eviction::kLru;
  CacheOptions reject = lru;
  reject.eviction = CacheOptions::Eviction::kRejectNew;
  return {CacheOptions{}, lru, reject};
}

TEST(GroupedProbes, CountsAndAggregatesMatchTheReference) {
  // Every run probes its children's keys in groups wherever a depth's
  // variable is in the child's adhesion. At 1, 2 and 4 threads, unbounded
  // and under 16-entry LRU and reject-new budgets, counts and the four
  // weighted aggregates must equal LFTJ's count and the brute-force
  // aggregates over LFTJ's tuples; counts also through an injected table,
  // cold and then warm, and the weighted aggregates cold and warm over one
  // injected table of their own.
  const Database db = SmallSkewedDb(61, 45, 3);
  for (const Query& q :
       {CycleQuery(4), CycleQuery(5), PathQuery(4), LollipopQuery(3, 2),
        RandomPatternQuery(4, 0.6, 62), RandomPatternQuery(5, 0.5, 61),
        RandomPatternQuery(6, 0.4, 63)}) {
    SCOPED_TRACE(q.ToString());
    LeapfrogTrieJoin lftj;
    const std::uint64_t count = lftj.Count(q, db, {}).count;
    const std::vector<Tuple> tuples = CollectTuples(lftj, q, db);
    ASSERT_EQ(tuples.size(), count);
    const double real = BruteAggregate<RealSemiring>(q, tuples);
    const double heaviest = BruteAggregate<MaxPlusSemiring>(q, tuples);
    const double lightest = BruteAggregate<MinPlusSemiring>(q, tuples);
    const auto weight = [&q](AtomId a, const Tuple& mu) {
      return EndpointWeight(q, a, mu);
    };
    const double tolerance = 1e-9 * std::max(1.0, std::fabs(real));
    for (const int threads : {1, 2, 4}) {
      for (const CacheOptions& budget : GroupedProbeBudgets()) {
        SCOPED_TRACE(::testing::Message() << "threads " << threads << " "
                                          << budget.ToString());
        CachedTrieJoin::Options options;
        options.threads = threads;
        options.cache = budget;
        CachedTrieJoin engine(options);
        EXPECT_EQ(engine.Count(q, db, {}).count, count);
        EXPECT_EQ(engine.Aggregate<CountingSemiring>(q, db).value, count);
        EXPECT_NEAR(engine.Aggregate<RealSemiring>(q, db, weight).value, real,
                    tolerance);
        EXPECT_NEAR(engine.Aggregate<MaxPlusSemiring>(q, db, weight).value,
                    heaviest, 1e-9);
        EXPECT_NEAR(engine.Aggregate<MinPlusSemiring>(q, db, weight).value,
                    lightest, 1e-9);
        EXPECT_EQ(engine.Aggregate<BooleanSemiring>(q, db).value, count > 0);

        StripedCacheManager<std::uint64_t> table(budget, threads,
                                                 /*hot_reads=*/true);
        options.shared_count_cache = &table;
        CachedTrieJoin injected(options);
        EXPECT_EQ(injected.Count(q, db, {}).count, count) << "cold";
        EXPECT_EQ(injected.Count(q, db, {}).count, count) << "warm";
      }
    }
    StripedCacheManager<double> real_table(CacheOptions{}, 1, true);
    StripedCacheManager<double> max_table(CacheOptions{}, 1, true);
    StripedCacheManager<double> min_table(CacheOptions{}, 1, true);
    for (const char* pass : {"cold", "warm"}) {
      EXPECT_NEAR(InjectedAggregate<RealSemiring>(q, db, &real_table), real,
                  tolerance)
          << pass;
      EXPECT_NEAR(InjectedAggregate<MaxPlusSemiring>(q, db, &max_table),
                  heaviest, 1e-9)
          << pass;
      EXPECT_NEAR(InjectedAggregate<MinPlusSemiring>(q, db, &min_table),
                  lightest, 1e-9)
          << pass;
    }
  }
}

TEST(GroupedProbes, FullGroupsResumeWhereTheyLeftOff) {
  // A hub adjacent to every node gives the grouping depths sibling runs of
  // hundreds of values, so a loop fills many groups of kMaxLookupGroup in
  // a row and must resume each from the cursor saved past the last one.
  Relation e = PreferentialAttachmentGraph("E", 300, 3, /*seed=*/79);
  for (Value v = 1; v < 300; ++v) {
    e.AddPair(0, v);
    e.AddPair(v, 0);
  }
  Database db;
  db.Put(std::move(e));
  for (const Query& q : {CycleQuery(4), PathQuery(4), LollipopQuery(3, 2)}) {
    SCOPED_TRACE(q.ToString());
    LeapfrogTrieJoin lftj;
    const std::uint64_t count = lftj.Count(q, db, {}).count;
    for (const int threads : {1, 4}) {
      for (const CacheOptions& budget : GroupedProbeBudgets()) {
        CachedTrieJoin::Options options;
        options.threads = threads;
        options.cache = budget;
        CachedTrieJoin engine(options);
        EXPECT_EQ(engine.Count(q, db, {}).count, count)
            << threads << " " << budget.ToString();
        StripedCacheManager<std::uint64_t> table(budget, threads,
                                                 /*hot_reads=*/true);
        options.shared_count_cache = &table;
        CachedTrieJoin injected(options);
        EXPECT_EQ(injected.Count(q, db, {}).count, count) << "cold";
        EXPECT_EQ(injected.Count(q, db, {}).count, count) << "warm";
      }
    }
  }
}

TEST(GroupedProbes, ColdCountsProbeLikeTheOneKeyAtATimeEvalRun) {
  // A group's keys are distinct, so probing them before any of their
  // subtrees inserts loses no hit: over a private unbounded cache a cold
  // count must see exactly the hits, misses and inserts of an evaluation
  // of the same plan, which still probes one key at a time.
  const Database db = SmallSkewedDb(73, 60, 3);
  for (const Query& q :
       {CycleQuery(4), CycleQuery(5), PathQuery(5), LollipopQuery(3, 2),
        RandomPatternQuery(5, 0.5, 74), RandomPatternQuery(6, 0.4, 75)}) {
    CachedTrieJoin engine;
    const RunResult count = engine.Count(q, db, {});
    const RunResult eval = engine.Evaluate(q, db, [](const Tuple&) {}, {});
    ASSERT_EQ(count.count, eval.count) << q.ToString();
    EXPECT_EQ(count.stats.cache_hits, eval.stats.cache_hits) << q.ToString();
    EXPECT_EQ(count.stats.cache_misses, eval.stats.cache_misses)
        << q.ToString();
    EXPECT_EQ(count.stats.cache_inserts, eval.stats.cache_inserts)
        << q.ToString();
  }
}

TEST(GroupedProbes, WarmRunHitsEveryProbeOfTheColdRun) {
  // The 4-cycle's plan caches one node, entered once per root-bag tuple
  // whatever hits elsewhere, so a cold run's hits and misses together
  // count its probes; a warm run over the same unbounded table must hit
  // every one of them, probed in groups, at every thread count.
  const Database db = SmallSkewedDb(67, 80, 4);
  const Query q = CycleQuery(4);
  const CachedPlan plan = CachedPlan::Resolve(q, db, std::nullopt,
                                              PlannerOptions{}, CacheOptions{});
  ASSERT_EQ(std::count(plan.cacheable.begin(), plan.cacheable.end(), true), 1);
  for (const int threads : {1, 2, 4}) {
    StripedCacheManager<std::uint64_t> table(CacheOptions{}, threads,
                                             /*hot_reads=*/true);
    CachedTrieJoin::Options options;
    options.threads = threads;
    options.shared_count_cache = &table;
    CachedTrieJoin engine(options);
    const RunResult cold = engine.Count(q, db, {});
    const RunResult warm = engine.Count(q, db, {});
    EXPECT_GT(cold.stats.cache_misses, 0u) << threads;
    EXPECT_EQ(warm.stats.cache_hits,
              cold.stats.cache_hits + cold.stats.cache_misses)
        << threads;
    EXPECT_EQ(warm.stats.cache_misses, 0u) << threads;
    EXPECT_EQ(warm.stats.cache_inserts, 0u) << threads;
    EXPECT_EQ(warm.count, cold.count) << threads;
  }
}

TEST(GroupedProbes, TripsInsideAGroupEndWithATypedStatus) {
  // Weights are taken as each value is visited, which at the grouping
  // depth and below happens while a probe group is replayed. A weight
  // function that trips the run's cancel handle, or sleeps past its
  // deadline, on its 300th call therefore stops the run inside a group;
  // the run must still stop early with the typed status.
  const Database db = SmallSkewedDb(71, 300, 6);
  const Query q = CycleQuery(4);
  for (const int threads : {1, 4}) {
    CachedTrieJoin::Options options;
    options.threads = threads;
    CachedTrieJoin engine(options);
    const auto full = engine.Aggregate<RealSemiring>(
        q, db, [&q](AtomId a, const Tuple& mu) {
          return EndpointWeight(q, a, mu);
        });
    ASSERT_EQ(full.status, RunStatus::kOk);

    AbortFlag cancel;
    std::atomic<int> calls{0};
    RunLimits cancelled_limits;
    cancelled_limits.cancel = &cancel;
    const auto cancelled = engine.Aggregate<RealSemiring>(
        q, db,
        [&](AtomId a, const Tuple& mu) {
          if (calls.fetch_add(1) == 300) cancel.Trip(RunStatus::kCancelled);
          return EndpointWeight(q, a, mu);
        },
        cancelled_limits);
    EXPECT_EQ(cancelled.status, RunStatus::kCancelled) << threads;
    EXPECT_LT(cancelled.stats.memory_accesses, full.stats.memory_accesses)
        << threads;

    calls = 0;
    RunLimits timed_limits;
    timed_limits.timeout_seconds = 0.2;
    const auto timed = engine.Aggregate<RealSemiring>(
        q, db,
        [&](AtomId a, const Tuple& mu) {
          if (calls.fetch_add(1) == 300) {
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
          }
          return EndpointWeight(q, a, mu);
        },
        timed_limits);
    EXPECT_EQ(timed.status, RunStatus::kTimeout) << threads;
    EXPECT_LT(timed.stats.memory_accesses, full.stats.memory_accesses)
        << threads;
  }
}

// --- Factorized representation units ---

TEST(Factorized, CountOfFlatSet) {
  FactorizedSet set;
  set.node = 0;
  set.entries.push_back({{1}, {}});
  set.entries.push_back({{2}, {}});
  EXPECT_EQ(FactorizedCount(set), 2u);
}

TEST(Factorized, CountMultipliesChildren) {
  auto leaf = std::make_shared<FactorizedSet>();
  leaf->node = 1;
  leaf->entries.push_back({{10}, {}});
  leaf->entries.push_back({{11}, {}});
  FactorizedSet parent;
  parent.node = 0;
  parent.entries.push_back({{1}, {leaf}});
  parent.entries.push_back({{2}, {leaf}});
  EXPECT_EQ(FactorizedCount(parent), 4u);
}

TEST(Factorized, NullChildMeansZero) {
  FactorizedSet parent;
  parent.node = 0;
  parent.entries.push_back({{1}, {nullptr}});
  EXPECT_EQ(FactorizedCount(parent), 0u);
}

TEST(Factorized, ExpansionMatchesEvalOutput) {
  // End to end: evaluation through a cache-heavy run must produce exactly
  // the reference tuples (expansion correctness is implied), including on a
  // database engineered for many cache hits.
  Database db;
  Relation e("E", 2);
  for (Value hub = 0; hub < 3; ++hub) {
    for (Value leaf = 10; leaf < 16; ++leaf) {
      e.AddPair(hub, leaf);
      e.AddPair(leaf, hub);
    }
  }
  db.Put(std::move(e));
  const Query q = PathQuery(4);
  CachedTrieJoin engine;
  const auto got = CollectTuples(engine, q, db);
  EXPECT_EQ(got, ReferenceTuples(q, db));
  ASSERT_FALSE(got.empty());
}

}  // namespace
}  // namespace clftj
