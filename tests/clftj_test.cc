#include <gtest/gtest.h>

#include <tuple>

#include "clftj/cached_trie_join.h"
#include "clftj/factorized.h"
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
