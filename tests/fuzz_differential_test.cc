// Randomized differential testing: every engine must agree with every
// other on randomly generated (query, database) instances. This is the
// broadest correctness net in the suite — any divergence in trie
// construction, leapfrog alignment, TD planning, caching, semijoin
// reduction or hash indexing shows up as a count/tuple mismatch.

#include <gtest/gtest.h>

#include "baseline/generic_join.h"
#include "baseline/hash_join.h"
#include "clftj/cached_trie_join.h"
#include "lftj/trie_join.h"
#include "query/patterns.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "yannakakis/ytd.h"

namespace clftj {
namespace {

using ::clftj::testing::CollectTuples;

struct Instance {
  Query query;
  Database db;
};

Instance MakeInstance(std::uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  const int num_vars = 3 + static_cast<int>(rng.Uniform(4));       // 3..6
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

class FuzzDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzDifferentialTest, AllEnginesAgreeOnCount) {
  const Instance inst = MakeInstance(GetParam());
  LeapfrogTrieJoin lftj;
  const std::uint64_t anchor = lftj.Count(inst.query, inst.db, {}).count;

  CachedTrieJoin clftj;
  EXPECT_EQ(clftj.Count(inst.query, inst.db, {}).count, anchor)
      << inst.query.ToString();
  YannakakisTd ytd;
  EXPECT_EQ(ytd.Count(inst.query, inst.db, {}).count, anchor)
      << inst.query.ToString();
  GenericJoin gj;
  EXPECT_EQ(gj.Count(inst.query, inst.db, {}).count, anchor)
      << inst.query.ToString();
  PairwiseHashJoin hj;
  EXPECT_EQ(hj.Count(inst.query, inst.db, {}).count, anchor)
      << inst.query.ToString();
  EXPECT_EQ(clftj.Aggregate<CountingSemiring>(inst.query, inst.db).value,
            anchor)
      << inst.query.ToString();
}

TEST_P(FuzzDifferentialTest, EvalTuplesAgree) {
  const Instance inst = MakeInstance(GetParam());
  LeapfrogTrieJoin lftj;
  const auto anchor = CollectTuples(lftj, inst.query, inst.db);
  CachedTrieJoin clftj;
  EXPECT_EQ(CollectTuples(clftj, inst.query, inst.db), anchor)
      << inst.query.ToString();
  YannakakisTd ytd;
  EXPECT_EQ(CollectTuples(ytd, inst.query, inst.db), anchor)
      << inst.query.ToString();
}

TEST_P(FuzzDifferentialTest, FactorizedResultAgrees) {
  const Instance inst = MakeInstance(GetParam());
  CachedTrieJoin clftj;
  RunResult run;
  const auto fact = clftj.EvaluateFactorized(inst.query, inst.db, {}, &run);
  ASSERT_TRUE(fact.has_value());
  LeapfrogTrieJoin lftj;
  EXPECT_EQ(fact->Count(), lftj.Count(inst.query, inst.db, {}).count)
      << inst.query.ToString();
}

TEST_P(FuzzDifferentialTest, EveryEnumeratedPlanGivesTheSameCount) {
  const Instance inst = MakeInstance(GetParam());
  LeapfrogTrieJoin lftj;
  const std::uint64_t anchor = lftj.Count(inst.query, inst.db, {}).count;
  for (const TdPlan& plan : EnumeratePlans(inst.query, inst.db)) {
    CachedTrieJoin::Options options;
    options.plan = plan;
    CachedTrieJoin engine(options);
    EXPECT_EQ(engine.Count(inst.query, inst.db, {}).count, anchor)
        << inst.query.ToString() << " with TD "
        << plan.td.ToString(inst.query);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferentialTest,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace clftj
