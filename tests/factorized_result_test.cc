#include <gtest/gtest.h>

#include <algorithm>

#include "clftj/cached_trie_join.h"
#include "clftj/factorized.h"
#include "query/patterns.h"
#include "tests/test_util.h"

namespace clftj {
namespace {

using ::clftj::testing::Q;
using ::clftj::testing::ReferenceTuples;
using ::clftj::testing::SmallBalancedDb;
using ::clftj::testing::SmallSkewedDb;

std::vector<Tuple> EnumerateSorted(const FactorizedQueryResult& result) {
  std::vector<Tuple> out;
  result.Enumerate([&out](const Tuple& t) { out.push_back(t); });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(FactorizedResult, CountMatchesFlatEvaluation) {
  const Database db = SmallSkewedDb(201, 50, 3);
  for (const Query& q : {PathQuery(3), PathQuery(4), CycleQuery(4),
                         LollipopQuery(3, 2)}) {
    CachedTrieJoin engine;
    RunResult run;
    const auto result = engine.EvaluateFactorized(q, db, {}, &run);
    ASSERT_TRUE(result.has_value()) << q.ToString();
    EXPECT_EQ(result->Count(), engine.Count(q, db, {}).count) << q.ToString();
    EXPECT_EQ(run.count, result->Count());
  }
}

TEST(FactorizedResult, EnumerationMatchesReference) {
  const Database db = SmallSkewedDb(203, 40, 2);
  for (const Query& q : {PathQuery(3), PathQuery(4), CycleQuery(4)}) {
    CachedTrieJoin engine;
    RunResult run;
    const auto result = engine.EvaluateFactorized(q, db, {}, &run);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(EnumerateSorted(*result), ReferenceTuples(q, db))
        << q.ToString();
  }
}

TEST(FactorizedResult, RepresentationIsSmallerThanFlatOutput) {
  // On a skewed graph, a 5-path's factorized representation must be much
  // smaller than the flat result — that is the point of factorization.
  Database db;
  db.Put(PreferentialAttachmentGraph("E", 200, 4, 205));
  const Query q = PathQuery(5);
  CachedTrieJoin engine;
  RunResult run;
  const auto result = engine.EvaluateFactorized(q, db, {}, &run);
  ASSERT_TRUE(result.has_value());
  ASSERT_GT(result->Count(), 0u);
  EXPECT_LT(result->NumEntries(), result->Count() / 4)
      << "factorization should compress the result";
}

TEST(FactorizedResult, EmptyResult) {
  Database db;
  db.Put(Relation("E", 2));
  CachedTrieJoin engine;
  RunResult run;
  const auto result = engine.EvaluateFactorized(PathQuery(3), db, {}, &run);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->Count(), 0u);
  std::uint64_t emitted = 0;
  result->Enumerate([&emitted](const Tuple&) { ++emitted; });
  EXPECT_EQ(emitted, 0u);
}

TEST(FactorizedResult, RowLimitReturnsNullopt) {
  const Database db = SmallSkewedDb(207, 120, 6);
  CachedTrieJoin engine;
  RunLimits limits;
  limits.max_intermediate_tuples = 3;
  RunResult run;
  const auto result =
      engine.EvaluateFactorized(PathQuery(5), db, limits, &run);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(run.status, RunStatus::kOutOfMemory);
}

TEST(FactorizedResult, WorksOnCliquesViaSingletonTd) {
  const Database db = SmallSkewedDb(209, 40, 3);
  const Query q = CliqueQuery(3);
  CachedTrieJoin engine;
  RunResult run;
  const auto result = engine.EvaluateFactorized(q, db, {}, &run);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(EnumerateSorted(*result), ReferenceTuples(q, db));
}

TEST(FactorizedResult, TupleBufferIsVarIdIndexed) {
  Database db;
  Relation e("E", 2);
  e.AddPair(7, 8);
  e.AddPair(8, 9);
  db.Put(std::move(e));
  const Query q = Q("E(x,y), E(y,z)");
  CachedTrieJoin engine;
  RunResult run;
  const auto result = engine.EvaluateFactorized(q, db, {}, &run);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->Count(), 1u);
  result->Enumerate([&q](const Tuple& t) {
    EXPECT_EQ(t[q.FindVariable("x")], 7);
    EXPECT_EQ(t[q.FindVariable("y")], 8);
    EXPECT_EQ(t[q.FindVariable("z")], 9);
  });
}

}  // namespace
}  // namespace clftj
