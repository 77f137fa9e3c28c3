#include <gtest/gtest.h>

#include <numeric>

#include "lftj/trie_join.h"
#include "query/patterns.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace clftj {
namespace {

using ::clftj::testing::CollectTuples;
using ::clftj::testing::Q;
using ::clftj::testing::ReferenceCount;
using ::clftj::testing::ReferenceTuples;
using ::clftj::testing::SmallBalancedDb;
using ::clftj::testing::SmallSkewedDb;

TEST(Lftj, TriangleCountOnTinyGraph) {
  Database db;
  Relation e("E", 2);
  // A triangle 1-2-3 plus a pendant edge, symmetric closure.
  for (const auto& [a, b] : std::vector<std::pair<Value, Value>>{
           {1, 2}, {2, 3}, {1, 3}, {3, 4}}) {
    e.AddPair(a, b);
    e.AddPair(b, a);
  }
  db.Put(std::move(e));
  LeapfrogTrieJoin lftj;
  // Each undirected triangle is counted 6 times (orderings).
  EXPECT_EQ(lftj.Count(CliqueQuery(3), db, {}).count, 6u);
}

TEST(Lftj, PathCountMatchesHandComputation) {
  Database db;
  Relation e("E", 2);
  e.AddPair(1, 2);
  e.AddPair(2, 3);
  e.AddPair(2, 4);
  db.Put(std::move(e));
  LeapfrogTrieJoin lftj;
  // Directed 2-paths: 1->2->3, 1->2->4.
  EXPECT_EQ(lftj.Count(Q("E(x,y), E(y,z)"), db, {}).count, 2u);
}

TEST(Lftj, CountMatchesReferenceOnQueryZoo) {
  const Database skewed = SmallSkewedDb(5);
  const Database balanced = SmallBalancedDb(6);
  LeapfrogTrieJoin lftj;
  for (const Database* db : {&skewed, &balanced}) {
    for (const Query& q :
         {PathQuery(3), PathQuery(4), CycleQuery(3), CycleQuery(4),
          LollipopQuery(3, 1), RandomPatternQuery(4, 0.5, 3)}) {
      EXPECT_EQ(lftj.Count(q, *db, {}).count, ReferenceCount(q, *db))
          << q.ToString();
    }
  }
}

TEST(Lftj, EvaluateMatchesReferenceTuples) {
  const Database db = SmallSkewedDb(11, 40, 2);
  LeapfrogTrieJoin lftj;
  for (const Query& q : {PathQuery(3), CycleQuery(4)}) {
    EXPECT_EQ(CollectTuples(lftj, q, db), ReferenceTuples(q, db))
        << q.ToString();
  }
}

TEST(Lftj, CountInvariantUnderVariableOrder) {
  const Database db = SmallSkewedDb(13, 50, 3);
  const Query q = CycleQuery(4);
  std::vector<VarId> order(q.num_vars());
  std::iota(order.begin(), order.end(), 0);
  const std::uint64_t expected =
      LeapfrogTrieJoin().Count(q, db, {}).count;
  // All 24 permutations must give the same count.
  std::sort(order.begin(), order.end());
  do {
    LeapfrogTrieJoin::Options options;
    options.order = order;
    LeapfrogTrieJoin engine(options);
    EXPECT_EQ(engine.Count(q, db, {}).count, expected);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(Lftj, EmptyRelationYieldsZero) {
  Database db;
  db.Put(Relation("E", 2));
  LeapfrogTrieJoin lftj;
  EXPECT_EQ(lftj.Count(PathQuery(3), db, {}).count, 0u);
}

TEST(Lftj, ConstantsInAtoms) {
  Database db;
  Relation e("E", 2);
  e.AddPair(1, 2);
  e.AddPair(1, 3);
  e.AddPair(2, 3);
  db.Put(std::move(e));
  LeapfrogTrieJoin lftj;
  EXPECT_EQ(lftj.Count(Q("E(1,y), E(y,z)"), db, {}).count, 1u);  // 1->2->3
  EXPECT_EQ(lftj.Count(Q("E(x,y), E(1,2)"), db, {}).count, 3u);  // guard true
  EXPECT_EQ(lftj.Count(Q("E(x,y), E(3,1)"), db, {}).count, 0u);  // guard false
}

TEST(Lftj, RepeatedVariableInAtom) {
  Database db;
  Relation e("E", 2);
  e.AddPair(1, 1);
  e.AddPair(1, 2);
  e.AddPair(2, 2);
  db.Put(std::move(e));
  LeapfrogTrieJoin lftj;
  // Self loops joined with outgoing edges.
  const std::uint64_t got = lftj.Count(Q("E(x,x), E(x,y)"), db, {}).count;
  EXPECT_EQ(got, ReferenceCount(Q("E(x,x), E(x,y)"), db));
  EXPECT_EQ(got, 3u);  // (1,1),(1,2),(2,2)
}

TEST(Lftj, DisconnectedQueryIsCrossProduct) {
  Database db;
  Relation e("E", 2);
  e.AddPair(1, 2);
  e.AddPair(3, 4);
  db.Put(std::move(e));
  LeapfrogTrieJoin lftj;
  EXPECT_EQ(lftj.Count(Q("E(a,b), E(c,d)"), db, {}).count, 4u);
}

TEST(Lftj, SelfJoinWithTwoRelations) {
  Database db;
  Relation r("R", 2);
  r.AddPair(1, 2);
  r.AddPair(2, 3);
  db.Put(std::move(r));
  Relation s("S", 2);
  s.AddPair(2, 9);
  db.Put(std::move(s));
  LeapfrogTrieJoin lftj;
  EXPECT_EQ(lftj.Count(Q("R(x,y), S(y,z)"), db, {}).count, 1u);
}

TEST(Lftj, TernaryRelation) {
  Database db;
  Relation t("T", 3);
  t.Add({1, 2, 3});
  t.Add({1, 2, 4});
  t.Add({2, 2, 3});
  db.Put(std::move(t));
  LeapfrogTrieJoin lftj;
  const Query q = Q("T(a,b,c), T(c,b,d)");
  EXPECT_EQ(lftj.Count(q, db, {}).count, ReferenceCount(q, db));
}

TEST(Lftj, TimeoutReportsPartialRun) {
  const Database db = SmallSkewedDb(17, 200, 8);
  LeapfrogTrieJoin lftj;
  RunLimits limits;
  limits.timeout_seconds = 1e-9;  // expire immediately
  const RunResult r = lftj.Count(PathQuery(6), db, limits);
  EXPECT_EQ(r.status, RunStatus::kTimeout);
  EXPECT_FALSE(r.ok());
}

TEST(Lftj, StatsCountOutputsAndAccesses) {
  const Database db = SmallSkewedDb(19, 40, 2);
  LeapfrogTrieJoin lftj;
  const RunResult r = lftj.Count(PathQuery(3), db, {});
  EXPECT_EQ(r.stats.output_tuples, r.count);
  EXPECT_GT(r.stats.memory_accesses, 0u);
}

TEST(Lftj, EvaluateEmitsVarIdIndexedTuples) {
  Database db;
  Relation e("E", 2);
  e.AddPair(7, 8);
  db.Put(std::move(e));
  LeapfrogTrieJoin lftj;
  const Query q = Q("E(x,y)");
  std::vector<Tuple> got;
  lftj.Evaluate(q, db, [&got](const Tuple& t) { got.push_back(t); }, {});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0][q.FindVariable("x")], 7);
  EXPECT_EQ(got[0][q.FindVariable("y")], 8);
}

}  // namespace
}  // namespace clftj
