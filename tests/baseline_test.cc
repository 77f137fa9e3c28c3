#include <gtest/gtest.h>

#include "baseline/generic_join.h"
#include "baseline/hash_join.h"
#include "baseline/nested_loop.h"
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

TEST(NestedLoop, HandComputedJoin) {
  Database db;
  Relation r("R", 2);
  r.AddPair(1, 2);
  r.AddPair(2, 3);
  r.AddPair(2, 4);
  db.Put(std::move(r));
  NestedLoopJoin nl;
  EXPECT_EQ(nl.Count(Q("R(x,y), R(y,z)"), db, {}).count, 2u);
}

TEST(NestedLoop, ConstantsAndRepeatedVars) {
  Database db;
  Relation r("R", 2);
  r.AddPair(1, 1);
  r.AddPair(1, 2);
  db.Put(std::move(r));
  NestedLoopJoin nl;
  EXPECT_EQ(nl.Count(Q("R(x,x)"), db, {}).count, 1u);
  EXPECT_EQ(nl.Count(Q("R(1,y)"), db, {}).count, 2u);
  EXPECT_EQ(nl.Count(Q("R(2,y)"), db, {}).count, 0u);
}

TEST(NestedLoop, TimeoutStopsRun) {
  const Database db = SmallSkewedDb(61, 200, 6);
  NestedLoopJoin nl;
  RunLimits limits;
  limits.timeout_seconds = 1e-9;
  EXPECT_EQ(nl.Count(PathQuery(6), db, limits).status, RunStatus::kTimeout);
}

TEST(PairwiseHJ, CountMatchesReferenceOnZoo) {
  const Database skewed = SmallSkewedDb(63, 50, 3);
  const Database balanced = SmallBalancedDb(65, 50, 110);
  PairwiseHashJoin engine;
  for (const Database* db : {&skewed, &balanced}) {
    for (const Query& q :
         {PathQuery(3), PathQuery(4), CycleQuery(3), CycleQuery(4),
          LollipopQuery(3, 1), RandomPatternQuery(5, 0.5, 8)}) {
      EXPECT_EQ(engine.Count(q, *db, {}).count, ReferenceCount(q, *db))
          << q.ToString();
    }
  }
}

TEST(PairwiseHJ, EvaluateMatchesReference) {
  const Database db = SmallSkewedDb(67, 40, 2);
  PairwiseHashJoin engine;
  for (const Query& q : {PathQuery(3), CycleQuery(4)}) {
    EXPECT_EQ(CollectTuples(engine, q, db), ReferenceTuples(q, db))
        << q.ToString();
  }
}

TEST(PairwiseHJ, MaterializesIntermediates) {
  const Database db = SmallSkewedDb(69, 60, 3);
  PairwiseHashJoin engine;
  const RunResult r = engine.Count(PathQuery(4), db, {});
  EXPECT_GT(r.stats.intermediate_tuples, 0u)
      << "pairwise joins must materialize intermediate results";
}

TEST(PairwiseHJ, RowLimitTriggersOutOfMemory) {
  const Database db = SmallSkewedDb(71, 150, 6);
  PairwiseHashJoin engine;
  RunLimits limits;
  limits.max_intermediate_tuples = 5;
  const RunResult r = engine.Count(PathQuery(5), db, limits);
  EXPECT_EQ(r.status, RunStatus::kOutOfMemory);
}

TEST(PairwiseHJ, ConstantsAndSelfJoins) {
  Database db;
  Relation e("E", 2);
  e.AddPair(1, 2);
  e.AddPair(2, 3);
  e.AddPair(1, 3);
  db.Put(std::move(e));
  PairwiseHashJoin engine;
  for (const char* text :
       {"E(1,y), E(y,z)", "E(x,y), E(y,x)", "E(x,x), E(x,y)"}) {
    const Query q = Q(text);
    EXPECT_EQ(engine.Count(q, db, {}).count, ReferenceCount(q, db)) << text;
  }
}

TEST(PairwiseHJ, DisconnectedQueryCrossProduct) {
  Database db;
  Relation e("E", 2);
  e.AddPair(1, 2);
  e.AddPair(3, 4);
  db.Put(std::move(e));
  PairwiseHashJoin engine;
  EXPECT_EQ(engine.Count(Q("E(a,b), E(c,d)"), db, {}).count, 4u);
}

TEST(GenericJoin, CountMatchesReferenceOnZoo) {
  const Database skewed = SmallSkewedDb(73, 50, 3);
  const Database balanced = SmallBalancedDb(75, 50, 110);
  GenericJoin engine;
  for (const Database* db : {&skewed, &balanced}) {
    for (const Query& q :
         {PathQuery(3), PathQuery(5), CycleQuery(4), CycleQuery(5),
          CliqueQuery(3), RandomPatternQuery(5, 0.6, 4)}) {
      EXPECT_EQ(engine.Count(q, *db, {}).count, ReferenceCount(q, *db))
          << q.ToString();
    }
  }
}

TEST(GenericJoin, EvaluateMatchesReference) {
  const Database db = SmallSkewedDb(77, 40, 2);
  GenericJoin engine;
  for (const Query& q : {PathQuery(4), CycleQuery(4)}) {
    EXPECT_EQ(CollectTuples(engine, q, db), ReferenceTuples(q, db))
        << q.ToString();
  }
}

TEST(GenericJoin, AgreesWithCustomOrder) {
  const Database db = SmallSkewedDb(79, 50, 3);
  const Query q = CycleQuery(4);
  const std::uint64_t expected = ReferenceCount(q, db);
  GenericJoin::Options options;
  options.order = {3, 1, 0, 2};
  GenericJoin engine(options);
  EXPECT_EQ(engine.Count(q, db, {}).count, expected);
}

TEST(GenericJoin, EmptyRelation) {
  Database db;
  db.Put(Relation("E", 2));
  GenericJoin engine;
  EXPECT_EQ(engine.Count(PathQuery(3), db, {}).count, 0u);
}

TEST(GenericJoin, TimeoutStopsRun) {
  const Database db = SmallSkewedDb(81, 200, 8);
  GenericJoin engine;
  RunLimits limits;
  limits.timeout_seconds = 1e-9;
  EXPECT_EQ(engine.Count(PathQuery(6), db, limits).status, RunStatus::kTimeout);
}

TEST(GenericJoin, ConstantsInAtoms) {
  Database db;
  Relation e("E", 2);
  e.AddPair(1, 2);
  e.AddPair(2, 3);
  db.Put(std::move(e));
  GenericJoin engine;
  const Query q = Q("E(1,y), E(y,z)");
  EXPECT_EQ(engine.Count(q, db, {}).count, 1u);
}

}  // namespace
}  // namespace clftj
