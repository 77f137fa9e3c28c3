#include <gtest/gtest.h>

#include "query/patterns.h"
#include "tests/test_util.h"
#include "yannakakis/bag_solver.h"
#include "yannakakis/ytd.h"

namespace clftj {
namespace {

using ::clftj::testing::CollectTuples;
using ::clftj::testing::Q;
using ::clftj::testing::ReferenceCount;
using ::clftj::testing::ReferenceTuples;
using ::clftj::testing::SmallBalancedDb;
using ::clftj::testing::SmallSkewedDb;

TEST(BagSolver, MaterializesContainedAtoms) {
  Database db;
  Relation e("E", 2);
  e.AddPair(1, 2);
  e.AddPair(2, 3);
  db.Put(std::move(e));
  const Query q = Q("E(x,y), E(y,z)");
  ExecStats stats;
  const BagRelation bag = SolveBag(q, db, {0, 1}, &stats, {});  // {x,y}
  EXPECT_EQ(bag.columns, (std::vector<VarId>{0, 1}));
  EXPECT_EQ(bag.rows.size(), 2u);  // just E itself
}

TEST(BagSolver, JoinsMultipleAtomsInBag) {
  Database db;
  Relation e("E", 2);
  e.AddPair(1, 2);
  e.AddPair(2, 3);
  e.AddPair(1, 3);
  db.Put(std::move(e));
  const Query q = Q("E(x,y), E(y,z), E(x,z)");
  ExecStats stats;
  const BagRelation bag = SolveBag(q, db, {0, 1, 2}, &stats, {});
  EXPECT_EQ(bag.rows.size(), 1u);  // the single directed triangle 1-2-3
}

TEST(BagSolver, UncoveredVariableGetsDomainView) {
  Database db;
  Relation e("E", 2);
  e.AddPair(1, 2);
  e.AddPair(3, 4);
  db.Put(std::move(e));
  const Query q = Q("E(x,y), E(y,z)");
  // Bag {x, z}: no atom is contained, both variables get domain views.
  ExecStats stats;
  const BagRelation bag = SolveBag(q, db, {0, 2}, &stats, {});
  // x ranges over column-0 values {1,3}; z over column-1 values {2,4}.
  EXPECT_EQ(bag.rows.size(), 4u);
}

TEST(Ytd, CountMatchesReferenceOnZoo) {
  const Database skewed = SmallSkewedDb(41, 50, 3);
  const Database balanced = SmallBalancedDb(43, 50, 110);
  YannakakisTd ytd;
  for (const Database* db : {&skewed, &balanced}) {
    for (const Query& q :
         {PathQuery(3), PathQuery(5), CycleQuery(4), CycleQuery(5),
          LollipopQuery(3, 2), RandomPatternQuery(5, 0.4, 9)}) {
      EXPECT_EQ(ytd.Count(q, *db, {}).count, ReferenceCount(q, *db))
          << q.ToString();
    }
  }
}

TEST(Ytd, CliqueHandledViaSingletonTd) {
  const Database db = SmallSkewedDb(45, 40, 3);
  YannakakisTd ytd;
  EXPECT_EQ(ytd.Count(CliqueQuery(3), db, {}).count,
            ReferenceCount(CliqueQuery(3), db));
}

TEST(Ytd, EvaluateMatchesReferenceTuples) {
  const Database db = SmallSkewedDb(47, 40, 2);
  YannakakisTd ytd;
  for (const Query& q : {PathQuery(3), PathQuery(4), CycleQuery(4)}) {
    EXPECT_EQ(CollectTuples(ytd, q, db), ReferenceTuples(q, db))
        << q.ToString();
  }
}

TEST(Ytd, ExplicitTdIsHonored) {
  Database db;
  Relation r("R", 2);
  r.AddPair(1, 1);
  r.AddPair(1, 2);
  r.AddPair(2, 1);
  r.AddPair(2, 2);
  db.Put(std::move(r));
  const Query q = Q("R(x1,x2), R(x2,x3), R(x2,x4), R(x3,x5), R(x4,x6)");
  TreeDecomposition td;
  const NodeId root = td.AddNode({0, 1}, kNone);
  const NodeId v = td.AddNode({1, 2, 3}, root);
  td.AddNode({2, 4}, v);
  td.AddNode({3, 5}, v);
  YannakakisTd::Options options;
  options.td = std::move(td);
  YannakakisTd ytd(options);
  EXPECT_EQ(ytd.Count(q, db, {}).count, 64u);
}

TEST(Ytd, EvalRowLimitTriggersOutOfMemory) {
  const Database db = SmallSkewedDb(49, 150, 6);
  YannakakisTd ytd;
  RunLimits limits;
  limits.max_intermediate_tuples = 10;
  const RunResult r =
      ytd.Evaluate(PathQuery(5), db, [](const Tuple&) {}, limits);
  EXPECT_EQ(r.status, RunStatus::kOutOfMemory);
  EXPECT_FALSE(r.ok());
}

TEST(Ytd, CountStoresOnlyGroupedCounts) {
  // Count mode should materialize far fewer intermediates than eval mode
  // on a query with a large output (the paper's count-mode optimization).
  const Database db = SmallSkewedDb(51, 80, 4);
  const Query q = PathQuery(5);
  YannakakisTd ytd;
  const RunResult count_run = ytd.Count(q, db, {});
  const RunResult eval_run = ytd.Evaluate(q, db, [](const Tuple&) {}, {});
  ASSERT_EQ(count_run.count, eval_run.count);
  EXPECT_LT(count_run.stats.intermediate_tuples,
            eval_run.stats.intermediate_tuples);
}

TEST(Ytd, EmptyRelationYieldsZero) {
  Database db;
  db.Put(Relation("E", 2));
  YannakakisTd ytd;
  EXPECT_EQ(ytd.Count(PathQuery(4), db, {}).count, 0u);
  std::vector<Tuple> got;
  ytd.Evaluate(PathQuery(4), db, [&got](const Tuple& t) { got.push_back(t); },
               {});
  EXPECT_TRUE(got.empty());
}

TEST(Ytd, ConstantsInQuery) {
  Database db;
  Relation e("E", 2);
  e.AddPair(1, 2);
  e.AddPair(2, 3);
  e.AddPair(3, 4);
  db.Put(std::move(e));
  const Query q = Q("E(1,y), E(y,z)");
  YannakakisTd ytd;
  EXPECT_EQ(ytd.Count(q, db, {}).count, ReferenceCount(q, db));
}

TEST(Ytd, DisconnectedQuery) {
  Database db;
  Relation e("E", 2);
  e.AddPair(1, 2);
  e.AddPair(3, 4);
  db.Put(std::move(e));
  const Query q = Q("E(a,b), E(c,d)");
  YannakakisTd ytd;
  EXPECT_EQ(ytd.Count(q, db, {}).count, 4u);
}

}  // namespace
}  // namespace clftj
