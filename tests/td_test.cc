#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "data/generators.h"
#include "data/snap_profiles.h"
#include "query/parser.h"
#include "query/patterns.h"
#include "td/cost_model.h"
#include "td/decompose.h"
#include "td/planner.h"
#include "td/tree_decomposition.h"
#include "tests/test_util.h"
#include "util/fault.h"

namespace clftj {
namespace {

using ::clftj::testing::Q;

// The paper's Figure 3 decomposition of the example query.
// Query: R(x1,x2), R(x2,x3), R(x2,x4), R(x3,x5), R(x4,x6).
Query Fig3Query() {
  return Q("R(x1,x2), R(x2,x3), R(x2,x4), R(x3,x5), R(x4,x6)");
}

TreeDecomposition Fig3Td(const Query& q) {
  TreeDecomposition td;
  const VarId x1 = q.FindVariable("x1");
  const VarId x2 = q.FindVariable("x2");
  const VarId x3 = q.FindVariable("x3");
  const VarId x4 = q.FindVariable("x4");
  const VarId x5 = q.FindVariable("x5");
  const VarId x6 = q.FindVariable("x6");
  const NodeId root = td.AddNode({x1, x2}, kNone);
  const NodeId v = td.AddNode({x2, x3, x4}, root);
  td.AddNode({x3, x5}, v);
  td.AddNode({x4, x6}, v);
  return td;
}

TEST(TreeDecomposition, Fig3IsValidAndStronglyCompatible) {
  const Query q = Fig3Query();
  const TreeDecomposition td = Fig3Td(q);
  std::string why;
  EXPECT_TRUE(td.IsValidFor(q, &why)) << why;
  // Natural order x1..x6 is strongly compatible with this ordered TD.
  std::vector<VarId> order = {0, 1, 2, 3, 4, 5};
  EXPECT_TRUE(td.IsStronglyCompatibleWith(order));
  EXPECT_TRUE(td.IsCompatibleWith(order));
}

TEST(TreeDecomposition, AdhesionsOfFig3) {
  const Query q = Fig3Query();
  const TreeDecomposition td = Fig3Td(q);
  EXPECT_TRUE(td.Adhesion(td.root()).empty());
  EXPECT_EQ(td.Adhesion(1), (std::vector<VarId>{q.FindVariable("x2")}));
  EXPECT_EQ(td.Adhesion(2), (std::vector<VarId>{q.FindVariable("x3")}));
  EXPECT_EQ(td.Adhesion(3), (std::vector<VarId>{q.FindVariable("x4")}));
}

TEST(TreeDecomposition, OwnersFollowPreorder) {
  const Query q = Fig3Query();
  const TreeDecomposition td = Fig3Td(q);
  const auto owners = td.Owners(q.num_vars());
  EXPECT_EQ(owners[q.FindVariable("x1")], 0);
  EXPECT_EQ(owners[q.FindVariable("x2")], 0);  // first bag in preorder
  EXPECT_EQ(owners[q.FindVariable("x3")], 1);
  EXPECT_EQ(owners[q.FindVariable("x5")], 2);
  EXPECT_EQ(owners[q.FindVariable("x6")], 3);
}

TEST(TreeDecomposition, PreorderAndDepth) {
  const Query q = Fig3Query();
  const TreeDecomposition td = Fig3Td(q);
  EXPECT_EQ(td.Preorder(), (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(td.Depth(), 3);
}

TEST(TreeDecomposition, StrongCompatibilityRejectsBadOrder) {
  const Query q = Fig3Query();
  const TreeDecomposition td = Fig3Td(q);
  // x5 (owned by a leaf) before x3 (owned by its parent) breaks preorder.
  std::vector<VarId> bad = {0, 1, 4, 2, 3, 5};
  EXPECT_FALSE(td.IsStronglyCompatibleWith(bad));
}

TEST(TreeDecomposition, ValidityCatchesMissingAtomCoverage) {
  const Query q = Q("E(x,y), E(y,z), E(x,z)");  // triangle
  TreeDecomposition td;
  const NodeId root = td.AddNode({0, 1}, kNone);
  td.AddNode({1, 2}, root);
  std::string why;
  EXPECT_FALSE(td.IsValidFor(q, &why));  // E(x,z) covered by no bag
  EXPECT_NE(why.find("atom"), std::string::npos);
}

TEST(TreeDecomposition, ValidityCatchesDisconnectedOccurrences) {
  const Query q = Q("E(x,y), E(y,z)");
  TreeDecomposition td;
  const NodeId root = td.AddNode({0, 1}, kNone);
  const NodeId mid = td.AddNode({1, 2}, root);
  td.AddNode({0, 1}, mid);  // x reappears below without being in `mid`
  std::string why;
  EXPECT_FALSE(td.IsValidFor(q, &why));
  EXPECT_NE(why.find("connected"), std::string::npos);
}

TEST(TreeDecomposition, EliminateRedundantBagsContractsSubsets) {
  const Query q = Q("E(x,y), E(y,z)");
  TreeDecomposition td;
  const NodeId root = td.AddNode({0, 1}, kNone);
  const NodeId small = td.AddNode({1}, root);  // redundant: subset of root
  td.AddNode({1, 2}, small);
  EXPECT_GT(td.EliminateRedundantBags(), 0);
  EXPECT_EQ(td.num_nodes(), 2);
  std::string why;
  EXPECT_TRUE(td.IsValidFor(q, &why)) << why;
  // Every node must own a variable now.
  const auto owners = td.Owners(q.num_vars());
  std::set<NodeId> owning(owners.begin(), owners.end());
  EXPECT_EQ(static_cast<int>(owning.size()), td.num_nodes());
}

TEST(TreeDecomposition, StronglyCompatibleOrderCoversAllVars) {
  const Query q = Fig3Query();
  const TreeDecomposition td = Fig3Td(q);
  const auto order = StronglyCompatibleOrder(td, q.num_vars());
  EXPECT_EQ(static_cast<int>(order.size()), q.num_vars());
  EXPECT_TRUE(td.IsStronglyCompatibleWith(order));
}

// --- GenericDecompose / EnumerateTds ---

TEST(Decompose, ProducesValidTdsForQueryZoo) {
  const std::vector<Query> zoo = {
      PathQuery(3),    PathQuery(5),      PathQuery(7),
      CycleQuery(4),   CycleQuery(5),     CycleQuery(6),
      LollipopQuery(3, 2), Fig3Query(),
      RandomPatternQuery(5, 0.4, 1), RandomPatternQuery(6, 0.6, 2),
  };
  for (const Query& q : zoo) {
    const auto tds = EnumerateTds(q);
    ASSERT_FALSE(tds.empty()) << q.ToString();
    for (const TreeDecomposition& td : tds) {
      std::string why;
      EXPECT_TRUE(td.IsValidFor(q, &why)) << q.ToString() << ": " << why;
      const auto order = StronglyCompatibleOrder(td, q.num_vars());
      EXPECT_TRUE(td.IsStronglyCompatibleWith(order));
    }
  }
}

TEST(Decompose, CliqueFallsBackToSingleton) {
  const Query q = CliqueQuery(4);
  const TreeDecomposition td = GenericDecompose(q);
  EXPECT_EQ(td.num_nodes(), 1);
  EXPECT_EQ(td.bag(td.root()).size(), 4u);
}

TEST(Decompose, PathGetsManySmallBags) {
  const Query q = PathQuery(6);
  const TreeDecomposition td = GenericDecompose(q);
  EXPECT_GE(td.num_nodes(), 3);
  for (NodeId v = 0; v < td.num_nodes(); ++v) {
    if (v != td.root()) {
      EXPECT_LE(td.Adhesion(v).size(), 1u);  // paths decompose on single vars
    }
  }
}

TEST(Decompose, CycleAdhesionsAreAtMostTwo) {
  const Query q = CycleQuery(6);
  for (const TreeDecomposition& td : EnumerateTds(q)) {
    for (NodeId v = 0; v < td.num_nodes(); ++v) {
      EXPECT_LE(td.Adhesion(v).size(), 2u);
    }
  }
}

TEST(Decompose, EnumerationRespectsMaxTds) {
  DecomposeOptions options;
  options.max_tds = 3;
  const auto tds = EnumerateTds(PathQuery(7), options);
  EXPECT_LE(tds.size(), 3u);
  EXPECT_GE(tds.size(), 1u);
}

TEST(Decompose, EnumerationYieldsDistinctTds) {
  const Query q = CycleQuery(6);
  const auto tds = EnumerateTds(q);
  std::set<std::string> reprs;
  for (const auto& td : tds) {
    EXPECT_TRUE(reprs.insert(td.ToString(q)).second) << "duplicate TD";
  }
  EXPECT_GE(tds.size(), 2u);  // cycles admit multiple decompositions
}

TEST(Decompose, DisconnectedQuerySupported) {
  const Query q = Q("E(a,b), E(c,d)");
  const auto tds = EnumerateTds(q);
  ASSERT_FALSE(tds.empty());
  std::string why;
  EXPECT_TRUE(tds.front().IsValidFor(q, &why)) << why;
}

// --- Cost model & planner ---

TEST(CostModel, StructuralPrefersSmallAdhesions) {
  const Query q = CycleQuery(6);
  // A TD with adhesion sizes {2} vs one with a huge bag.
  TreeDecomposition fat;
  fat.AddNode({0, 1, 2, 3, 4, 5}, kNone);
  const TreeDecomposition good = GenericDecompose(q);
  EXPECT_LT(StructuralTdCost(q, good), StructuralTdCost(q, fat));
}

TEST(CostModel, ChuCostPositiveAndOrderSensitive) {
  const Query q = PathQuery(4);
  Database db;
  db.Put(PreferentialAttachmentGraph("E", 80, 3, 7));
  const double natural = ChuOrderCost(q, db, {0, 1, 2, 3});
  EXPECT_GT(natural, 0.0);
  // Any permutation gives a finite positive cost too.
  const double other = ChuOrderCost(q, db, {3, 2, 1, 0});
  EXPECT_GT(other, 0.0);
}

TEST(CostModel, ChuCostZeroOnEmptyData) {
  const Query q = PathQuery(3);
  Database db;
  db.Put(Relation("E", 2));
  EXPECT_EQ(ChuOrderCost(q, db, {0, 1, 2}), 0.0);
}

TEST(Planner, AlwaysReturnsAPlan) {
  Database db;
  db.Put(PreferentialAttachmentGraph("E", 60, 3, 9));
  for (const Query& q :
       {PathQuery(5), CycleQuery(5), CliqueQuery(4), LollipopQuery(3, 2)}) {
    const TdPlan plan = PlanQuery(q, db);
    std::string why;
    EXPECT_TRUE(plan.td.IsValidFor(q, &why)) << why;
    EXPECT_TRUE(plan.td.IsStronglyCompatibleWith(plan.order));
  }
}

TEST(Planner, EnumeratePlansSortedByCost) {
  Database db;
  db.Put(PreferentialAttachmentGraph("E", 60, 3, 9));
  const auto plans = EnumeratePlans(CycleQuery(6), db);
  ASSERT_GE(plans.size(), 2u);
  // Ranking: non-decreasing structural-cost buckets (factor-of-two
  // granularity); within a bucket, non-decreasing cache-aware cost.
  const auto bucket = [](double cost) {
    return static_cast<int>(std::floor(std::log2(std::max(1.0, cost))));
  };
  for (std::size_t i = 1; i < plans.size(); ++i) {
    const int prev = bucket(plans[i - 1].structural_cost);
    const int curr = bucket(plans[i].structural_cost);
    EXPECT_LE(prev, curr);
    if (prev == curr) {
      EXPECT_LE(plans[i - 1].cached_cost, plans[i].cached_cost);
    }
  }
}

TEST(Planner, CacheAwareCostPrefersSkewedAdhesions) {
  // The IMDB 4-cycle: the person-keyed TD must get a lower cache-aware
  // cost than the isomorphic movie-keyed TD because person_id is far more
  // skewed (Section 4.3 / Figure 13).
  const Database db = MakeImdbDatabase();
  const Query q = ImdbCycleQuery(2);
  TreeDecomposition person;
  person.AddNode({0, 2, 3}, person.AddNode({0, 1, 2}, kNone));
  TreeDecomposition movie;
  movie.AddNode({1, 2, 3}, movie.AddNode({0, 1, 3}, kNone));
  const TdPlan pp = MakePlanFromTd(q, db, std::move(person));
  const TdPlan mp = MakePlanFromTd(q, db, std::move(movie));
  EXPECT_LT(pp.cached_cost, mp.cached_cost);
}

// Costing a plan reads a plain atom's level sizes from the relation's
// memoized prefix counts: with every trie build failing, plain-atom shapes
// still plan, and no build is even attempted.
TEST(Planner, PlainAtomsAreCostedWithoutBuildingTries) {
  const Database db = MakeSnapDatabase(SnapProfileByLabel("wiki-Vote"));
  std::vector<Query> queries = {
      PathQuery(3),        PathQuery(4),
      CycleQuery(3),       CycleQuery(4),
      CycleQuery(5),       LollipopQuery(3, 2),
      Q("E(y,x), E(y,z), E(z,x)")};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    queries.push_back(RandomPatternQuery(4 + seed % 2, 0.5, seed));
  }
  (void)PlanQuery(queries.front(), db);  // warm the relation's memo
  fault::Config config;
  config.period[static_cast<int>(fault::Site::kTrieBuild)] = 1;
  const fault::ScopedFaults faults(config);
  for (const Query& q : queries) {
    EXPECT_NO_THROW((void)PlanQuery(q, db)) << q.ToString();
  }
  EXPECT_EQ(fault::Seen(fault::Site::kTrieBuild), 0u);
}

TEST(Planner, MakePlanFromExplicitTd) {
  const Query q = Fig3Query();
  Database db;
  Relation r("R", 2);
  r.AddPair(1, 1);
  r.AddPair(1, 2);
  r.AddPair(2, 1);
  r.AddPair(2, 2);
  db.Put(std::move(r));
  const TdPlan plan = MakePlanFromTd(q, db, Fig3Td(q));
  EXPECT_EQ(plan.order.size(), 6u);
  EXPECT_TRUE(plan.td.IsStronglyCompatibleWith(plan.order));
}

}  // namespace
}  // namespace clftj
