#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "data/snap_profiles.h"
#include "engine/engine.h"
#include "query/patterns.h"
#include "tests/test_util.h"

namespace clftj {
namespace {

using ::clftj::testing::CollectTuples;
using ::clftj::testing::Q;

TEST(EngineFactory, AllNamesConstruct) {
  for (const std::string& name : EngineNames()) {
    const auto engine = MakeEngine(name);
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_EQ(engine->name(), name);
  }
  EXPECT_EQ(MakeEngine("NoSuchEngine"), nullptr);
}

// Cross-engine agreement on a downscaled version of each SNAP profile.
// (Profiles themselves are too large for the exponential reference, so the
// engines are checked against each other — LFTJ acts as the anchor, and is
// itself checked against the nested-loop reference in lftj_test.)
class CrossEngineTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

Query IntegrationQuery(int index) {
  switch (index) {
    case 0: return PathQuery(4);
    case 1: return CycleQuery(4);
    case 2: return CycleQuery(5);
    case 3: return RandomPatternQuery(5, 0.4, 11);
    default: return LollipopQuery(3, 2);
  }
}

Database ScaledDb(const std::string& label) {
  DatasetProfile profile = SnapProfileByLabel(label);
  profile.num_nodes = std::max(60, profile.num_nodes / 10);
  if (profile.balanced) profile.param = profile.param / 10;
  return MakeSnapDatabase(profile);
}

TEST_P(CrossEngineTest, AllEnginesAgreeOnCount) {
  const auto [label, query_index] = GetParam();
  const Database db = ScaledDb(label);
  const Query q = IntegrationQuery(query_index);
  const std::uint64_t anchor = MakeEngine("LFTJ")->Count(q, db, {}).count;
  for (const std::string& name :
       {std::string("CLFTJ"), std::string("YTD"), std::string("PairwiseHJ"),
        std::string("GenericJoin")}) {
    const auto engine = MakeEngine(name);
    EXPECT_EQ(engine->Count(q, db, {}).count, anchor)
        << name << " on " << q.ToString() << " over " << label;
  }
}

TEST_P(CrossEngineTest, EvalEnginesAgreeOnTuples) {
  const auto [label, query_index] = GetParam();
  const Database db = ScaledDb(label);
  const Query q = IntegrationQuery(query_index);
  const auto lftj = MakeEngine("LFTJ");
  const auto anchor = CollectTuples(*lftj, q, db);
  for (const std::string& name : {std::string("CLFTJ"), std::string("YTD")}) {
    const auto engine = MakeEngine(name);
    EXPECT_EQ(CollectTuples(*engine, q, db), anchor)
        << name << " on " << q.ToString() << " over " << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesAndQueries, CrossEngineTest,
    ::testing::Combine(::testing::Values("wiki-Vote", "p2p-Gnutella04",
                                         "ca-GrQc", "ego-Facebook"),
                       ::testing::Range(0, 5)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
      std::string label = std::get<0>(info.param);
      for (char& c : label) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return label + "_q" + std::to_string(std::get<1>(info.param));
    });

TEST(Integration, ImdbCycleQueriesAgreeAcrossEngines) {
  Database db = MakeImdbDatabase();
  // Shrink for test runtime: resample smaller tables.
  db = Database();
  db.Put(BipartiteZipf("MC", 300, 200, 1500, 1.1, 0.35, 91));
  db.Put(BipartiteZipf("FC", 300, 200, 1500, 1.1, 0.35, 92));
  const Query q4 =
      Q("MC(p1,m1), FC(p2,m1), FC(p2,m2), MC(p1,m2)");
  const std::uint64_t anchor = MakeEngine("LFTJ")->Count(q4, db, {}).count;
  EXPECT_GT(anchor, 0u);
  EXPECT_EQ(MakeEngine("CLFTJ")->Count(q4, db, {}).count, anchor);
  EXPECT_EQ(MakeEngine("YTD")->Count(q4, db, {}).count, anchor);
}

TEST(Integration, ClftjBeatsLftjOnMemoryTrafficForSkewedPaths) {
  // The intro-level claim of the paper at test scale: on a skewed dataset,
  // CLFTJ generates a fraction of LFTJ's memory accesses for path queries.
  const Database db = ScaledDb("wiki-Vote");
  const Query q = PathQuery(5);
  const auto lftj = MakeEngine("LFTJ")->Count(q, db, {});
  const auto clftj = MakeEngine("CLFTJ")->Count(q, db, {});
  ASSERT_EQ(lftj.count, clftj.count);
  EXPECT_LT(clftj.stats.memory_accesses, lftj.stats.memory_accesses / 2);
}

TEST(Integration, TimeoutShapesMatchPaperProtocol) {
  // A run that times out must say so and still return cleanly.
  const Database db = MakeSnapDatabase(SnapProfileByLabel("wiki-Vote"));
  RunLimits limits;
  limits.timeout_seconds = 0.05;
  const auto r = MakeEngine("LFTJ")->Count(PathQuery(7), db, limits);
  EXPECT_EQ(r.status, RunStatus::kTimeout);
  EXPECT_GT(r.seconds, 0.0);
}

}  // namespace
}  // namespace clftj
