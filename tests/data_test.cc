#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <utility>
#include <vector>

#include "data/database.h"
#include "data/generators.h"
#include "data/loader.h"
#include "data/relation.h"
#include "data/snap_profiles.h"

namespace clftj {
namespace {

TEST(Relation, AddAndAccess) {
  Relation r("R", 3);
  r.Add({1, 2, 3});
  r.Add({4, 5, 6});
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.arity(), 3);
  EXPECT_EQ(r.At(1, 2), 6);
  EXPECT_EQ(r.TupleAt(0), (Tuple{1, 2, 3}));
}

TEST(Relation, NormalizeSortsAndDeduplicates) {
  Relation r("R", 2);
  r.AddPair(3, 4);
  r.AddPair(1, 2);
  r.AddPair(3, 4);
  r.AddPair(1, 1);
  r.Normalize();
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.TupleAt(0), (Tuple{1, 1}));
  EXPECT_EQ(r.TupleAt(1), (Tuple{1, 2}));
  EXPECT_EQ(r.TupleAt(2), (Tuple{3, 4}));
}

TEST(Relation, NormalizeEmptyAndSingle) {
  Relation r("R", 2);
  r.Normalize();
  EXPECT_TRUE(r.empty());
  r.AddPair(9, 9);
  r.Normalize();
  EXPECT_EQ(r.size(), 1u);
}

TEST(Relation, DistinctInColumn) {
  Relation r("R", 2);
  r.AddPair(1, 5);
  r.AddPair(1, 6);
  r.AddPair(2, 5);
  EXPECT_EQ(r.DistinctInColumn(0), 2u);
  EXPECT_EQ(r.DistinctInColumn(1), 2u);
}

TEST(Relation, MaxFrequencyInColumn) {
  Relation r("R", 2);
  r.AddPair(1, 5);
  r.AddPair(1, 6);
  r.AddPair(1, 7);
  r.AddPair(2, 5);
  EXPECT_EQ(r.MaxFrequencyInColumn(0), 3u);
  EXPECT_EQ(r.MaxFrequencyInColumn(1), 2u);
}

TEST(Relation, ColumnSpansAreContiguousViews) {
  Relation r("R", 3);
  r.Add({1, 2, 3});
  r.Add({4, 5, 6});
  r.Add({7, 8, 9});
  const ColumnSpan c0 = r.Column(0);
  const ColumnSpan c2 = r.Column(2);
  ASSERT_EQ(c0.size(), 3u);
  EXPECT_EQ(c0[0], 1);
  EXPECT_EQ(c0[1], 4);
  EXPECT_EQ(c0[2], 7);
  EXPECT_EQ(c2.front(), 3);
  EXPECT_EQ(c2.back(), 9);
  // The span is a view of the live storage, not a copy.
  EXPECT_EQ(c0.data(), r.Column(0).data());
  std::vector<Value> gathered(c0.begin(), c0.end());
  EXPECT_EQ(gathered, (std::vector<Value>{1, 4, 7}));
}

TEST(Relation, ColumnStatsFields) {
  Relation r("R", 2);
  r.AddPair(5, -1);
  r.AddPair(5, 0);
  r.AddPair(5, 7);
  r.AddPair(2, 7);
  const ColumnStats& s0 = r.Stats(0);
  EXPECT_EQ(s0.distinct, 2u);
  EXPECT_EQ(s0.max_frequency, 3u);
  EXPECT_EQ(s0.min, 2);
  EXPECT_EQ(s0.max, 5);
  // (Σf)²/Σf² = 16 / (9 + 1) = 1.6
  EXPECT_DOUBLE_EQ(s0.effective_distinct, 1.6);
  const ColumnStats& s1 = r.Stats(1);
  EXPECT_EQ(s1.distinct, 3u);
  EXPECT_EQ(s1.max_frequency, 2u);
  EXPECT_EQ(s1.min, -1);
  EXPECT_EQ(s1.max, 7);
}

TEST(Relation, StatsMemoizedOncePerColumnPerNormalize) {
  Relation r("R", 2);
  for (int i = 0; i < 50; ++i) r.AddPair(i % 7, i % 3);
  r.Normalize();
  EXPECT_EQ(r.stats_builds(), 0u);
  // Arbitrarily many stat queries cost exactly one build per column.
  for (int rep = 0; rep < 10; ++rep) {
    (void)r.DistinctInColumn(0);
    (void)r.MaxFrequencyInColumn(0);
    (void)r.Stats(0);
    (void)r.DistinctInColumn(1);
  }
  EXPECT_EQ(r.stats_builds(), 2u);
  // Prefix counts are memoized per column order under the same contract
  // (a repeat returns the same block) and are not counted as stats blocks.
  using Counts = std::vector<std::size_t>;
  const Counts& xy = r.PrefixDistinct({0, 1});
  EXPECT_EQ(xy, (Counts{7, 21}));
  EXPECT_EQ(&r.PrefixDistinct({0, 1}), &xy);
  EXPECT_EQ(r.PrefixDistinct({1, 0}), (Counts{3, 21}));
  EXPECT_EQ(r.stats_builds(), 2u);
  // A mutation invalidates; the next query recomputes once.
  r.AddPair(100, 100);
  EXPECT_EQ(r.PrefixDistinct({0, 1}), (Counts{8, 22}));
  r.Normalize();
  (void)r.DistinctInColumn(0);
  (void)r.DistinctInColumn(0);
  EXPECT_EQ(r.stats_builds(), 3u);
  // Stats reflect the new data, not the stale memo.
  EXPECT_EQ(r.DistinctInColumn(0), 8u);
  // Normalize drops only duplicates, which the counts ignore anyway.
  EXPECT_EQ(r.PrefixDistinct({0, 1}), (Counts{8, 22}));
  EXPECT_EQ(r.PrefixDistinct({1, 0}), (Counts{4, 22}));
  r.ApplyDelta({{200, 1}}, {{0, 0}});
  EXPECT_EQ(r.PrefixDistinct({0, 1}), (Counts{9, 22}));
  EXPECT_EQ(r.PrefixDistinct({1, 0}), (Counts{4, 22}));
  EXPECT_EQ(r.DistinctInColumn(0), 9u);
}

TEST(Relation, StatsInvalidatedByAddWithoutNormalize) {
  Relation r("R", 1);
  r.Add({1});
  EXPECT_EQ(r.DistinctInColumn(0), 1u);
  r.Add({2});
  EXPECT_EQ(r.DistinctInColumn(0), 2u);
  EXPECT_EQ(r.MaxFrequencyInColumn(0), 1u);
}

TEST(Relation, StatsSurviveCopyAndMove) {
  Relation r("R", 2);
  r.AddPair(1, 2);
  r.AddPair(1, 3);
  (void)r.Stats(0);
  const std::vector<std::size_t> reversed = r.PrefixDistinct({1, 0});
  EXPECT_EQ(reversed, (std::vector<std::size_t>{2, 2}));
  EXPECT_EQ(r.stats_builds(), 1u);
  Relation copy = r;
  EXPECT_EQ(copy.DistinctInColumn(0), 1u);
  EXPECT_EQ(copy.stats_builds(), 1u);  // memo carried over, no recompute
  EXPECT_EQ(copy.PrefixDistinct({1, 0}), reversed);
  const std::vector<std::size_t>* in_copy = &copy.PrefixDistinct({1, 0});
  Relation moved = std::move(copy);
  EXPECT_EQ(moved.DistinctInColumn(0), 1u);
  EXPECT_EQ(moved.stats_builds(), 1u);
  // The prefix memo moves with the relation: the same block, not a rebuild.
  EXPECT_EQ(&moved.PrefixDistinct({1, 0}), in_copy);
}

TEST(Relation, FromColumnsMatchesRowwiseAdds) {
  Relation rows("R", 2);
  rows.AddPair(3, 4);
  rows.AddPair(1, 2);
  Relation cols = Relation::FromColumns("R", {{3, 1}, {4, 2}});
  ASSERT_EQ(cols.size(), rows.size());
  EXPECT_EQ(cols.arity(), 2);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(cols.TupleAt(i), rows.TupleAt(i));
  }
}

TEST(Relation, MemoryBytesTracksColumns) {
  Relation r("R", 2);
  // An empty database charges only its (empty) dictionary's fixed table
  // overhead — a handful of bytes, not a data-bearing footprint.
  EXPECT_LE(Database().MemoryBytes(), 64u);
  for (int i = 0; i < 100; ++i) r.AddPair(i, i);
  EXPECT_GE(r.MemoryBytes(), 200 * sizeof(Value));
  Database db;
  db.Put(std::move(r));
  EXPECT_GE(db.MemoryBytes(), 200 * sizeof(Value));
}

TEST(Database, MemoryBytesChargesDictionary) {
  Database db;
  const std::size_t before = db.MemoryBytes();
  for (int i = 0; i < 1000; ++i) {
    db.dict().Encode("some_rather_long_interned_label_" + std::to_string(i));
  }
  // 1000 strings of 30+ chars: at least the raw string payload is charged.
  EXPECT_GE(db.MemoryBytes(), before + 30'000u);
}

TEST(Database, PutNormalizesAndFinds) {
  Database db;
  Relation r("E", 2);
  r.AddPair(2, 1);
  r.AddPair(2, 1);
  db.Put(std::move(r));
  ASSERT_TRUE(db.Contains("E"));
  EXPECT_EQ(db.Get("E").size(), 1u);
  EXPECT_EQ(db.Find("nope"), nullptr);
  EXPECT_EQ(db.Names(), std::vector<std::string>{"E"});
  EXPECT_EQ(db.TotalTuples(), 1u);
}

TEST(Database, PutReplacesExisting) {
  Database db;
  Relation a("E", 2);
  a.AddPair(1, 2);
  db.Put(std::move(a));
  Relation b("E", 2);
  b.AddPair(1, 2);
  b.AddPair(3, 4);
  db.Put(std::move(b));
  EXPECT_EQ(db.Get("E").size(), 2u);
}

TEST(Loader, RoundTrip) {
  const std::string path = ::testing::TempDir() + "clftj_loader_rt.tsv";
  Relation r("R", 2);
  r.AddPair(10, 20);
  r.AddPair(-3, 7);
  r.Normalize();
  ASSERT_TRUE(SaveRelationToFile(r, path));
  const auto loaded = LoadRelationFromFile(path, "R", 2);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->TupleAt(0), (Tuple{-3, 7}));
  std::remove(path.c_str());
}

TEST(Loader, SkipsCommentsAndBlankLines) {
  const std::string path = ::testing::TempDir() + "clftj_loader_c.txt";
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("# SNAP header\n% other comment\n\n1\t2\n3 4\n5,6\n", f);
  std::fclose(f);
  const auto loaded = LoadEdgeList(path, "E");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 3u);
  std::remove(path.c_str());
}

TEST(Loader, RejectsWrongArity) {
  const std::string path = ::testing::TempDir() + "clftj_loader_bad.txt";
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("1 2 3\n", f);
  std::fclose(f);
  EXPECT_FALSE(LoadEdgeList(path, "E").has_value());
  std::remove(path.c_str());
}

TEST(Loader, RejectsNonInteger) {
  const std::string path = ::testing::TempDir() + "clftj_loader_nan.txt";
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("1 abc\n", f);
  std::fclose(f);
  EXPECT_FALSE(LoadEdgeList(path, "E").has_value());
  std::remove(path.c_str());
}

TEST(Loader, MissingFileFails) {
  EXPECT_FALSE(LoadEdgeList("/nonexistent/nope.txt", "E").has_value());
}

// --- Generators: structural properties ---

bool IsSymmetric(const Relation& r) {
  std::set<std::pair<Value, Value>> edges;
  for (std::size_t i = 0; i < r.size(); ++i) {
    edges.emplace(r.At(i, 0), r.At(i, 1));
  }
  for (const auto& [a, b] : edges) {
    if (edges.count({b, a}) == 0) return false;
  }
  return true;
}

bool HasSelfLoop(const Relation& r) {
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (r.At(i, 0) == r.At(i, 1)) return true;
  }
  return false;
}

TEST(Generators, ErdosRenyiSymmetricNoSelfLoops) {
  const Relation g = ErdosRenyiGraph("E", 40, 0.2, 17);
  EXPECT_TRUE(IsSymmetric(g));
  EXPECT_FALSE(HasSelfLoop(g));
  EXPECT_GT(g.size(), 0u);
}

TEST(Generators, ErdosRenyiDeterministic) {
  const Relation a = ErdosRenyiGraph("E", 30, 0.3, 5);
  const Relation b = ErdosRenyiGraph("E", 30, 0.3, 5);
  ASSERT_EQ(a.size(), b.size());
  for (int c = 0; c < 2; ++c) {
    const ColumnSpan ca = a.Column(c);
    const ColumnSpan cb = b.Column(c);
    EXPECT_TRUE(std::equal(ca.begin(), ca.end(), cb.begin(), cb.end()));
  }
}

TEST(Generators, ErdosRenyiEdgeCountNearExpectation) {
  const int n = 200;
  const double p = 0.1;
  const Relation g = ErdosRenyiGraph("E", n, p, 23);
  const double expected = p * n * (n - 1);  // directed tuples
  EXPECT_NEAR(static_cast<double>(g.size()), expected, 0.25 * expected);
}

TEST(Generators, PreferentialAttachmentIsSkewed) {
  const Relation g = PreferentialAttachmentGraph("E", 300, 4, 31);
  EXPECT_TRUE(IsSymmetric(g));
  EXPECT_FALSE(HasSelfLoop(g));
  // Hub degree should far exceed the average degree.
  const std::size_t hub = g.MaxFrequencyInColumn(0);
  const double avg = static_cast<double>(g.size()) / 300.0;
  EXPECT_GT(static_cast<double>(hub), 4.0 * avg);
}

TEST(Generators, NearRegularIsBalanced) {
  const Relation g = NearRegularGraph("E", 300, 1200, 37);
  EXPECT_TRUE(IsSymmetric(g));
  EXPECT_EQ(g.size(), 2400u);  // both directions
  const std::size_t hub = g.MaxFrequencyInColumn(0);
  const double avg = static_cast<double>(g.size()) / 300.0;
  EXPECT_LT(static_cast<double>(hub), 4.0 * avg);
}

TEST(Generators, BipartiteZipfSkewAsymmetry) {
  const Relation g =
      BipartiteZipf("C", 500, 500, 3000, /*left_skew=*/1.1,
                    /*right_skew=*/0.2, 41);
  EXPECT_EQ(g.size(), 3000u);
  // Left column (high skew) should concentrate much more than right.
  EXPECT_GT(g.MaxFrequencyInColumn(0), 2 * g.MaxFrequencyInColumn(1));
}

TEST(SnapProfiles, AllProfilesGenerate) {
  for (const DatasetProfile& p : SnapProfiles()) {
    const Database db = MakeSnapDatabase(p);
    ASSERT_TRUE(db.Contains("E")) << p.label;
    EXPECT_GT(db.Get("E").size(), 100u) << p.label;
    EXPECT_TRUE(IsSymmetric(db.Get("E"))) << p.label;
  }
}

TEST(SnapProfiles, LookupByLabel) {
  const DatasetProfile p = SnapProfileByLabel("wiki-Vote");
  EXPECT_EQ(p.label, "wiki-Vote");
  EXPECT_FALSE(p.balanced);
  const DatasetProfile g = SnapProfileByLabel("p2p-Gnutella04");
  EXPECT_TRUE(g.balanced);
}

TEST(SnapProfiles, ImdbHasTwoSkewedCastTables) {
  const Database db = MakeImdbDatabase();
  ASSERT_TRUE(db.Contains("MC"));
  ASSERT_TRUE(db.Contains("FC"));
  const Relation& mc = db.Get("MC");
  // person_id (column 0) is much more skewed than movie_id (column 1).
  EXPECT_GT(mc.MaxFrequencyInColumn(0), 2 * mc.MaxFrequencyInColumn(1));
}

}  // namespace
}  // namespace clftj
