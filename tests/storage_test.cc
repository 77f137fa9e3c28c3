// Differential coverage for the columnar Relation storage swap: every
// engine must produce bit-identical query counts and tuple sets over the
// column-major storage, Normalize must implement exact set semantics, and
// the loader round-trip must be lossless. The reference semantics are
// computed independently of Relation's internals (std::set of tuples and
// the nested-loop engine), so these tests would catch any storage-layer
// divergence — ordering bugs in the permutation sort, dedup misses,
// column misalignment — as a visible result difference.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baseline/generic_join.h"
#include "baseline/hash_join.h"
#include "baseline/nested_loop.h"
#include "clftj/cached_trie_join.h"
#include "data/database.h"
#include "data/generators.h"
#include "data/loader.h"
#include "data/relation.h"
#include "lftj/trie_join.h"
#include "trie/trie.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace clftj {
namespace {

using testing::CollectTuples;
using testing::Q;

// A random relation with duplicates and negative values, plus the same
// rows as a tuple list for reference computations.
struct RandomRelation {
  Relation relation;
  std::vector<Tuple> rows;
};

RandomRelation MakeRandomRelation(const std::string& name, int arity,
                                  int rows, Value domain, Rng* rng) {
  RandomRelation out{Relation(name, arity), {}};
  for (int i = 0; i < rows; ++i) {
    Tuple t(arity);
    for (int c = 0; c < arity; ++c) {
      t[c] = static_cast<Value>(rng->Uniform(static_cast<std::size_t>(domain)))
             - domain / 2;
    }
    out.relation.Add(t);
    out.rows.push_back(std::move(t));
  }
  return out;
}

// --- Normalize: exact set semantics against an independent reference ----

TEST(Storage, NormalizeMatchesSetSemantics) {
  Rng rng(7);
  for (int arity = 1; arity <= 4; ++arity) {
    for (int round = 0; round < 8; ++round) {
      RandomRelation r = MakeRandomRelation("R", arity, 120, 9, &rng);
      r.relation.Normalize();
      const std::set<Tuple> reference(r.rows.begin(), r.rows.end());
      ASSERT_EQ(r.relation.size(), reference.size())
          << "arity=" << arity << " round=" << round;
      std::size_t i = 0;
      for (const Tuple& expected : reference) {
        EXPECT_EQ(r.relation.TupleAt(i), expected)
            << "arity=" << arity << " row " << i;
        ++i;
      }
      // Idempotent.
      Relation again = r.relation;
      again.Normalize();
      ASSERT_EQ(again.size(), r.relation.size());
      for (std::size_t j = 0; j < again.size(); ++j) {
        EXPECT_EQ(again.TupleAt(j), r.relation.TupleAt(j));
      }
    }
  }
}

TEST(Storage, NormalizeKeepsColumnsAligned) {
  Rng rng(13);
  RandomRelation r = MakeRandomRelation("R", 3, 200, 6, &rng);
  r.relation.Normalize();
  // Re-zip the columns into rows: they must be exactly the sorted set.
  const ColumnSpan c0 = r.relation.Column(0);
  const ColumnSpan c1 = r.relation.Column(1);
  const ColumnSpan c2 = r.relation.Column(2);
  ASSERT_EQ(c0.size(), r.relation.size());
  for (std::size_t i = 0; i < r.relation.size(); ++i) {
    EXPECT_EQ((Tuple{c0[i], c1[i], c2[i]}), r.relation.TupleAt(i)) << i;
  }
}

// --- Loader round-trip ---------------------------------------------------

TEST(Storage, LoaderRoundTripIsLossless) {
  Rng rng(29);
  for (const int arity : {1, 2, 3}) {
    const std::string path = ::testing::TempDir() + "clftj_storage_rt_" +
                             std::to_string(arity) + ".tsv";
    RandomRelation r = MakeRandomRelation("R", arity, 150, 40, &rng);
    r.relation.Normalize();
    ASSERT_TRUE(SaveRelationToFile(r.relation, path));
    const auto loaded = LoadRelationFromFile(path, "R", arity);
    ASSERT_TRUE(loaded.has_value()) << "arity=" << arity;
    ASSERT_EQ(loaded->size(), r.relation.size());
    for (std::size_t i = 0; i < loaded->size(); ++i) {
      EXPECT_EQ(loaded->TupleAt(i), r.relation.TupleAt(i))
          << "arity=" << arity << " row " << i;
    }
    std::remove(path.c_str());
  }
}

// --- Concurrent readers over one shared relation --------------------------

// Exercises the documented concurrent-reader contract of the lazily
// memoized stats: many threads race the *first* Stats call on cold columns
// (the compute-outside-lock install path) while others stream spans. This
// is the surface the TSan CI job watches.
TEST(Storage, ConcurrentStatsReadersAgree) {
  Rng rng(57);
  const RandomRelation source = MakeRandomRelation("R", 3, 5000, 300, &rng);
  for (int round = 0; round < 4; ++round) {
    Relation rel = source.relation;  // fresh memo every round
    constexpr int kThreads = 8;
    // Every column order of the arity-3 relation.
    const std::vector<std::vector<int>> orders = {
        {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
    std::vector<std::array<std::size_t, 3>> distinct(kThreads);
    std::vector<Value> span_sum(kThreads, 0);
    std::vector<std::vector<const std::vector<std::size_t>*>> prefix(
        kThreads, std::vector<const std::vector<std::size_t>*>(6));
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([t, &rel, &orders, &distinct, &span_sum, &prefix]() {
        for (int c = 0; c < 3; ++c) {
          // Rotate the starting column per thread so different columns'
          // first computations race each other, not just one.
          const int col = (t + c) % 3;
          distinct[t][col] = rel.DistinctInColumn(col);
          Value sum = 0;
          for (const Value v : rel.Column(col)) sum += v;
          span_sum[t] += sum;
        }
        // The prefix-count memo races the same way, one order at a time.
        for (int k = 0; k < 6; ++k) {
          const int order = (t + k) % 6;
          prefix[t][order] = &rel.PrefixDistinct(orders[order]);
        }
      });
    }
    for (std::thread& t : pool) t.join();
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(distinct[t], distinct[0]) << "thread " << t;
      EXPECT_EQ(span_sum[t], span_sum[0]) << "thread " << t;
      // Installed once: every reader holds the same block.
      EXPECT_EQ(prefix[t], prefix[0]) << "thread " << t;
    }
    // Install-once: racing first readers may duplicate a compute, but each
    // column's block is installed and counted exactly once.
    EXPECT_EQ(rel.stats_builds(), 3u);
  }
}

// --- Prefix counts against the trie the cost model used to build ---------

// Relation::PrefixDistinct(cols)[l] must equal level l's size of the plain
// atom view under the column order `cols`, for every order, on relations
// with duplicates, after Normalize, and after ApplyDelta.
TEST(Storage, PrefixDistinctMatchesAtomViewLevelSizes) {
  Rng rng(211);
  std::size_t cases = 0;
  for (int arity = 1; arity <= 4; ++arity) {
    Atom atom;
    atom.relation = "R";
    for (int p = 0; p < arity; ++p) atom.terms.push_back(Term::Var(p));
    for (int trial = 0; trial < 40; ++trial) {
      const Value domain = 2 + static_cast<Value>(rng.Uniform(12));
      const int rows = static_cast<int>(rng.Uniform(300));
      Relation rel =
          MakeRandomRelation("R", arity, rows, domain, &rng).relation;
      for (int state = 0; state < 3; ++state) {
        if (state == 1) rel.Normalize();
        if (state == 2) {
          std::vector<Tuple> adds;
          std::vector<Tuple> deletes;
          for (int i = 0; i < 20; ++i) {
            Tuple t(arity);
            for (Value& v : t) {
              v = static_cast<Value>(
                      rng.Uniform(static_cast<std::size_t>(domain + 4))) -
                  domain / 2;
            }
            adds.push_back(t);
            if (!rel.empty()) {
              deletes.push_back(rel.TupleAt(rng.Uniform(rel.size())));
            }
          }
          rel.ApplyDelta(adds, deletes);
        }
        std::vector<int> cols(arity);
        std::iota(cols.begin(), cols.end(), 0);
        do {
          // Variable p sits in column p; rank it at cols' position of p.
          std::vector<int> var_rank(arity);
          for (int l = 0; l < arity; ++l) var_rank[cols[l]] = l;
          const AtomView view = BuildAtomView(rel, atom, var_rank);
          const std::vector<std::size_t>& counts = rel.PrefixDistinct(cols);
          ASSERT_EQ(counts.size(), static_cast<std::size_t>(arity));
          for (int l = 0; l < arity; ++l) {
            EXPECT_EQ(counts[l], view.trie->values(l).size())
                << "arity " << arity << " trial " << trial << " state "
                << state << " level " << l;
            ++cases;
          }
        } while (std::next_permutation(cols.begin(), cols.end()));
      }
    }
  }
  EXPECT_GT(cases, 10000u);
}

// --- Cross-engine differential over the columnar storage -----------------

struct EngineCase {
  std::string label;
  std::unique_ptr<JoinEngine> engine;
};

std::vector<EngineCase> AllEngines() {
  std::vector<EngineCase> engines;
  engines.push_back({"HashJoin", std::make_unique<PairwiseHashJoin>()});
  engines.push_back({"GenericJoin", std::make_unique<GenericJoin>()});
  engines.push_back({"LFTJ", std::make_unique<LeapfrogTrieJoin>()});
  engines.push_back({"CLFTJ", std::make_unique<CachedTrieJoin>()});
  for (const int threads : {1, 2, 8}) {
    CachedTrieJoin::Options options;
    options.threads = threads;
    engines.push_back(
        {"CLFTJ-P/" + std::to_string(threads),
         std::make_unique<CachedTrieJoin>(options)});
  }
  return engines;
}

class StorageDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(StorageDifferentialTest, AllEnginesAgreeOnColumnarStorage) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 7919 + 1);
  Database db;
  db.Put(MakeRandomRelation("E", 2, 220, 25, &rng).relation);
  db.Put(MakeRandomRelation("F", 2, 180, 25, &rng).relation);

  const std::vector<Query> queries = {
      Q("E(x,y), E(y,z)"),
      Q("E(x,y), F(y,z), E(z,x)"),
      Q("E(x,y), E(y,z), F(z,w)"),
      Q("E(x,x)"),
  };
  for (const Query& q : queries) {
    const std::uint64_t expected_count = testing::ReferenceCount(q, db);
    const std::vector<Tuple> expected = testing::ReferenceTuples(q, db);
    for (EngineCase& e : AllEngines()) {
      EXPECT_EQ(e.engine->Count(q, db, {}).count, expected_count)
          << e.label << " on " << q.ToString();
      EXPECT_EQ(CollectTuples(*e.engine, q, db), expected)
          << e.label << " on " << q.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageDifferentialTest,
                         ::testing::Range(0, 6));

// The skewed graph instances exercise the cache-heavy CLFTJ paths; the
// counts and tuple sets must agree with the nested-loop reference and
// across thread counts.
TEST(Storage, SkewedGraphDifferential) {
  for (const std::uint64_t seed : {3u, 17u}) {
    Database db = testing::SmallSkewedDb(seed, /*nodes=*/40,
                                         /*edges_per_node=*/3);
    const Query q = Q("E(x,y), E(y,z), E(z,x)");
    const std::uint64_t expected_count = testing::ReferenceCount(q, db);
    const std::vector<Tuple> expected = testing::ReferenceTuples(q, db);
    for (EngineCase& e : AllEngines()) {
      EXPECT_EQ(e.engine->Count(q, db, {}).count, expected_count)
          << e.label << " seed=" << seed;
      EXPECT_EQ(CollectTuples(*e.engine, q, db), expected)
          << e.label << " seed=" << seed;
    }
  }
}

// Constants and repeated variables flow through the filtered (non-plain)
// atom-view build path; pin it against the reference engine too.
TEST(Storage, FilteredAtomViewsDifferential) {
  Rng rng(101);
  Database db;
  db.Put(MakeRandomRelation("E", 2, 200, 12, &rng).relation);
  db.Put(MakeRandomRelation("T", 3, 150, 8, &rng).relation);
  const Value c = db.Get("E").Column(0)[0];  // a constant that exists
  std::vector<Query> queries = {
      Q("E(x,x), E(x,y)"),
      Q("T(x,y,x), E(y,z)"),
      Q("T(x,x,y)"),
  };
  // A query with an explicit constant argument.
  {
    Query q;
    const VarId x = q.AddVariable("x");
    const VarId y = q.AddVariable("y");
    Atom a;
    a.relation = "E";
    a.terms = {Term::Const(c), Term::Var(x)};
    q.AddAtom(std::move(a));
    Atom b;
    b.relation = "E";
    b.terms = {Term::Var(x), Term::Var(y)};
    q.AddAtom(std::move(b));
    queries.push_back(std::move(q));
  }
  for (const Query& q : queries) {
    const std::uint64_t expected_count = testing::ReferenceCount(q, db);
    const std::vector<Tuple> expected = testing::ReferenceTuples(q, db);
    for (EngineCase& e : AllEngines()) {
      EXPECT_EQ(e.engine->Count(q, db, {}).count, expected_count)
          << e.label << " on " << q.ToString();
      EXPECT_EQ(CollectTuples(*e.engine, q, db), expected)
          << e.label << " on " << q.ToString();
    }
  }
}

}  // namespace
}  // namespace clftj
