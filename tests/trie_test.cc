#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "data/generators.h"
#include "query/parser.h"
#include "trie/leapfrog.h"
#include "trie/trie.h"
#include "trie/trie_iterator.h"
#include "util/rng.h"
#include "util/simd.h"

namespace clftj {
namespace {

// Recovers all tuples from a trie by full iterator traversal.
std::vector<Tuple> Flatten(const Trie& trie) {
  std::vector<Tuple> out;
  if (trie.depth() == 0) return out;
  TrieIterator it(&trie);
  Tuple row(trie.depth());
  // Depth-first traversal with the iterator API only.
  std::vector<bool> opened(trie.depth(), false);
  it.Open();
  int level = 0;
  while (level >= 0) {
    if (it.AtEnd()) {
      it.Up();
      --level;
      if (level >= 0) it.Next();
      continue;
    }
    row[level] = it.Key();
    if (level + 1 == trie.depth()) {
      out.push_back(row);
      it.Next();
    } else {
      it.Open();
      ++level;
    }
  }
  return out;
}

TEST(Trie, BuildSortsAndDeduplicates) {
  const Trie trie = Trie::Build(2, {{3, 4}, {1, 2}, {3, 4}, {1, 5}});
  EXPECT_EQ(trie.num_tuples(), 3u);
  EXPECT_EQ(Flatten(trie), (std::vector<Tuple>{{1, 2}, {1, 5}, {3, 4}}));
}

TEST(Trie, DepthZero) {
  const Trie empty = Trie::Build(0, {});
  EXPECT_EQ(empty.num_tuples(), 0u);
  const Trie nonempty = Trie::Build(0, {{}});
  EXPECT_EQ(nonempty.num_tuples(), 1u);
}

TEST(Trie, EmptyRelation) {
  const Trie trie = Trie::Build(3, {});
  EXPECT_EQ(trie.num_tuples(), 0u);
  EXPECT_TRUE(trie.values(0).empty());
}

TEST(Trie, SingleColumn) {
  const Trie trie = Trie::Build(1, {{5}, {2}, {5}, {9}});
  EXPECT_EQ(Flatten(trie), (std::vector<Tuple>{{2}, {5}, {9}}));
}

TEST(Trie, RandomRoundTripMatchesSet) {
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    const int depth = 1 + static_cast<int>(rng.Uniform(4));
    std::set<Tuple> expected;
    std::vector<Tuple> rows;
    const int n = static_cast<int>(rng.Uniform(200));
    for (int i = 0; i < n; ++i) {
      Tuple t;
      for (int d = 0; d < depth; ++d) {
        t.push_back(static_cast<Value>(rng.Uniform(12)));
      }
      expected.insert(t);
      rows.push_back(t);
    }
    const Trie trie = Trie::Build(depth, rows);
    EXPECT_EQ(trie.num_tuples(), expected.size());
    const std::vector<Tuple> got = Flatten(trie);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin(),
                           expected.end()));
  }
}

TEST(Trie, FromColumnsMatchesRowBuild) {
  // The columnar bulk path and the row wrapper must produce identical
  // tries, including under duplicates and unsorted input.
  Rng rng(123);
  for (int round = 0; round < 20; ++round) {
    const int depth = 1 + static_cast<int>(rng.Uniform(4));
    const int n = static_cast<int>(rng.Uniform(150));
    std::vector<Tuple> rows;
    std::vector<std::vector<Value>> columns(depth);
    for (int i = 0; i < n; ++i) {
      Tuple t;
      for (int d = 0; d < depth; ++d) {
        t.push_back(static_cast<Value>(rng.Uniform(8)));
      }
      for (int d = 0; d < depth; ++d) columns[d].push_back(t[d]);
      rows.push_back(std::move(t));
    }
    const Trie from_rows = Trie::Build(depth, rows);
    const Trie from_columns =
        Trie::FromColumns(depth, rows.size(), std::move(columns));
    EXPECT_EQ(from_rows.num_tuples(), from_columns.num_tuples());
    EXPECT_EQ(Flatten(from_rows), Flatten(from_columns));
  }
}

TEST(Trie, FromColumnsEmpty) {
  const Trie trie = Trie::FromColumns(2, 0, {{}, {}});
  EXPECT_EQ(trie.num_tuples(), 0u);
  EXPECT_TRUE(trie.values(0).empty());
}

TEST(Trie, MemoryBytesGrowsWithData) {
  const Trie small = Trie::Build(2, {{1, 2}});
  const Trie big = Trie::Build(2, {{1, 2}, {3, 4}, {5, 6}, {7, 8}});
  EXPECT_GT(big.MemoryBytes(), small.MemoryBytes());
}

TEST(TrieIterator, SeekFindsLowerBound) {
  const Trie trie = Trie::Build(1, {{2}, {5}, {9}, {13}, {20}});
  TrieIterator it(&trie);
  it.Open();
  it.Seek(6);
  EXPECT_EQ(it.Key(), 9);
  it.Seek(9);
  EXPECT_EQ(it.Key(), 9);
  it.Seek(14);
  EXPECT_EQ(it.Key(), 20);
  it.Seek(21);
  EXPECT_TRUE(it.AtEnd());
}

TEST(TrieIterator, SeekWithinChildGroupOnly) {
  // Children of 1 are {3,7}; children of 2 are {4}.
  const Trie trie = Trie::Build(2, {{1, 3}, {1, 7}, {2, 4}});
  TrieIterator it(&trie);
  it.Open();        // level 0 at 1
  EXPECT_EQ(it.Key(), 1);
  it.Open();        // level 1 at 3
  EXPECT_EQ(it.Key(), 3);
  it.Seek(5);
  EXPECT_EQ(it.Key(), 7);
  it.Next();
  EXPECT_TRUE(it.AtEnd());  // group of parent 1 exhausted; 4 not visible
  it.Up();
  it.Next();
  EXPECT_EQ(it.Key(), 2);
  it.Open();
  EXPECT_EQ(it.Key(), 4);
}

TEST(TrieIterator, UpRecoversFromAtEnd) {
  const Trie trie = Trie::Build(1, {{1}, {2}});
  TrieIterator it(&trie);
  it.Open();
  it.Next();
  it.Next();
  EXPECT_TRUE(it.AtEnd());
  it.Up();
  EXPECT_EQ(it.depth(), -1);
  it.Open();
  EXPECT_EQ(it.Key(), 1);
}

TEST(TrieIterator, CountsMemoryAccesses) {
  const Trie trie = Trie::Build(1, {{1}, {2}, {3}, {4}, {5}});
  ExecStats stats;
  TrieIterator it(&trie, &stats);
  it.Open();
  it.Seek(5);
  EXPECT_GT(stats.memory_accesses, 0u);
}

TEST(TrieIterator, SeekOnLongSortedRun) {
  std::vector<Tuple> rows;
  for (int i = 0; i < 1000; ++i) rows.push_back({2 * i});
  const Trie trie = Trie::Build(1, rows);
  TrieIterator it(&trie);
  it.Open();
  for (int target = 1; target < 1998; target += 97) {
    it.Seek(target);
    ASSERT_FALSE(it.AtEnd());
    EXPECT_EQ(it.Key(), target % 2 == 0 ? target : target + 1);
  }
}

TEST(Leapfrog, IntersectsSortedSets) {
  const Trie a = Trie::Build(1, {{1}, {3}, {5}, {7}, {9}});
  const Trie b = Trie::Build(1, {{2}, {3}, {5}, {8}, {9}});
  const Trie c = Trie::Build(1, {{0}, {3}, {5}, {9}, {11}});
  TrieIterator ia(&a), ib(&b), ic(&c);
  ia.Open();
  ib.Open();
  ic.Open();
  LeapfrogJoin join({&ia, &ib, &ic});
  join.Init();
  std::vector<Value> got;
  while (!join.AtEnd()) {
    got.push_back(join.Key());
    join.Next();
  }
  EXPECT_EQ(got, (std::vector<Value>{3, 5, 9}));
}

TEST(Leapfrog, EmptyIntersection) {
  const Trie a = Trie::Build(1, {{1}, {2}});
  const Trie b = Trie::Build(1, {{3}, {4}});
  TrieIterator ia(&a), ib(&b);
  ia.Open();
  ib.Open();
  LeapfrogJoin join({&ia, &ib});
  join.Init();
  EXPECT_TRUE(join.AtEnd());
}

TEST(Leapfrog, SingleIteratorEnumeratesAll) {
  const Trie a = Trie::Build(1, {{4}, {8}, {15}});
  TrieIterator ia(&a);
  ia.Open();
  LeapfrogJoin join({&ia});
  join.Init();
  std::vector<Value> got;
  while (!join.AtEnd()) {
    got.push_back(join.Key());
    join.Next();
  }
  EXPECT_EQ(got, (std::vector<Value>{4, 8, 15}));
}

TEST(Leapfrog, SeekSkipsAhead) {
  const Trie a = Trie::Build(1, {{1}, {5}, {10}, {15}});
  const Trie b = Trie::Build(1, {{1}, {5}, {10}, {15}});
  TrieIterator ia(&a), ib(&b);
  ia.Open();
  ib.Open();
  LeapfrogJoin join({&ia, &ib});
  join.Init();
  join.Seek(7);
  ASSERT_FALSE(join.AtEnd());
  EXPECT_EQ(join.Key(), 10);
}

TEST(Leapfrog, RandomizedAgainstStdSetIntersection) {
  Rng rng(123);
  for (int round = 0; round < 30; ++round) {
    const int k = 2 + static_cast<int>(rng.Uniform(3));
    std::vector<std::set<Value>> sets(k);
    for (auto& s : sets) {
      const int n = 1 + static_cast<int>(rng.Uniform(60));
      for (int i = 0; i < n; ++i) {
        s.insert(static_cast<Value>(rng.Uniform(40)));
      }
    }
    std::set<Value> expected = sets[0];
    for (int i = 1; i < k; ++i) {
      std::set<Value> next;
      std::set_intersection(expected.begin(), expected.end(),
                            sets[i].begin(), sets[i].end(),
                            std::inserter(next, next.begin()));
      expected = std::move(next);
    }
    std::vector<Trie> tries;
    tries.reserve(k);
    for (const auto& s : sets) {
      std::vector<Tuple> rows;
      for (const Value v : s) rows.push_back({v});
      tries.push_back(Trie::Build(1, rows));
    }
    std::vector<TrieIterator> iters;
    iters.reserve(k);
    for (const Trie& t : tries) iters.emplace_back(&t);
    std::vector<TrieIterator*> ptrs;
    for (auto& it : iters) {
      it.Open();
      ptrs.push_back(&it);
    }
    LeapfrogJoin join(ptrs);
    join.Init();
    std::vector<Value> got;
    while (!join.AtEnd()) {
      got.push_back(join.Key());
      join.Next();
    }
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin(),
                           expected.end()))
        << "round " << round;
  }
}

// --- AtomView ---

TEST(AtomView, ProjectsByGlobalOrder) {
  Relation r("R", 2);
  r.AddPair(1, 10);
  r.AddPair(2, 20);
  r.Normalize();
  const auto q = ParseQuery("R(x,y)");
  ASSERT_TRUE(q.has_value());
  // Reverse order: y before x — trie levels must flip.
  const std::vector<int> rank = {1, 0};  // x -> 1, y -> 0
  const AtomView view = BuildAtomView(r, q->atom(0), rank);
  ASSERT_EQ(view.level_vars.size(), 2u);
  EXPECT_EQ(view.level_vars[0], q->FindVariable("y"));
  EXPECT_EQ(view.level_vars[1], q->FindVariable("x"));
  EXPECT_EQ(Flatten(*view.trie),
            (std::vector<Tuple>{{10, 1}, {20, 2}}));
}

TEST(AtomView, ConstantFilter) {
  Relation r("R", 2);
  r.AddPair(1, 10);
  r.AddPair(2, 20);
  r.AddPair(2, 30);
  r.Normalize();
  const auto q = ParseQuery("R(2,y)");
  ASSERT_TRUE(q.has_value());
  const std::vector<int> rank = {0};
  const AtomView view = BuildAtomView(r, q->atom(0), rank);
  EXPECT_TRUE(view.non_empty);
  EXPECT_EQ(Flatten(*view.trie), (std::vector<Tuple>{{20}, {30}}));
}

TEST(AtomView, ConstantFilterCanEmpty) {
  Relation r("R", 2);
  r.AddPair(1, 10);
  r.Normalize();
  const auto q = ParseQuery("R(7,y)");
  ASSERT_TRUE(q.has_value());
  const std::vector<int> rank = {0};
  const AtomView view = BuildAtomView(r, q->atom(0), rank);
  EXPECT_FALSE(view.non_empty);
}

TEST(AtomView, RepeatedVariableKeepsDiagonal) {
  Relation r("R", 2);
  r.AddPair(1, 1);
  r.AddPair(1, 2);
  r.AddPair(3, 3);
  r.Normalize();
  const auto q = ParseQuery("R(x,x)");
  ASSERT_TRUE(q.has_value());
  const std::vector<int> rank = {0};
  const AtomView view = BuildAtomView(r, q->atom(0), rank);
  EXPECT_EQ(Flatten(*view.trie), (std::vector<Tuple>{{1}, {3}}));
}

TEST(AtomView, AllConstantAtom) {
  Relation r("R", 2);
  r.AddPair(1, 2);
  r.Normalize();
  const auto hit = ParseQuery("R(1,2), R(x,y)");
  ASSERT_TRUE(hit.has_value());
  const std::vector<int> rank = {0, 1};
  const AtomView present = BuildAtomView(r, hit->atom(0), rank);
  EXPECT_TRUE(present.non_empty);
  EXPECT_EQ(present.trie->depth(), 0);
  const auto miss = ParseQuery("R(2,1), R(x,y)");
  const AtomView absent = BuildAtomView(r, miss->atom(0), rank);
  EXPECT_FALSE(absent.non_empty);
}

TEST(TrieIterator, RestoreChargesNothing) {
  const Trie trie = Trie::Build(2, {{1, 3}, {1, 7}, {2, 4}, {5, 6}});
  ExecStats stats;
  TrieIterator it(&trie, &stats);
  it.Open();
  const std::size_t first = it.Position();
  it.Next();
  it.Next();
  EXPECT_EQ(it.Key(), 5);
  const std::uint64_t before = stats.memory_accesses;
  it.Restore(first);
  EXPECT_EQ(stats.memory_accesses, before);
  EXPECT_EQ(it.Key(), 1);
  it.Open();  // the children of 1, as if the cursor had never moved on
  EXPECT_EQ(it.Key(), 3);
  it.Next();
  EXPECT_EQ(it.Key(), 7);
}

// Each common value of a leapfrog join over three random two-level tries
// and, per iterator, the child group Open() reaches from it.
struct JoinVisit {
  Value key;
  std::vector<std::vector<Value>> children;
  bool operator==(const JoinVisit& o) const {
    return key == o.key && children == o.children;
  }
};

// Opens every iterator below the join's current value, reads its child
// group and goes back up, as a descent into the next depth does.
JoinVisit VisitChildren(Value key, const std::vector<TrieIterator*>& iters) {
  JoinVisit visit{key, {}};
  for (TrieIterator* it : iters) {
    it->Open();
    std::vector<Value> group;
    for (; !it->AtEnd(); it->Next()) group.push_back(it->Key());
    it->Up();
    visit.children.push_back(std::move(group));
  }
  return visit;
}

TEST(Leapfrog, GatheredValuesRestoreToTheStraightPass) {
  // A straight pass visits each value's children before Next(). A grouped
  // pass runs the join ahead over k values, saving its cursor at each, then
  // restores each value before visiting its children, and resumes from the
  // cursor saved past the group. Both must see the same keys and child
  // groups and charge the same memory accesses, and no Restore charges.
  Rng rng(20261020);
  for (int round = 0; round < 20; ++round) {
    std::vector<Trie> tries;
    for (int t = 0; t < 3; ++t) {
      std::vector<Tuple> rows;
      const int n = 50 + static_cast<int>(rng.Uniform(400));
      for (int i = 0; i < n; ++i) {
        rows.push_back({static_cast<Value>(rng.Uniform(60)),
                        static_cast<Value>(rng.Uniform(30))});
      }
      tries.push_back(Trie::Build(2, rows));
    }
    const auto run = [&tries](int k, ExecStats* stats) {
      std::vector<TrieIterator> iters;
      iters.reserve(tries.size());
      for (const Trie& t : tries) iters.emplace_back(&t, stats);
      std::vector<TrieIterator*> ptrs;
      for (TrieIterator& it : iters) ptrs.push_back(&it);
      LeapfrogJoin join(ptrs);
      join.Open();
      std::vector<JoinVisit> visits;
      if (k == 0) {  // the straight pass
        for (; !join.AtEnd(); join.Next()) {
          visits.push_back(VisitChildren(join.Key(), ptrs));
        }
        return visits;
      }
      std::vector<LeapfrogJoin::Mark> marks(k + 1);
      std::vector<std::size_t> positions((k + 1) * join.width());
      std::vector<Value> keys(k);
      int n = k;
      while (n == k) {
        for (n = 0; n < k && !join.AtEnd(); ++n, join.Next()) {
          keys[n] = join.Key();
          marks[n] = join.Save(&positions[n * join.width()]);
        }
        marks[n] = join.Save(&positions[n * join.width()]);
        for (int i = 0; i < n; ++i) {
          const std::uint64_t before = stats->memory_accesses;
          join.Restore(marks[i], &positions[i * join.width()]);
          EXPECT_EQ(stats->memory_accesses, before) << "a restore charged";
          EXPECT_EQ(join.Key(), keys[i]);
          visits.push_back(VisitChildren(join.Key(), ptrs));
        }
        join.Restore(marks[n], &positions[n * join.width()]);
      }
      EXPECT_TRUE(join.AtEnd());
      return visits;
    };
    ExecStats straight_stats;
    const std::vector<JoinVisit> straight = run(0, &straight_stats);
    for (const int k : {1, 3, 8, 64}) {
      ExecStats grouped_stats;
      EXPECT_TRUE(run(k, &grouped_stats) == straight)
          << "round " << round << " k=" << k;
      EXPECT_EQ(grouped_stats.memory_accesses, straight_stats.memory_accesses)
          << "round " << round << " k=" << k;
    }
  }
}

// Reference implementation of the sequential galloping lower bound that
// TrieIterator::Seek used before the 4-way unroll, counting one comparison
// per executed probe — the counting contract GallopingLowerBound pins
// itself to (see leapfrog.h). Any divergence in either the found position
// or the comparison count is a regression.
std::size_t ScalarGallopLowerBound(const std::vector<Value>& vals,
                                   std::size_t lo, std::size_t end,
                                   Value bound, std::uint64_t* comparisons) {
  std::size_t step = 1;
  std::size_t hi = lo + 1;
  while (hi < end && vals[hi] < bound) {
    ++*comparisons;
    lo = hi;
    step <<= 1;
    hi = std::min(end, lo + step);
  }
  if (hi < end) ++*comparisons;
  std::size_t count = hi - lo - 1;
  std::size_t first = lo + 1;
  while (count > 0) {
    ++*comparisons;
    const std::size_t half = count / 2;
    const std::size_t mid = first + half;
    if (vals[mid] < bound) {
      first = mid + 1;
      count -= half + 1;
    } else {
      count = half;
    }
  }
  return first;
}

TEST(GallopingLowerBound, MatchesStdLowerBoundAndScalarCounts) {
  Rng rng(20260730);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.Uniform(2000);
    std::vector<Value> vals;
    vals.reserve(n);
    Value v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v += 1 + static_cast<Value>(rng.Uniform(5));  // sorted, gappy
      vals.push_back(v);
    }
    for (int probe = 0; probe < 50; ++probe) {
      const std::size_t pos = rng.Uniform(n);
      // Any bound above vals[pos], frequently past the end.
      const Value bound =
          vals[pos] + 1 + static_cast<Value>(rng.Uniform(vals.back() + 4));
      std::uint64_t unrolled_cmp = 0;
      std::uint64_t scalar_cmp = 0;
      const std::size_t got =
          GallopingLowerBound(vals.data(), pos, n, bound, &unrolled_cmp);
      const std::size_t want =
          ScalarGallopLowerBound(vals, pos, n, bound, &scalar_cmp);
      ASSERT_EQ(got, want) << "pos=" << pos << " bound=" << bound;
      ASSERT_EQ(got, static_cast<std::size_t>(
                         std::lower_bound(vals.begin() + pos, vals.end(),
                                          bound) -
                         vals.begin()));
      ASSERT_EQ(unrolled_cmp, scalar_cmp)
          << "pos=" << pos << " bound=" << bound << " n=" << n;
    }
  }
}

TEST(TrieIterator, SeekCountsMatchScalarReference) {
  // Counter-pinned regression test for the unrolled Seek: a fixed seek
  // sequence over a fixed sibling group must charge exactly the accesses
  // the sequential implementation did (the recorded bench baselines in
  // docs/bench_pr*/ were produced under that counting).
  std::vector<Tuple> rows;
  for (int i = 0; i < 10000; ++i) rows.push_back({3 * i});
  const Trie trie = Trie::Build(1, rows);
  ExecStats stats;
  TrieIterator it(&trie, &stats);
  it.Open();
  const std::uint64_t after_open = stats.memory_accesses;

  std::vector<Value> vals;
  for (const Tuple& t : rows) vals.push_back(t[0]);
  std::uint64_t expected = 0;
  std::size_t pos = 0;
  for (const Value bound : {1, 2, 10, 500, 501, 7777, 25000, 29990}) {
    if (vals[pos] >= bound) {
      ++expected;  // Seek's already-positioned fast path
    } else {
      pos = ScalarGallopLowerBound(vals, pos, vals.size(), bound, &expected);
    }
    it.Seek(bound);
    ASSERT_FALSE(it.AtEnd());
    EXPECT_EQ(it.Key(), vals[pos]);
  }
  EXPECT_EQ(stats.memory_accesses - after_open, expected);
  // Literal pin so a change to either implementation trips loudly.
  EXPECT_EQ(expected, 88u);
}

// The dispatch arms a test can install here: scalar always, AVX2 when the
// build and the CPU have it. Restores the process-wide mode on exit.
class EachSimdArm {
 public:
  EachSimdArm() : saved_(simd::CurrentMode()) {
    arms_.push_back(simd::Mode::kScalar);
    if (simd::Avx2Available()) arms_.push_back(simd::Mode::kAvx2);
  }
  ~EachSimdArm() { simd::SetMode(saved_); }
  const std::vector<simd::Mode>& arms() const { return arms_; }

 private:
  simd::Mode saved_;
  std::vector<simd::Mode> arms_;
};

TEST(TrieIterator, ShortSeekChargesMatchScalarGallopExhaustively) {
  // Every sibling group of 1-64 values, every start position and every
  // bound from below the first value to past the last: Seek's landing key,
  // AtEnd and charge must be ScalarGallopLowerBound's, whether the landing
  // falls in the short-seek window (scanned, charged arithmetically) or
  // beyond it (galloped). The group under test is the middle one of three,
  // and its neighbours hold values below every bound, so a scan that read
  // past the group's end would land wrong.
  EachSimdArm guard;
  for (const simd::Mode arm : guard.arms()) {
    ASSERT_TRUE(simd::SetMode(arm));
    for (int n = 1; n <= 64; ++n) {
      std::vector<Value> group;
      for (int i = 0; i < n; ++i) group.push_back(10 + 2 * i);
      std::vector<Tuple> rows = {{0, 0}, {0, 1}, {2, 0}, {2, 1}};
      for (const Value v : group) rows.push_back({1, v});
      const Trie trie = Trie::Build(2, rows);
      ExecStats stats;
      TrieIterator it(&trie, &stats);
      it.Open();
      it.Next();  // level 0 at key 1
      ASSERT_EQ(it.Key(), 1);
      for (int start = 0; start < n; ++start) {
        for (Value bound = group.front() - 1; bound <= group.back() + 1;
             ++bound) {
          it.Open();
          for (int i = 0; i < start; ++i) it.Next();
          std::uint64_t want_charge = 0;
          std::size_t want = start;
          if (group[start] >= bound) {
            want_charge = 1;  // already positioned
          } else {
            want = ScalarGallopLowerBound(group, start, group.size(), bound,
                                          &want_charge);
          }
          const std::uint64_t before = stats.memory_accesses;
          it.Seek(bound);
          ASSERT_EQ(stats.memory_accesses - before, want_charge)
              << simd::ModeName(arm) << " n=" << n << " start=" << start
              << " bound=" << bound;
          ASSERT_EQ(it.AtEnd(), want == group.size())
              << simd::ModeName(arm) << " n=" << n << " start=" << start
              << " bound=" << bound;
          if (!it.AtEnd()) {
            ASSERT_EQ(it.Key(), group[want]);
          }
          it.Up();
        }
      }
    }
  }
}

// A cursor over a Trie with one position and group end per level, kept in
// vectors, charging what TrieIterator's contract says: one access per Open
// and Next, one for an already-positioned Seek, and the sequential gallop's
// probes for any other Seek.
class ReferenceCursor {
 public:
  explicit ReferenceCursor(const Trie* trie)
      : trie_(trie), pos_(trie->depth()), end_(trie->depth()) {}

  int depth() const { return depth_; }
  bool AtEnd() const { return at_end_; }
  Value Key() const { return trie_->values(depth_)[pos_[depth_]]; }
  std::uint64_t accesses() const { return accesses_; }

  void Open() {
    std::size_t begin = 0;
    std::size_t end = trie_->values(0).size();
    if (depth_ >= 0) {
      begin = trie_->starts(depth_)[pos_[depth_]];
      end = trie_->starts(depth_)[pos_[depth_] + 1];
    }
    ++depth_;
    pos_[depth_] = begin;
    end_[depth_] = end;
    at_end_ = begin >= end;
    ++accesses_;
  }

  void Up() {
    --depth_;
    at_end_ = false;
  }

  void Next() {
    at_end_ = ++pos_[depth_] >= end_[depth_];
    ++accesses_;
  }

  void Seek(Value bound) {
    const std::vector<Value>& vals = trie_->values(depth_);
    if (vals[pos_[depth_]] >= bound) {
      ++accesses_;
      return;
    }
    pos_[depth_] = ScalarGallopLowerBound(vals, pos_[depth_], end_[depth_],
                                          bound, &accesses_);
    at_end_ = pos_[depth_] >= end_[depth_];
  }

 private:
  const Trie* trie_;
  int depth_ = -1;
  bool at_end_ = false;
  std::vector<std::size_t> pos_;
  std::vector<std::size_t> end_;
  std::uint64_t accesses_ = 0;
};

TEST(TrieIterator, RandomWalksMatchReferenceCursor) {
  // Random Open/Next/Seek/Up walks over random 2- and 3-level tries, step
  // by step against ReferenceCursor on depth, AtEnd, Key and the charged
  // accesses. Seek bounds mix short hops (the scanned window) with long
  // ones (the gallop) and bounds past the group's end.
  EachSimdArm guard;
  Rng rng(20261019);
  for (const simd::Mode arm : guard.arms()) {
    ASSERT_TRUE(simd::SetMode(arm));
    for (const int levels : {2, 3}) {
      std::set<int> up_after_end;  // depths where Up() left an exhausted group
      for (int round = 0; round < 40; ++round) {
        const Value range = 4 + static_cast<Value>(rng.Uniform(120));
        const int n = 1 + static_cast<int>(rng.Uniform(400));
        std::vector<Tuple> rows;
        for (int i = 0; i < n; ++i) {
          Tuple t;
          for (int l = 0; l < levels; ++l) {
            t.push_back(static_cast<Value>(rng.Uniform(range)));
          }
          rows.push_back(std::move(t));
        }
        const Trie trie = Trie::Build(levels, rows);
        ExecStats stats;
        TrieIterator it(&trie, &stats);
        ReferenceCursor ref(&trie);
        for (int step = 0; step < 2000; ++step) {
          const int d = ref.depth();
          std::vector<char> ops;
          if (d >= 0) ops.push_back('u');
          if (!ref.AtEnd()) {
            if (d + 1 < levels) ops.insert(ops.end(), {'o', 'o'});
            if (d >= 0) ops.insert(ops.end(), {'n', 's', 's', 's'});
          }
          const char op = ops[rng.Uniform(ops.size())];
          switch (op) {
            case 'o':
              it.Open();
              ref.Open();
              break;
            case 'u':
              if (ref.AtEnd()) up_after_end.insert(d);
              it.Up();
              ref.Up();
              break;
            case 'n':
              it.Next();
              ref.Next();
              break;
            default: {
              const std::uint64_t hop = rng.Uniform(4) == 0
                                            ? rng.Uniform(range + 2)
                                            : rng.Uniform(12);
              const Value bound = ref.Key() + static_cast<Value>(hop);
              it.Seek(bound);
              ref.Seek(bound);
            }
          }
          ASSERT_EQ(it.depth(), ref.depth()) << "step " << step;
          ASSERT_EQ(it.AtEnd(), ref.AtEnd()) << "step " << step;
          if (ref.depth() >= 0 && !ref.AtEnd()) {
            ASSERT_EQ(it.Key(), ref.Key()) << "step " << step;
          }
          ASSERT_EQ(stats.memory_accesses, ref.accesses())
              << simd::ModeName(arm) << " step " << step << " op " << op;
        }
      }
      for (int d = 0; d < levels; ++d) {
        EXPECT_EQ(up_after_end.count(d), 1u)
            << "no Up() after AtEnd at depth " << d << " of " << levels;
      }
    }
  }
}

}  // namespace
}  // namespace clftj
