#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "util/common.h"
#include "util/hash.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

namespace clftj {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.Next() == b.Next() ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(Rng, UniformCoversAllResidues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.Uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformReal();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRoughlyBalanced) {
  Rng rng(13);
  const int n = 100000;
  int low = 0;
  for (int i = 0; i < n; ++i) low += rng.Uniform(2) == 0 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(low) / n, 0.5, 0.02);
}

TEST(Zipf, SampleRangeRespected) {
  Rng rng(3);
  ZipfSampler zipf(10, 1.0);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Sample(rng), 10u);
}

TEST(Zipf, SkewConcentratesOnLowRanks) {
  Rng rng(5);
  ZipfSampler zipf(1000, 1.2);
  const int n = 20000;
  int rank0 = 0;
  for (int i = 0; i < n; ++i) rank0 += zipf.Sample(rng) == 0 ? 1 : 0;
  // Rank 0 should receive far more than the uniform share 1/1000 of draws.
  EXPECT_GT(rank0, n / 100);
}

TEST(Zipf, ZeroSkewIsUniformish) {
  Rng rng(6);
  ZipfSampler zipf(4, 0.0);
  std::vector<int> counts(4, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.25, 0.03);
  }
}

TEST(Hash, TupleHashDistinguishesOrderAndLength) {
  TupleHash h;
  EXPECT_NE(h(Tuple{1, 2}), h(Tuple{2, 1}));
  EXPECT_NE(h(Tuple{1}), h(Tuple{1, 0}));
  EXPECT_EQ(h(Tuple{5, 6, 7}), h(Tuple{5, 6, 7}));
}

TEST(ParseNumber, AcceptsWholeInRangeBase10Numbers) {
  std::uint64_t u = 0;
  EXPECT_TRUE(ParseNumber("0", &u));
  EXPECT_EQ(u, 0u);
  EXPECT_TRUE(ParseNumber("18446744073709551615", &u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  Value v = 0;
  EXPECT_TRUE(ParseNumber("-9223372036854775808", &v));
  EXPECT_EQ(v, std::numeric_limits<Value>::min());
  int i = 0;
  EXPECT_TRUE(ParseNumber("-3", &i));
  EXPECT_EQ(i, -3);
  double d = 0.0;
  EXPECT_TRUE(ParseNumber("0.125", &d));
  EXPECT_EQ(d, 0.125);
  EXPECT_TRUE(ParseNumber("1e-05", &d));
  EXPECT_EQ(d, 1e-05);
}

TEST(ParseNumber, RejectsSignsJunkAndOverflowWithoutWriting) {
  std::uint64_t u = 7;
  for (const char* bad :
       {"", "-1", "-0", "+1", " 1", "1 ", "1x", "0x10", "abc",
        "18446744073709551616", "12345678901234567890123"}) {
    EXPECT_FALSE(ParseNumber(bad, &u)) << "'" << bad << "'";
  }
  EXPECT_EQ(u, 7u) << "a rejected parse must leave the output untouched";
  int i = 7;
  EXPECT_FALSE(ParseNumber("abc", &i));
  EXPECT_FALSE(ParseNumber("2147483648", &i));
  EXPECT_EQ(i, 7);
  Value v = 7;
  EXPECT_FALSE(ParseNumber("9223372036854775808", &v));
  EXPECT_EQ(v, 7);
  double d = 7.0;
  EXPECT_FALSE(ParseNumber("1.5s", &d));
  EXPECT_FALSE(ParseNumber("1e999", &d));
  EXPECT_EQ(d, 7.0);
}

TEST(Stats, MergeAddsCountersAndMaxesPeak) {
  ExecStats a;
  a.memory_accesses = 10;
  a.cache_hits = 3;
  a.cache_entries_peak = 5;
  ExecStats b;
  b.memory_accesses = 7;
  b.cache_hits = 2;
  b.cache_entries_peak = 9;
  a.Merge(b);
  EXPECT_EQ(a.memory_accesses, 17u);
  EXPECT_EQ(a.cache_hits, 5u);
  EXPECT_EQ(a.cache_entries_peak, 9u);
}

TEST(Stats, ResetClearsEverything) {
  ExecStats s;
  s.memory_accesses = 5;
  s.cache_inserts = 2;
  s.Reset();
  EXPECT_EQ(s.memory_accesses, 0u);
  EXPECT_EQ(s.cache_inserts, 0u);
}

TEST(Stats, ToStringMentionsCounters) {
  ExecStats s;
  s.memory_accesses = 123;
  EXPECT_NE(s.ToString().find("mem_accesses=123"), std::string::npos);
}

TEST(Timer, MeasuresNonNegativeTime) {
  Timer t;
  EXPECT_GE(t.Seconds(), 0.0);
  t.Reset();
  EXPECT_GE(t.Millis(), 0.0);
}

}  // namespace
}  // namespace clftj
