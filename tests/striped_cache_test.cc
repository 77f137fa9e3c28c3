// Tests for StripedCacheManager — the lock-striped table behind the
// serving loop's persistent per-shape caches, which CachedTrieJoin probes
// and fills when one is injected (CachedTrieJoin::Options::
// shared_count_cache / shared_eval_cache). Three layers:
//   * StripedCacheManager unit tests: stripe budget slices sum exactly to
//     the global budget, stripe-count clamping, per-stripe eviction, and
//     the copy-out lookup contract.
//   * Randomized differential tests: CLFTJ-P over an injected table must
//     reproduce single-thread CLFTJ and private CLFTJ-P bit for bit —
//     counts, tuple sets and factorized expansions — at 1/2/3/8 threads,
//     unbounded and under entry/byte budgets.
//   * A many-thread contention stress (the TSan target in CI): concurrent
//     lookup/insert churn over few stripes with a deterministic
//     key -> value function, so torn reads or lost updates surface as
//     value mismatches even without a race detector.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "clftj/cache.h"
#include "clftj/cached_trie_join.h"
#include "query/patterns.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace clftj {
namespace {

using ::clftj::testing::CollectTuples;
using ::clftj::testing::Q;

constexpr int kThreadCounts[] = {1, 2, 3, 8};

PackedKey PK(const Tuple& t) {
  return PackedKey::Pack(t.data(), static_cast<int>(t.size()));
}

// A table's global budget: entries and/or payload bytes (0 = unbounded).
CacheOptions Budget(std::uint64_t capacity = 0,
                    std::uint64_t capacity_bytes = 0) {
  CacheOptions options;
  options.capacity = capacity;
  options.capacity_bytes = capacity_bytes;
  return options;
}

// --- StripedCacheManager unit tests ---------------------------------------

TEST(StripedCacheManager, MissThenHitCopiesPayloadOut) {
  StripedCacheManager<std::uint64_t> cache(Budget(), /*workers=*/4);
  std::uint64_t out = 0;
  EXPECT_FALSE(cache.Lookup(0, PK({5}), &out));
  cache.Insert(0, PK({5}), 42);
  ASSERT_TRUE(cache.Lookup(0, PK({5}), &out));
  EXPECT_EQ(out, 42u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(StripedCacheManager, NodesAreIsolated) {
  StripedCacheManager<std::uint64_t> cache(Budget(), 4);
  cache.Insert(0, PK({5}), 1);
  std::uint64_t out = 0;
  EXPECT_FALSE(cache.Lookup(1, PK({5}), &out))
      << "same key under another node must not hit";
}

TEST(StripedCacheManager, StripeBudgetsSumExactlyToGlobalCapacity) {
  // 100 entries over 8 stripes (4 workers): 100/8 = 12 each with
  // remainder 4 spread to the first four stripes — no flooring slack, the
  // slices *are* the budget.
  StripedCacheManager<std::uint64_t> cache(Budget(100), /*workers=*/4);
  EXPECT_EQ(cache.stripe_count(), 8);
  std::uint64_t total = 0;
  for (const auto& [cap, cap_bytes] : cache.StripeBudgetsForTest()) {
    EXPECT_GE(cap, 1u) << "a bounded stripe with a zero slice would be "
                          "unbounded (0 means no limit)";
    EXPECT_EQ(cap_bytes, 0u);
    total += cap;
  }
  EXPECT_EQ(total, 100u);
}

TEST(StripedCacheManager, StripeByteBudgetsSumExactlyToGlobalBytes) {
  StripedCacheManager<std::uint64_t> cache(Budget(0, /*capacity_bytes=*/1001),
                                           /*workers=*/4);
  EXPECT_EQ(cache.stripe_count(), 8);
  std::uint64_t total = 0;
  for (const auto& [cap, cap_bytes] : cache.StripeBudgetsForTest()) {
    EXPECT_EQ(cap, 0u);
    EXPECT_GE(cap_bytes, 1u);
    total += cap_bytes;
  }
  EXPECT_EQ(total, 1001u);
}

TEST(StripedCacheManager, StripeCountClampsToTinyBudgets) {
  // capacity 3 cannot feed 16 stripes at >= 1 entry each: the count halves
  // until every stripe's slice is positive.
  StripedCacheManager<std::uint64_t> tiny(Budget(3), /*workers=*/8);
  EXPECT_LE(tiny.stripe_count(), 2);
  std::uint64_t total = 0;
  for (const auto& [cap, cap_bytes] : tiny.StripeBudgetsForTest()) {
    EXPECT_GE(cap, 1u);
    total += cap;
  }
  EXPECT_EQ(total, 3u);
}

TEST(StripedCacheManager, ChooseStripesPolicy) {
  // Smallest power of two >= 2x workers, in [1, 64].
  EXPECT_EQ(StripedCacheManager<std::uint64_t>::ChooseStripes(Budget(), 1),
            2);
  EXPECT_EQ(StripedCacheManager<std::uint64_t>::ChooseStripes(Budget(), 4),
            8);
  EXPECT_EQ(StripedCacheManager<std::uint64_t>::ChooseStripes(Budget(), 48),
            64);
  // A bounded budget clamps the count so every slice is >= 1.
  EXPECT_EQ(StripedCacheManager<std::uint64_t>::ChooseStripes(Budget(2), 4),
            2);
}

TEST(StripedCacheManager, GlobalEntryBudgetHoldsUnderEvictionChurn) {
  const std::uint64_t capacity = 32;
  StripedCacheManager<std::uint64_t> cache(Budget(capacity), /*workers=*/2);
  for (Value k = 0; k < 1000; ++k) {
    cache.Insert(0, PK({k}), static_cast<std::uint64_t>(k));
    EXPECT_LE(cache.size(), capacity);
  }
  const ExecStats stats = cache.AggregatedStats();
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_LE(stats.cache_entries_peak, capacity)
      << "summed per-stripe peaks exceed the summed per-stripe budgets";
}

TEST(StripedCacheManager, AggregatedStatsSumStripeCounters) {
  StripedCacheManager<std::uint64_t> cache(Budget(), /*workers=*/2);
  std::uint64_t out;
  const int kKeys = 100;
  for (Value k = 0; k < kKeys; ++k) EXPECT_FALSE(cache.Lookup(0, PK({k}), &out));
  for (Value k = 0; k < kKeys; ++k) cache.Insert(0, PK({k}), 1);
  for (Value k = 0; k < kKeys; ++k) EXPECT_TRUE(cache.Lookup(0, PK({k}), &out));
  const ExecStats stats = cache.AggregatedStats();
  EXPECT_EQ(stats.cache_misses, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(stats.cache_hits, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(stats.cache_inserts, static_cast<std::uint64_t>(kKeys));
  EXPECT_GT(stats.memory_accesses, 0u);
}

// --- Grouped probes (LookupMany) ------------------------------------------

TEST(StripedCacheManager, LookupManyMatchesLookups) {
  // Two tables fed the same inserts answer random groups of keys (present
  // and absent, some repeated), one by LookupMany and one by Lookup calls,
  // each through a RunCache charging its own run: same hit masks and
  // payloads, the same hits and misses in each run's ExecStats, and the
  // same hit and miss totals on the stripes (AggregatedStats + HotHits).
  // Without hot slots the stripes' memory accesses agree too; with them a
  // group may take from a hot slot a hit that a Lookup after an earlier
  // key's publication takes under the lock. A budgeted table runs without
  // hot slots, where recency — and with it every eviction — must agree.
  struct Config {
    int workers;
    bool hot_reads;
    std::uint64_t capacity;
  };
  for (const Config& c : {Config{1, false, 0}, Config{4, false, 0},
                          Config{32, false, 0}, Config{1, true, 0},
                          Config{4, true, 0}, Config{4, false, 64}}) {
    SCOPED_TRACE(::testing::Message()
                 << "workers " << c.workers << " hot " << c.hot_reads
                 << " capacity " << c.capacity);
    StripedCacheManager<std::uint64_t> many(Budget(c.capacity), c.workers,
                                            c.hot_reads);
    StripedCacheManager<std::uint64_t> one(Budget(c.capacity), c.workers,
                                           c.hot_reads);
    ExecStats many_run;
    ExecStats one_run;
    RunCache<std::uint64_t> many_cache(CacheOptions{}, &many_run, &many);
    RunCache<std::uint64_t> one_cache(CacheOptions{}, &one_run, &one);
    Rng rng(91 + c.workers);
    for (int round = 0; round < 150; ++round) {
      for (int i = 0; i < 4; ++i) {
        const Value v = static_cast<Value>(rng.Uniform(200));
        many_cache.Insert(3, PK({v, -v}), static_cast<std::uint64_t>(v) + 11);
        one_cache.Insert(3, PK({v, -v}), static_cast<std::uint64_t>(v) + 11);
      }
      const int n = 1 + static_cast<int>(rng.Uniform(kMaxLookupGroup));
      std::vector<PackedKey> keys;
      for (int i = 0; i < n; ++i) {
        const Value v = static_cast<Value>(rng.Uniform(260));
        keys.push_back(PK({v, -v}));
      }
      std::vector<std::uint64_t> out(n, 0);
      const std::uint64_t mask =
          many_cache.LookupMany(3, keys.data(), n, out.data());
      for (int i = 0; i < n; ++i) {
        std::uint64_t want = 0;
        const bool hit = one_cache.Lookup(3, keys[i], &want);
        ASSERT_EQ((mask & LookupBit(i)) != 0, hit)
            << "round " << round << " key " << i;
        if (hit) {
          EXPECT_EQ(out[i], want);
        }
      }
      if (n < kMaxLookupGroup) {
        EXPECT_EQ(mask >> n, 0u);
      }
    }
    EXPECT_EQ(many_run.cache_hits, one_run.cache_hits);
    EXPECT_EQ(many_run.cache_misses, one_run.cache_misses);
    EXPECT_EQ(many_run.cache_inserts, one_run.cache_inserts);
    EXPECT_GT(many_run.cache_hits, 0u);
    EXPECT_GT(many_run.cache_misses, 0u);
    const ExecStats a = many.AggregatedStats();
    const ExecStats b = one.AggregatedStats();
    EXPECT_EQ(a.cache_hits + many.HotHits(), b.cache_hits + one.HotHits());
    EXPECT_EQ(a.cache_misses, b.cache_misses);
    EXPECT_EQ(a.cache_evictions, b.cache_evictions);
    EXPECT_EQ(many.size(), one.size());
    if (!c.hot_reads) {
      EXPECT_EQ(a.cache_hits, b.cache_hits);
      EXPECT_EQ(a.memory_accesses, b.memory_accesses);
    } else {
      EXPECT_GT(many.HotHits(), 0u);
    }
  }
}

TEST(StripedStress, LookupManyAgainstWritersAndInvalidation) {
  // Readers probe groups of keys with LookupMany while a writer inserts and
  // an invalidator erases keys and evicts whole nodes, on one hot-slot
  // table with a budget small enough to churn. Values are a deterministic
  // function of the key, so a torn read, a stale hot slot after an erase,
  // or a probe of a slot array another thread reallocated shows up as a
  // wrong value (or as a race under TSan, which CI runs this under).
  const auto value_of = [](NodeId node, Value k) {
    return static_cast<std::uint64_t>(node) * 0x9E3779B97F4A7C15ull +
           static_cast<std::uint64_t>(k) * 0xC2B2AE3D27D4EB4Full;
  };
  StripedCacheManager<std::uint64_t> cache(Budget(96), /*workers=*/2,
                                           /*hot_reads=*/true);
  constexpr Value kKeyRange = 160;
  constexpr int kReaders = 3;
  constexpr int kWriterOps = 30000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kReaders; ++t) {
    pool.emplace_back([&, t] {
      Rng rng(3000 + t);
      PackedKey keys[kMaxLookupGroup];
      Value ks[kMaxLookupGroup];
      std::uint64_t out[kMaxLookupGroup];
      while (!stop.load(std::memory_order_relaxed)) {
        const NodeId node = static_cast<NodeId>(rng.Uniform(2));
        const int n = 1 + static_cast<int>(rng.Uniform(kMaxLookupGroup));
        for (int i = 0; i < n; ++i) {
          ks[i] = static_cast<Value>(rng.Uniform(kKeyRange));
          keys[i] = PK({ks[i], ks[i] + 1});
        }
        const std::uint64_t mask = cache.LookupMany(node, keys, n, out);
        for (int i = 0; i < n; ++i) {
          if ((mask & LookupBit(i)) == 0) continue;
          hits.fetch_add(1, std::memory_order_relaxed);
          if (out[i] != value_of(node, ks[i])) bad.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([&] {
    Rng rng(4000);
    for (int i = 0; i < kWriterOps; ++i) {
      const NodeId node = static_cast<NodeId>(rng.Uniform(2));
      const Value k = static_cast<Value>(rng.Uniform(kKeyRange));
      cache.Insert(node, PK({k, k + 1}), value_of(node, k));
    }
  });
  std::thread invalidator([&] {
    Rng rng(5000);
    for (int i = 0; i < 300; ++i) {
      if (i % 50 == 49) {
        const NodeId victim = static_cast<NodeId>(rng.Uniform(2));
        cache.EvictIf([victim](NodeId node, const Value*, int) {
          return node == victim;
        });
        continue;
      }
      std::vector<PackedKey> erase;
      for (int j = 0; j < 8; ++j) {
        const Value k = static_cast<Value>(rng.Uniform(kKeyRange));
        erase.push_back(PK({k, k + 1}));
      }
      cache.Erase(static_cast<NodeId>(rng.Uniform(2)), erase);
    }
  });
  writer.join();
  invalidator.join();
  for (Value k = 0; k < 32; ++k) cache.Insert(0, PK({k, k + 1}), value_of(0, k));
  for (int spin = 0; spin < 5000 && hits.load() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
  EXPECT_LE(cache.size(), 96u);
}

// --- Randomized differential tests ----------------------------------------

struct Instance {
  Query query;
  Database db;
};

Instance MakeInstance(std::uint64_t seed) {
  Rng rng(seed * 9341 + 17);
  const int num_vars = 3 + static_cast<int>(rng.Uniform(4));  // 3..6
  const double p = 0.35 + 0.1 * static_cast<double>(rng.Uniform(5));
  Instance inst{RandomPatternQuery(num_vars, p, seed + 1), Database()};
  const int nodes = 25 + static_cast<int>(rng.Uniform(40));
  if (rng.Flip(0.5)) {
    inst.db.Put(PreferentialAttachmentGraph(
        "E", nodes, 2 + static_cast<int>(rng.Uniform(3)), seed + 2));
  } else {
    inst.db.Put(NearRegularGraph("E", nodes, nodes * 2, seed + 2));
  }
  return inst;
}

// CLFTJ-P with private shard caches (no injection).
CachedTrieJoin MakeSharded(int threads) {
  CachedTrieJoin::Options options;
  options.threads = threads;
  return CachedTrieJoin(options);
}

// CLFTJ-P over injected striped tables, the way the serving loop runs a
// request against its shape's persistent caches.
CachedTrieJoin MakeInjected(int threads,
                            StripedCacheManager<std::uint64_t>* count,
                            StripedCacheManager<FactorizedSetPtr>* eval) {
  CachedTrieJoin::Options options;
  options.threads = threads;
  options.shared_count_cache = count;
  options.shared_eval_cache = eval;
  return CachedTrieJoin(options);
}

class StripedDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(StripedDifferentialTest, CountsMatchPrivateAndSingleThread) {
  const Instance inst = MakeInstance(GetParam());
  CachedTrieJoin single;
  const std::uint64_t anchor = single.Count(inst.query, inst.db, {}).count;
  for (const int threads : kThreadCounts) {
    StripedCacheManager<std::uint64_t> table(Budget(), threads);
    CachedTrieJoin striped = MakeInjected(threads, &table, nullptr);
    const RunResult got = striped.Count(inst.query, inst.db, {});
    EXPECT_EQ(got.count, anchor)
        << inst.query.ToString() << " threads=" << threads;
    EXPECT_TRUE(got.ok());
    CachedTrieJoin priv = MakeSharded(threads);
    EXPECT_EQ(priv.Count(inst.query, inst.db, {}).count, anchor)
        << inst.query.ToString() << " threads=" << threads;
  }
}

TEST_P(StripedDifferentialTest, TupleSetsMatchSingleThread) {
  const Instance inst = MakeInstance(GetParam());
  CachedTrieJoin single;
  const std::vector<Tuple> anchor = CollectTuples(single, inst.query, inst.db);
  for (const int threads : kThreadCounts) {
    StripedCacheManager<FactorizedSetPtr> table(Budget(), threads);
    CachedTrieJoin striped = MakeInjected(threads, nullptr, &table);
    EXPECT_EQ(CollectTuples(striped, inst.query, inst.db), anchor)
        << inst.query.ToString() << " threads=" << threads;
  }
}

TEST_P(StripedDifferentialTest, FactorizedExpansionMatchesSingleThread) {
  // Maintain-everything runs build different sets than plan-default runs,
  // so EvaluateFactorized must leave an injected eval table untouched and
  // still reproduce the single-thread result from its private caches.
  const Instance inst = MakeInstance(GetParam());
  CachedTrieJoin single;
  RunResult single_run;
  const auto anchor =
      single.EvaluateFactorized(inst.query, inst.db, {}, &single_run);
  ASSERT_TRUE(anchor.has_value());
  std::vector<Tuple> anchor_tuples;
  anchor->Enumerate([&](const Tuple& t) { anchor_tuples.push_back(t); });
  std::sort(anchor_tuples.begin(), anchor_tuples.end());
  for (const int threads : kThreadCounts) {
    StripedCacheManager<FactorizedSetPtr> table(Budget(), threads);
    CachedTrieJoin striped = MakeInjected(threads, nullptr, &table);
    RunResult run;
    const auto got =
        striped.EvaluateFactorized(inst.query, inst.db, {}, &run);
    ASSERT_TRUE(got.has_value()) << "threads=" << threads;
    EXPECT_EQ(got->Count(), anchor->Count()) << "threads=" << threads;
    std::vector<Tuple> got_tuples;
    got->Enumerate([&](const Tuple& t) { got_tuples.push_back(t); });
    std::sort(got_tuples.begin(), got_tuples.end());
    EXPECT_EQ(got_tuples, anchor_tuples) << "threads=" << threads;
    EXPECT_EQ(table.size(), 0u) << "threads=" << threads;
  }
}

TEST_P(StripedDifferentialTest, BoundedStripedCacheStaysCorrect) {
  const Instance inst = MakeInstance(GetParam());
  CachedTrieJoin single;
  const std::uint64_t anchor = single.Count(inst.query, inst.db, {}).count;
  for (const int threads : kThreadCounts) {
    // A tight global entry budget (forces eviction churn in every stripe)
    // and a tight byte budget must both preserve the result.
    StripedCacheManager<std::uint64_t> tight_table(Budget(16), threads);
    CachedTrieJoin tight = MakeInjected(threads, &tight_table, nullptr);
    EXPECT_EQ(tight.Count(inst.query, inst.db, {}).count, anchor)
        << inst.query.ToString() << " threads=" << threads;
    EXPECT_LE(tight_table.size(), 16u);
    StripedCacheManager<std::uint64_t> bytes_table(
        Budget(0, /*capacity_bytes=*/2048), threads);
    CachedTrieJoin bytes = MakeInjected(threads, &bytes_table, nullptr);
    EXPECT_EQ(bytes.Count(inst.query, inst.db, {}).count, anchor)
        << inst.query.ToString() << " threads=" << threads;
    EXPECT_LE(bytes_table.payload_bytes(), 2048u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StripedDifferentialTest,
                         ::testing::Range(0, 12));

// --- Engine-level budget pins ---------------------------------------------

TEST(StripedSharing, BytePeakStaysWithinGlobalBudget) {
  Database db = testing::SmallSkewedDb(19, /*nodes=*/70, /*edges_per_node=*/3);
  const Query q = CycleQuery(4);
  const std::uint64_t budget = 16 * 1024;
  StripedCacheManager<FactorizedSetPtr> table(
      Budget(0, /*capacity_bytes=*/budget), /*workers=*/4);
  CachedTrieJoin striped = MakeInjected(4, nullptr, &table);
  std::uint64_t emitted = 0;
  const RunResult run =
      striped.Evaluate(q, db, [&emitted](const Tuple&) { ++emitted; }, {});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(emitted, testing::ReferenceCount(q, db));
  const ExecStats stats = table.AggregatedStats();
  EXPECT_GT(stats.cache_inserts, 0u);
  EXPECT_LE(stats.cache_bytes_peak, budget)
      << "summed per-stripe byte peaks must stay within the summed "
         "per-stripe budgets = the global budget";
}

TEST(StripedSharing, EntryPeakStaysWithinGlobalBudget) {
  Database db = testing::SmallSkewedDb(23, /*nodes=*/70, /*edges_per_node=*/3);
  const Query q = CycleQuery(5);
  const std::uint64_t capacity = 64;
  StripedCacheManager<std::uint64_t> table(Budget(capacity), /*workers=*/4);
  CachedTrieJoin striped = MakeInjected(4, &table, nullptr);
  const RunResult got = striped.Count(q, db, {});
  EXPECT_TRUE(got.ok());
  const ExecStats stats = table.AggregatedStats();
  EXPECT_GT(stats.cache_inserts, 0u);
  EXPECT_LE(stats.cache_entries_peak, capacity);
}

TEST(StripedSharing, SharedTableClosesTheMemoryAccessGap) {
  // What one table buys over K private caches: shards reuse each other's
  // subtree results instead of recomputing them, so the summed memory
  // accesses of a parallel run (the engine's plus the table's probes) come
  // back down toward, and must at least beat, private capacity/K caches on
  // a cache-friendly workload.
  Database db = testing::SmallSkewedDb(31, /*nodes=*/90, /*edges_per_node=*/4);
  const Query q = CycleQuery(5);
  CachedTrieJoin single;
  const RunResult anchor = single.Count(q, db, {});
  ASSERT_GT(anchor.stats.cache_hits, 0u) << "workload must exercise the cache";

  const int threads = 4;
  const RunResult priv = MakeSharded(threads).Count(q, db, {});
  StripedCacheManager<std::uint64_t> table(Budget(), threads);
  const RunResult striped =
      MakeInjected(threads, &table, nullptr).Count(q, db, {});
  EXPECT_EQ(priv.count, anchor.count);
  EXPECT_EQ(striped.count, anchor.count);
  EXPECT_LT(striped.stats.memory_accesses +
                table.AggregatedStats().memory_accesses,
            priv.stats.memory_accesses)
      << "shared striped table must beat private capacity/K caches";
}

TEST(StripedSharing, TimeoutPropagates) {
  Database db;
  db.Put(PreferentialAttachmentGraph("E", 800, 5, /*seed=*/3));
  const Query q = CycleQuery(5);
  RunLimits limits;
  limits.timeout_seconds = 1e-9;  // expires at the first stride sample
  StripedCacheManager<std::uint64_t> table(Budget(), /*workers=*/4);
  CachedTrieJoin striped = MakeInjected(4, &table, nullptr);
  const RunResult got = striped.Count(q, db, limits);
  EXPECT_EQ(got.status, RunStatus::kTimeout);
  EXPECT_FALSE(got.ok());
}

// --- Contention stress (the TSan target) ----------------------------------

TEST(StripedStress, ConcurrentChurnKeepsValuesConsistent) {
  // 8 threads hammer a 2-stripe bounded table over a small key range, so
  // every operation contends and eviction churns constantly. Values are a
  // deterministic function of the key: any hit returning something else
  // means a torn read, a lost update or cross-key corruption. Run under
  // TSan in CI (see .github/workflows/ci.yml).
  const auto value_of = [](NodeId node, Value k) {
    return static_cast<std::uint64_t>(node) * 0x9E3779B97F4A7C15ull +
           static_cast<std::uint64_t>(k) * 0xC2B2AE3D27D4EB4Full;
  };
  StripedCacheManager<std::uint64_t> cache(Budget(24), /*workers=*/1);
  ASSERT_EQ(cache.stripe_count(), 2);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  constexpr Value kKeyRange = 64;
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const NodeId node = static_cast<NodeId>(rng.Uniform(4));
        const Value k = static_cast<Value>(rng.Uniform(kKeyRange));
        const Value pair[2] = {k, k + 1};
        const PackedKey key = PackedKey::Pack(pair, 2);
        std::uint64_t out = 0;
        if (cache.Lookup(node, key, &out)) {
          if (out != value_of(node, k)) bad.fetch_add(1);
        } else {
          cache.Insert(node, key, value_of(node, k));
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_LE(cache.size(), 24u);
  const ExecStats stats = cache.AggregatedStats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_LE(stats.cache_entries_peak, 24u);
}

// --- Lock-free hot-read path (seqlock slots) ------------------------------

TEST(StripedCacheManager, HotReadsServeSameValuesAsLockedPath) {
  StripedCacheManager<std::uint64_t> cache(Budget(), /*workers=*/4,
                                           /*hot_reads=*/true);
  ASSERT_TRUE(cache.hot_reads_enabled());
  for (Value k = 0; k < 32; ++k) {
    cache.Insert(0, PK({k, k + 1}), static_cast<std::uint64_t>(k) * 3 + 1);
  }
  // Inserts publish to the hot slots, so re-reads can resolve without the
  // stripe mutex — and must return exactly the locked path's values.
  std::uint64_t out = 0;
  for (int round = 0; round < 3; ++round) {
    for (Value k = 0; k < 32; ++k) {
      ASSERT_TRUE(cache.Lookup(0, PK({k, k + 1}), &out));
      EXPECT_EQ(out, static_cast<std::uint64_t>(k) * 3 + 1);
    }
  }
  EXPECT_GT(cache.HotHits(), 0u);
}

TEST(StripedCacheManager, EvictIfClearsHotSlots) {
  // Targeted invalidation must reach the hot slots: a seqlock read serving
  // an entry EvictIf removed would resurrect stale pre-delta state.
  StripedCacheManager<std::uint64_t> cache(Budget(), /*workers=*/4,
                                           /*hot_reads=*/true);
  cache.Insert(0, PK({7, 8}), 99);
  std::uint64_t out = 0;
  ASSERT_TRUE(cache.Lookup(0, PK({7, 8}), &out));  // hot after this
  cache.EvictIf([](NodeId, const Value*, int) { return true; });
  EXPECT_FALSE(cache.Lookup(0, PK({7, 8}), &out));
}

TEST(StripedCacheManager, EraseRemovesTheKeysAndTheirHotSlots) {
  // Exact delta invalidation erases a key set: each key leaves the table
  // and its hot slot, other entries stay, and a key the table no longer
  // holds still loses its hot slot — a capacity eviction can leave an
  // entry readable there.
  StripedCacheManager<std::uint64_t> cache(Budget(), /*workers=*/4,
                                           /*hot_reads=*/true);
  cache.Insert(0, PK({7, 8}), 99);
  cache.Insert(0, PK({1, 2}), 5);
  std::uint64_t out = 0;
  ASSERT_TRUE(cache.Lookup(0, PK({7, 8}), &out));  // hot after this
  EXPECT_EQ(cache.Erase(0, {PK({7, 8}), PK({9, 9})}), 1u);
  EXPECT_FALSE(cache.Lookup(0, PK({7, 8}), &out));
  ASSERT_TRUE(cache.Lookup(0, PK({1, 2}), &out));
  EXPECT_EQ(out, 5u);
  EXPECT_EQ(cache.Erase(1, {PK({1, 2})}), 0u) << "another node's key";

  CacheOptions one;
  one.capacity = 1;
  StripedCacheManager<std::uint64_t> tiny(one, /*workers=*/1,
                                          /*hot_reads=*/true);
  tiny.Insert(0, PK({7, 8}), 99);
  tiny.Insert(0, PK({1, 2}), 5);  // evicts (7,8) from the table
  ASSERT_EQ(tiny.size(), 1u);
  ASSERT_TRUE(tiny.Lookup(0, PK({7, 8}), &out)) << "lingers in its hot slot";
  EXPECT_EQ(tiny.Erase(0, {PK({7, 8})}), 0u);
  EXPECT_FALSE(tiny.Lookup(0, PK({7, 8}), &out));
  EXPECT_TRUE(tiny.Lookup(0, PK({1, 2}), &out));
}

TEST(StripedStress, HotReadsEightThreadsAgainstWriterChurn) {
  // 8 readers hammer a hot key set through the seqlock path while a writer
  // keeps inserting (publishing) and bulk-evicting (clearing hot slots).
  // Values are a deterministic function of the key, so a torn seqlock read
  // or a stale post-evict hot hit surfaces as a value mismatch. Run under
  // TSan in CI (see .github/workflows/ci.yml).
  const auto value_of = [](Value k) {
    return static_cast<std::uint64_t>(k) * 0xC2B2AE3D27D4EB4Full + 5;
  };
  StripedCacheManager<std::uint64_t> cache(Budget(), /*workers=*/1,
                                           /*hot_reads=*/true);
  constexpr Value kKeyRange = 48;
  constexpr int kReaders = 8;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(2000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const Value k = static_cast<Value>(rng.Uniform(kKeyRange));
        const Value pair[2] = {k, k + 1};
        std::uint64_t out = 0;
        if (cache.Lookup(0, PackedKey::Pack(pair, 2), &out)) {
          if (out != value_of(k)) bad.fetch_add(1);
          hits.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int round = 0; round < 400; ++round) {
    for (Value k = 0; k < kKeyRange; ++k) {
      const Value pair[2] = {k, k + 1};
      cache.Insert(0, PackedKey::Pack(pair, 2), value_of(k));
    }
    if (round % 16 == 15) {
      cache.EvictIf([](NodeId, const Value*, int) { return true; });
    }
  }
  // Leave the cache warm and keep readers spinning until the fast path has
  // provably engaged: on a single core the churn loop above can finish (its
  // last round evicts everything) before any reader was ever scheduled.
  for (Value k = 0; k < kKeyRange; ++k) {
    const Value pair[2] = {k, k + 1};
    cache.Insert(0, PackedKey::Pack(pair, 2), value_of(k));
  }
  for (int spin = 0; spin < 5000 && (hits.load() == 0 || cache.HotHits() == 0);
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
  EXPECT_GT(cache.HotHits(), 0u) << "seqlock fast path never engaged";
}

TEST(StripedStress, ManyThreadEngineRunsStayCorrect) {
  // End-to-end contention: 8 workers over one injected two-stripe table
  // with a tight budget, kept across repeated runs as the serving loop
  // keeps a shape's cache across requests; each run must reproduce the
  // single-thread count.
  Database db = testing::SmallSkewedDb(47, /*nodes=*/80, /*edges_per_node=*/3);
  const Query q = CycleQuery(5);
  CachedTrieJoin single;
  const std::uint64_t anchor = single.Count(q, db, {}).count;
  StripedCacheManager<std::uint64_t> table(Budget(32), /*workers=*/1);
  ASSERT_EQ(table.stripe_count(), 2);
  for (int round = 0; round < 3; ++round) {
    CachedTrieJoin striped = MakeInjected(8, &table, nullptr);
    EXPECT_EQ(striped.Count(q, db, {}).count, anchor) << "round " << round;
  }
  EXPECT_LE(table.size(), 32u);
}

}  // namespace
}  // namespace clftj
