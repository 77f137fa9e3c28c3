#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clftj/cache.h"
#include "clftj/cached_trie_join.h"
#include "clftj/factorized.h"
#include "data/generators.h"
#include "tests/test_util.h"
#include "util/hash.h"
#include "util/packed_key.h"

namespace clftj {
namespace {

// Packs a (<= 2 dimension) key from a literal.
PackedKey PK(const Tuple& t) {
  return PackedKey::Pack(t.data(), static_cast<int>(t.size()));
}

TEST(PackedKey, InlineRoundTrip) {
  const Tuple t = {42, -7};
  const PackedKey k = PK(t);
  EXPECT_EQ(k.dims, 2u);
  EXPECT_EQ(k.At(0), 42);
  EXPECT_EQ(k.At(1), -7);
}

TEST(PackedKey, HashDependsOnWidthAndContent) {
  // {5} vs {5,0}: same leading value, different width — the keys (and their
  // hashes, with overwhelming probability) must differ.
  const PackedKey one = PK({5});
  const PackedKey two = PK({5, 0});
  EXPECT_NE(one.dims, two.dims);
  EXPECT_NE(one.Hash(1), two.Hash(1));
  EXPECT_EQ(one.Hash(1), PK({5}).Hash(1));
}

TEST(CacheManager, MissThenHit) {
  ExecStats stats;
  CacheManager<std::uint64_t> cache(CacheOptions{}, &stats);
  EXPECT_EQ(cache.Lookup(0, PK({5})), nullptr);
  cache.Insert(0, PK({5}), 42);
  const std::uint64_t* hit = cache.Lookup(0, PK({5}));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 42u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_inserts, 1u);
}

TEST(CacheManager, NodesAreIsolated) {
  ExecStats stats;
  CacheManager<std::uint64_t> cache(CacheOptions{}, &stats);
  cache.Insert(0, PK({5}), 1);
  EXPECT_EQ(cache.Lookup(1, PK({5})), nullptr)
      << "same key under another node must not hit";
}

TEST(CacheManager, SameInlineBitsDifferentWidthAreDistinct) {
  // {5} packs as lo=5,hi=0 and {5,0} packs identically except for dims;
  // the dims field must keep them apart.
  ExecStats stats;
  CacheManager<std::uint64_t> cache(CacheOptions{}, &stats);
  cache.Insert(0, PK({5}), 1);
  cache.Insert(0, PK({5, 0}), 2);
  cache.Insert(0, PK({}), 3);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(*cache.Lookup(0, PK({5})), 1u);
  EXPECT_EQ(*cache.Lookup(0, PK({5, 0})), 2u);
  EXPECT_EQ(*cache.Lookup(0, PK({})), 3u);
}

TEST(CacheManager, EmptyKeySupported) {
  ExecStats stats;
  CacheManager<std::uint64_t> cache(CacheOptions{}, &stats);
  cache.Insert(0, PK({}), 7);
  const std::uint64_t* hit = cache.Lookup(0, PK({}));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 7u);
}

TEST(CacheManager, NegativeValuesInKeys) {
  ExecStats stats;
  CacheManager<std::uint64_t> cache(CacheOptions{}, &stats);
  cache.Insert(0, PK({-3, -9}), 11);
  ASSERT_NE(cache.Lookup(0, PK({-3, -9})), nullptr);
  EXPECT_EQ(cache.Lookup(0, PK({-3, 9})), nullptr);
}

TEST(CacheManager, InsertReplacesValue) {
  ExecStats stats;
  CacheManager<std::uint64_t> cache(CacheOptions{}, &stats);
  cache.Insert(0, PK({1}), 10);
  cache.Insert(0, PK({1}), 20);
  EXPECT_EQ(*cache.Lookup(0, PK({1})), 20u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CacheManager, RejectNewAtCapacity) {
  ExecStats stats;
  CacheOptions options;
  options.capacity = 2;
  options.eviction = CacheOptions::Eviction::kRejectNew;
  CacheManager<std::uint64_t> cache(options, &stats);
  cache.Insert(0, PK({1}), 1);
  cache.Insert(0, PK({2}), 2);
  cache.Insert(0, PK({3}), 3);  // rejected
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(stats.cache_rejects, 1u);
  EXPECT_EQ(cache.Lookup(0, PK({3})), nullptr);
  EXPECT_NE(cache.Lookup(0, PK({1})), nullptr);
}

TEST(CacheManager, LruEvictsLeastRecentlyUsed) {
  ExecStats stats;
  CacheOptions options;
  options.capacity = 2;
  options.eviction = CacheOptions::Eviction::kLru;
  CacheManager<std::uint64_t> cache(options, &stats);
  cache.Insert(0, PK({1}), 1);
  cache.Insert(0, PK({2}), 2);
  cache.Lookup(0, PK({1}));        // refresh key {1}
  cache.Insert(0, PK({3}), 3);     // evicts {2}
  EXPECT_EQ(stats.cache_evictions, 1u);
  EXPECT_EQ(cache.Lookup(0, PK({2})), nullptr);
  EXPECT_NE(cache.Lookup(0, PK({1})), nullptr);
  EXPECT_NE(cache.Lookup(0, PK({3})), nullptr);
}

TEST(CacheManager, LruEvictionIsGlobalAcrossNodes) {
  ExecStats stats;
  CacheOptions options;
  options.capacity = 2;
  options.eviction = CacheOptions::Eviction::kLru;
  CacheManager<std::uint64_t> cache(options, &stats);
  cache.Insert(0, PK({1}), 1);
  cache.Insert(1, PK({1}), 2);
  cache.Insert(2, PK({1}), 3);  // evicts node 0's entry (oldest globally)
  EXPECT_EQ(cache.Lookup(0, PK({1})), nullptr);
  EXPECT_NE(cache.Lookup(1, PK({1})), nullptr);
  EXPECT_NE(cache.Lookup(2, PK({1})), nullptr);
}

TEST(CacheManager, LruEvictionOrderFollowsRecencyExactly) {
  // Fill a budget of 3 across nodes, refresh in a known pattern, then keep
  // inserting and check the eviction sequence is exactly recency order.
  ExecStats stats;
  CacheOptions options;
  options.capacity = 3;
  CacheManager<std::uint64_t> cache(options, &stats);
  cache.Insert(0, PK({1}), 1);   // order (MRU->LRU): 1
  cache.Insert(1, PK({2}), 2);   // 2 1
  cache.Insert(0, PK({3}), 3);   // 3 2 1
  cache.Lookup(0, PK({1}));      // 1 3 2
  cache.Lookup(1, PK({2}));      // 2 1 3
  cache.Insert(0, PK({4}), 4);   // evicts {3}: 4 2 1
  EXPECT_EQ(cache.Lookup(0, PK({3})), nullptr);
  cache.Insert(0, PK({5}), 5);   // evicts {1}: 5 4 2
  EXPECT_EQ(cache.Lookup(0, PK({1})), nullptr);
  cache.Insert(0, PK({6}), 6);   // evicts node 1's {2}: 6 5 4
  EXPECT_EQ(cache.Lookup(1, PK({2})), nullptr);
  EXPECT_NE(cache.Lookup(0, PK({4})), nullptr);
  EXPECT_NE(cache.Lookup(0, PK({5})), nullptr);
  EXPECT_NE(cache.Lookup(0, PK({6})), nullptr);
  EXPECT_EQ(stats.cache_evictions, 3u);
}

TEST(CacheManager, CapacityOne) {
  ExecStats stats;
  CacheOptions options;
  options.capacity = 1;
  CacheManager<std::uint64_t> cache(options, &stats);
  cache.Insert(0, PK({1}), 1);
  cache.Insert(0, PK({2}), 2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Lookup(0, PK({2})), nullptr);
}

TEST(CacheManager, PeakTracksHighWaterMark) {
  ExecStats stats;
  CacheManager<std::uint64_t> cache(CacheOptions{}, &stats);
  for (Value v = 0; v < 10; ++v) cache.Insert(0, PK({v}), 1);
  EXPECT_EQ(stats.cache_entries_peak, 10u);
}

TEST(CacheManager, BoundedReplaceDoesNotEvict) {
  ExecStats stats;
  CacheOptions options;
  options.capacity = 2;
  CacheManager<std::uint64_t> cache(options, &stats);
  cache.Insert(0, PK({1}), 1);
  cache.Insert(0, PK({2}), 2);
  cache.Insert(0, PK({1}), 99);  // replace, not a new entry
  EXPECT_EQ(stats.cache_evictions, 0u);
  EXPECT_EQ(*cache.Lookup(0, PK({1})), 99u);
}

TEST(CacheManager, SurvivesGrowthRehash) {
  // Push far past the initial table size so the flat table rehashes several
  // times; every entry must stay reachable with its value.
  ExecStats stats;
  CacheManager<std::uint64_t> cache(CacheOptions{}, &stats);
  constexpr Value kN = 20000;
  for (Value v = 0; v < kN; ++v) {
    cache.Insert(static_cast<NodeId>(v & 3), PK({v, v * 31}),
                 static_cast<std::uint64_t>(v) + 1);
  }
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kN));
  for (Value v = 0; v < kN; ++v) {
    const std::uint64_t* hit =
        cache.Lookup(static_cast<NodeId>(v & 3), PK({v, v * 31}));
    ASSERT_NE(hit, nullptr) << v;
    EXPECT_EQ(*hit, static_cast<std::uint64_t>(v) + 1);
  }
}

TEST(CacheManager, LruOrderSurvivesGrowthRehash) {
  // Recency must be preserved across genuine rehashes. Entry-bounded
  // caches pre-size for their budget and never grow, and unbounded ones
  // keep no recency, so drive a byte-budgeted cache: a budget far above
  // what is inserted starts it at 16 slots and takes it through several
  // doublings (16 -> 2048 slots). The chain must still be exact reverse
  // insertion order afterwards — Rehash's MRU-first re-link walk is what
  // this pins.
  ExecStats stats;
  CacheOptions options;
  options.capacity_bytes = 1u << 30;
  CacheManager<std::uint64_t> cache(options, &stats);
  constexpr Value kN = 1000;
  for (Value v = 0; v < kN; ++v) {
    cache.Insert(0, PK({v}), static_cast<std::uint64_t>(v));
  }
  EXPECT_EQ(stats.cache_evictions, 0u);
  const std::vector<std::uint64_t> order = cache.LruOrderForTest();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kN));
  for (Value v = 0; v < kN; ++v) {
    EXPECT_EQ(order[v], static_cast<std::uint64_t>(kN - 1 - v)) << v;
  }
}

TEST(CacheManager, LruOrderSurvivesEvictionBackwardShift) {
  // Backward-shift deletion physically moves slots; the moved entries'
  // chain links must be re-pointed. Keep a bounded cache churning, then
  // compare the full chain against expected recency.
  ExecStats stats;
  CacheOptions options;
  options.capacity = 4;
  CacheManager<std::uint64_t> cache(options, &stats);
  for (Value v = 0; v < 100; ++v) {
    cache.Insert(0, PK({v}), static_cast<std::uint64_t>(v));
    if (v >= 2) cache.Lookup(0, PK({v - 2}));  // refresh an older entry
  }
  // After the loop: inserts 96..99 with refreshes of 95..97 interleaved.
  // Chain (MRU->LRU): lookup(97), insert(99), lookup(96), insert(98).
  const std::vector<std::uint64_t> order = cache.LruOrderForTest();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{97, 99, 96, 98}));
}

// --- In-place targeted eviction ------------------------------------------

TEST(CacheManager, LookupManyMatchesLookupsInOrder) {
  // Two tables fed the same inserts answer random groups of keys (present
  // and absent, some repeated), one by LookupMany and one by Lookup calls
  // in order: same hit masks and payloads, same counters and memory
  // accesses, and for the budgeted table the same recency order, which
  // the inserts between groups turn into the same evictions.
  for (const std::uint64_t capacity : {std::uint64_t{0}, std::uint64_t{40}}) {
    SCOPED_TRACE(capacity == 0 ? "unbounded" : "capacity 40");
    CacheOptions options;
    options.capacity = capacity;
    ExecStats many_stats;
    ExecStats one_stats;
    CacheManager<std::uint64_t> many(options, &many_stats);
    CacheManager<std::uint64_t> one(options, &one_stats);
    std::mt19937_64 rng(77);
    for (int round = 0; round < 200; ++round) {
      for (int i = 0; i < 5; ++i) {
        const Value v = static_cast<Value>(rng() % 120);
        many.Insert(1, PK({v, v + 1}), static_cast<std::uint64_t>(v) * 7);
        one.Insert(1, PK({v, v + 1}), static_cast<std::uint64_t>(v) * 7);
      }
      const int n = 1 + static_cast<int>(rng() % kMaxLookupGroup);
      std::vector<PackedKey> keys;
      for (int i = 0; i < n; ++i) {
        const Value v = static_cast<Value>(rng() % 160);
        keys.push_back(PK({v, v + 1}));
      }
      std::vector<std::uint64_t> out(n, 0);
      const std::uint64_t mask = many.LookupMany(1, keys.data(), n, out.data());
      for (int i = 0; i < n; ++i) {
        const std::uint64_t* hit = one.Lookup(1, keys[i]);
        ASSERT_EQ((mask & LookupBit(i)) != 0, hit != nullptr)
            << "round " << round << " key " << i;
        if (hit != nullptr) {
          EXPECT_EQ(out[i], *hit);
        }
      }
      if (n < kMaxLookupGroup) {
        EXPECT_EQ(mask >> n, 0u);
      }
    }
    EXPECT_EQ(many_stats.cache_hits, one_stats.cache_hits);
    EXPECT_EQ(many_stats.cache_misses, one_stats.cache_misses);
    EXPECT_EQ(many_stats.cache_evictions, one_stats.cache_evictions);
    EXPECT_EQ(many_stats.memory_accesses, one_stats.memory_accesses);
    EXPECT_EQ(many.LruOrderForTest(), one.LruOrderForTest());
    EXPECT_GT(many_stats.cache_hits, 0u);
    EXPECT_GT(many_stats.cache_misses, 0u);
  }
}

TEST(CacheManager, EvictIfInPlaceKeepsSurvivorsAndRecency) {
  // Two tables of 16 slots that never grow here: a bounded cache of
  // capacity 8 (pre-sized for its budget) and an unbounded one, which
  // starts at 16 slots and holds up to 8 entries before its first
  // doubling. Keys are drawn mostly from those whose home slot is one of
  // the last four, so their probe chains wrap past the table's end — the
  // case where backward shift moves an already-examined entry into the
  // slot EvictIf re-examines. Random partial predicates must remove
  // exactly their matches and leave the survivors findable; the bounded
  // cache must also keep them in the reference model's recency order.
  constexpr std::uint64_t kMask = 15;
  struct Key {
    NodeId node;
    Tuple values;
  };
  std::vector<Key> near_end;
  std::vector<Key> anywhere;
  for (Value v = 0; near_end.size() < 64 || anywhere.size() < 16; ++v) {
    // Keys of one and of two values, the two widths a PackedKey holds.
    const Tuple values = v % 3 == 0   ? Tuple{v}
                         : v % 3 == 1 ? Tuple{v, -v}
                                      : Tuple{7, v};
    const NodeId node = static_cast<NodeId>(v % 2);
    const std::uint64_t ideal = CacheKeyHash(node, PK(values)) & kMask;
    if (ideal >= 12 && near_end.size() < 64) {
      near_end.push_back({node, values});
    } else if (ideal < 12 && anywhere.size() < 16) {
      anywhere.push_back({node, values});
    }
  }
  for (const std::uint64_t capacity : {std::uint64_t{8}, std::uint64_t{0}}) {
    SCOPED_TRACE(capacity == 0 ? "unbounded" : "capacity 8");
    std::mt19937_64 rng(2024);
    for (int trial = 0; trial < 500; ++trial) {
      ExecStats stats;
      CacheOptions options;
      options.capacity = capacity;
      CacheManager<std::uint64_t> cache(options, &stats);
      // Pick up to 8 distinct keys, at most two from anywhere in the table.
      std::vector<Key> keys;
      std::vector<std::size_t> order(near_end.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(), rng);
      const std::size_t wanted = 3 + rng() % 6;
      for (std::size_t i = 0; keys.size() + 2 < wanted; ++i) {
        keys.push_back(near_end[order[i]]);
      }
      while (keys.size() < wanted) keys.push_back(anywhere[rng() % 16]);
      // Distinct keys only (the two draws from `anywhere` may repeat).
      if (keys[keys.size() - 1].values == keys[keys.size() - 2].values &&
          keys[keys.size() - 1].node == keys[keys.size() - 2].node) {
        keys.pop_back();
      }
      // Reference recency model, MRU first, of payload = key index.
      std::list<std::uint64_t> model;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_TRUE(cache.Insert(keys[i].node, PK(keys[i].values), i));
        model.push_front(i);
      }
      for (int touch = 0; touch < 4; ++touch) {
        const std::uint64_t i = rng() % keys.size();
        ASSERT_NE(cache.Lookup(keys[i].node, PK(keys[i].values)), nullptr);
        model.remove(i);
        model.push_front(i);
      }
      std::vector<bool> doomed(keys.size());
      std::size_t victims = 0;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        doomed[i] = rng() % 2 == 0;
        victims += doomed[i] ? 1 : 0;
      }
      const auto index_of = [&keys](NodeId node, const Value* values,
                                    int dims) {
        for (std::size_t i = 0; i < keys.size(); ++i) {
          if (keys[i].node == node &&
              keys[i].values == Tuple(values, values + dims)) {
            return i;
          }
        }
        ADD_FAILURE() << "EvictIf saw a key that was never inserted";
        return keys.size();
      };
      const auto pred = [&](NodeId node, const Value* values, int dims) {
        const std::size_t i = index_of(node, values, dims);
        return i < keys.size() && doomed[i];
      };
      ASSERT_EQ(cache.EvictIf(pred), victims) << "trial " << trial;
      ASSERT_EQ(cache.size(), keys.size() - victims);

      if (capacity > 0) {
        std::vector<std::uint64_t> want_order;
        for (const std::uint64_t i : model) {
          if (!doomed[i]) want_order.push_back(i);
        }
        EXPECT_EQ(cache.LruOrderForTest(), want_order) << "trial " << trial;
      }
      cache.ForEach(
          [&](NodeId node, const Value* values, int dims, std::uint64_t) {
            EXPECT_FALSE(pred(node, values, dims)) << "a match was left";
          });
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::uint64_t* hit =
            cache.Lookup(keys[i].node, PK(keys[i].values));
        if (doomed[i]) {
          EXPECT_EQ(hit, nullptr) << "trial " << trial << " key " << i;
        } else {
          ASSERT_NE(hit, nullptr) << "trial " << trial << " key " << i;
          EXPECT_EQ(*hit, i);
        }
      }
    }
  }
}

// --- Differential test against a map-based oracle -------------------------

/// Reference implementation with the semantics the flat cache must match:
/// a map per (node, key tuple) plus an explicit recency list (this is
/// essentially the seed's std::list-based cache).
class OracleCache {
 public:
  explicit OracleCache(const CacheOptions& options) : options_(options) {}

  const std::uint64_t* Lookup(NodeId node, const Tuple& key) {
    const auto it = map_.find({node, key});
    if (it == map_.end()) return nullptr;
    if (options_.capacity > 0) {
      recency_.splice(recency_.begin(), recency_, it->second);
    }
    return &it->second->value;
  }

  bool Insert(NodeId node, const Tuple& key, std::uint64_t value) {
    const auto it = map_.find({node, key});
    if (it != map_.end()) {
      it->second->value = value;
      if (options_.capacity > 0) {
        recency_.splice(recency_.begin(), recency_, it->second);
      }
      return true;
    }
    if (options_.capacity > 0 && map_.size() >= options_.capacity) {
      if (options_.eviction == CacheOptions::Eviction::kRejectNew) {
        return false;
      }
      map_.erase(recency_.back().id);
      recency_.pop_back();
    }
    recency_.push_front({{node, key}, value});
    map_[{node, key}] = recency_.begin();
    return true;
  }

  std::size_t size() const { return map_.size(); }

 private:
  struct Id {
    NodeId node;
    Tuple key;
    bool operator==(const Id& o) const {
      return node == o.node && key == o.key;
    }
  };
  struct IdHash {
    std::size_t operator()(const Id& id) const {
      return HashCombine(TupleHash()(id.key),
                         static_cast<std::uint64_t>(id.node));
    }
  };
  struct Entry {
    Id id;
    std::uint64_t value;
  };
  CacheOptions options_;
  std::list<Entry> recency_;
  std::unordered_map<Id, std::list<Entry>::iterator, IdHash> map_;
};

class CacheDifferentialTest : public ::testing::TestWithParam<int> {};

CacheOptions DifferentialConfig(int index) {
  CacheOptions options;
  switch (index) {
    case 0: break;  // unbounded
    case 1:
      options.capacity = 8;
      options.eviction = CacheOptions::Eviction::kLru;
      break;
    case 2:
      options.capacity = 8;
      options.eviction = CacheOptions::Eviction::kRejectNew;
      break;
    case 3:
      options.capacity = 1;
      break;
    default:
      options.capacity = 100;
      break;
  }
  return options;
}

TEST_P(CacheDifferentialTest, RandomizedWorkloadMatchesOracle) {
  const CacheOptions options = DifferentialConfig(GetParam());
  ExecStats stats;
  CacheManager<std::uint64_t> cache(options, &stats);
  OracleCache oracle(options);
  std::mt19937_64 rng(12345 + GetParam());
  // Small domains force key reuse, collisions, replacement and (bounded)
  // heavy eviction; dims 0..2 covers every key width.
  std::uniform_int_distribution<int> node_dist(0, 3);
  std::uniform_int_distribution<int> dims_dist(0, 2);
  std::uniform_int_distribution<Value> value_dist(0, 11);
  std::uniform_int_distribution<int> op_dist(0, 2);
  for (int step = 0; step < 50000; ++step) {
    const NodeId node = node_dist(rng);
    Tuple key(dims_dist(rng));
    for (Value& v : key) v = value_dist(rng);
    const PackedKey packed = PK(key);
    if (op_dist(rng) == 0) {
      const std::uint64_t payload = static_cast<std::uint64_t>(step);
      cache.Insert(node, packed, payload);
      oracle.Insert(node, key, payload);
    } else {
      const std::uint64_t* got = cache.Lookup(node, packed);
      const std::uint64_t* want = oracle.Lookup(node, key);
      ASSERT_EQ(got == nullptr, want == nullptr)
          << "step " << step << " presence diverged";
      if (got != nullptr) {
        ASSERT_EQ(*got, *want) << "step " << step << " value diverged";
      }
    }
    ASSERT_EQ(cache.size(), oracle.size()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, CacheDifferentialTest,
                         ::testing::Range(0, 5));

TEST(CacheOptions, ToStringDescribesPolicy) {
  CacheOptions options;
  EXPECT_NE(options.ToString().find("unbounded"), std::string::npos);
  options.capacity = 100;
  options.admission = CacheOptions::Admission::kSupportThreshold;
  options.support_threshold = 5;
  const std::string s = options.ToString();
  EXPECT_NE(s.find("100"), std::string::npos);
  EXPECT_NE(s.find("support>=5"), std::string::npos);
  options.enabled = false;
  EXPECT_EQ(options.ToString(), "cache=off");
}

// --- Byte-budget capacity (CacheOptions::capacity_bytes) ------------------

TEST(CacheByteBudget, EvictsByPayloadBytesNeverExceedingBudget) {
  ExecStats stats;
  CacheOptions options;
  options.capacity_bytes = 64;  // 8 uint64 payloads
  CacheManager<std::uint64_t> cache(options, &stats);
  for (Value v = 0; v < 50; ++v) cache.Insert(0, PK({v}), 1000 + v);
  EXPECT_LE(cache.payload_bytes(), options.capacity_bytes);
  EXPECT_LE(stats.cache_bytes_peak, options.capacity_bytes);
  EXPECT_GT(stats.cache_bytes_peak, 0u);
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_EQ(cache.size(), 8u);  // budget / sizeof(payload)
  // LRU semantics carry over: the most recent keys survive.
  EXPECT_NE(cache.Lookup(0, PK({49})), nullptr);
  EXPECT_EQ(cache.Lookup(0, PK({0})), nullptr);
}

TEST(CacheByteBudget, RejectNewStopsAtBudget) {
  ExecStats stats;
  CacheOptions options;
  options.capacity_bytes = 16;  // two uint64 payloads
  options.eviction = CacheOptions::Eviction::kRejectNew;
  CacheManager<std::uint64_t> cache(options, &stats);
  cache.Insert(0, PK({1}), 1);
  cache.Insert(0, PK({2}), 2);
  cache.Insert(0, PK({3}), 3);  // would overshoot: rejected
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(stats.cache_rejects, 1u);
  EXPECT_LE(cache.payload_bytes(), options.capacity_bytes);
}

TEST(CacheByteBudget, OversizedPayloadIsRejectedOutright) {
  ExecStats stats;
  CacheOptions options;
  options.capacity_bytes = 64;
  CacheManager<FactorizedSetPtr> cache(options, &stats);
  auto big = std::make_shared<FactorizedSet>();
  big->entries.resize(100);  // entry array alone dwarfs the budget
  ASSERT_GT(CachePayloadBytes(FactorizedSetPtr(big)), options.capacity_bytes);
  cache.Insert(0, PK({1}), big);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(stats.cache_rejects, 1u);
  EXPECT_EQ(stats.cache_bytes_peak, 0u);
}

TEST(CacheByteBudget, GrownReplacementShedsLruEntries) {
  auto small = std::make_shared<FactorizedSet>();
  small->entries.resize(1);
  auto grown = std::make_shared<FactorizedSet>();
  grown->entries.resize(5);
  const std::uint64_t small_bytes = CachePayloadBytes(FactorizedSetPtr(small));
  const std::uint64_t grown_bytes = CachePayloadBytes(FactorizedSetPtr(grown));

  ExecStats stats;
  CacheOptions options;
  options.capacity_bytes = 8 * small_bytes;  // exactly eight small payloads
  ASSERT_LE(grown_bytes, options.capacity_bytes);
  ASSERT_GT(7 * small_bytes + grown_bytes, options.capacity_bytes);
  CacheManager<FactorizedSetPtr> cache(options, &stats);
  for (Value v = 0; v < 8; ++v) cache.Insert(0, PK({v}), small);
  ASSERT_EQ(cache.size(), 8u);
  cache.Insert(0, PK({0}), grown);  // replacement grows the charge
  EXPECT_LE(cache.payload_bytes(), options.capacity_bytes);
  EXPECT_LE(stats.cache_bytes_peak, options.capacity_bytes);
  EXPECT_GT(stats.cache_evictions, 0u);
  // The refreshed entry is MRU and must survive the shedding.
  ASSERT_NE(cache.Lookup(0, PK({0})), nullptr);
  EXPECT_EQ((*cache.Lookup(0, PK({0})))->entries.size(), 5u);
}

// Accounting-contract pin (docs/cache.md): a cached factorized set is
// charged its *retained closure* — the set plus every child set kept alive
// through its entries' shared_ptrs — not just its own top-level storage.
// Before the DeepMemoryBytes charge, a child retained only by a cached
// parent was invisible to the budget.
TEST(CacheByteBudget, ChargesRetainedChildClosure) {
  auto child = std::make_shared<FactorizedSet>();
  child->entries.resize(16);
  for (auto& e : child->entries) e.local.assign(4, 7);

  auto parent = std::make_shared<FactorizedSet>();
  parent->entries.resize(2);
  for (auto& e : parent->entries) {
    e.local.assign(1, 3);
    // Two pointers to the same child: the closure walk must count the
    // shared set once, not per reference.
    e.children.push_back(child);
    e.children.push_back(child);
  }

  const FactorizedSetPtr parent_ptr(parent);
  const FactorizedSetPtr child_ptr(child);
  const std::uint64_t shallow = sizeof(FactorizedSet) + parent->MemoryBytes();
  const std::uint64_t deep = parent->DeepMemoryBytes();
  EXPECT_EQ(deep, shallow + sizeof(FactorizedSet) + child->MemoryBytes());
  EXPECT_EQ(CachePayloadBytes(parent_ptr), sizeof(FactorizedSetPtr) + deep);

  // A budget that fits the parent's own storage but not its retained child
  // must reject the insert — the child's bytes are retained either way, and
  // the budget's contract is to bound retained heap.
  ExecStats stats;
  CacheOptions options;
  options.capacity_bytes = shallow + sizeof(FactorizedSetPtr);
  ASSERT_LT(options.capacity_bytes, CachePayloadBytes(parent_ptr));
  CacheManager<FactorizedSetPtr> tight(options, &stats);
  tight.Insert(0, PK({1}), parent_ptr);
  EXPECT_EQ(tight.size(), 0u);
  EXPECT_EQ(stats.cache_rejects, 1u);

  // With room for the closure, the charge recorded against the budget
  // covers the child the entry retains.
  ExecStats roomy_stats;
  CacheOptions roomy_options;
  roomy_options.capacity_bytes = 2 * CachePayloadBytes(parent_ptr);
  CacheManager<FactorizedSetPtr> roomy(roomy_options, &roomy_stats);
  roomy.Insert(0, PK({1}), parent_ptr);
  ASSERT_EQ(roomy.size(), 1u);
  EXPECT_GE(roomy.payload_bytes(), deep);
  EXPECT_LE(roomy.payload_bytes(), roomy_options.capacity_bytes);
}

// Fig10-style integration pin: a byte-bounded CLFTJ evaluation run must
// never let the cache's payload footprint exceed the budget, while still
// producing the exact unbounded-run result.
TEST(CacheByteBudget, BoundedEvalRunStaysWithinBudgetAndCorrect) {
  Database db;
  db.Put(PreferentialAttachmentGraph("E", 80, 4, /*seed=*/17));
  const Query q = testing::Q("E(x,y), E(y,z), E(z,w), E(w,x)");

  CachedTrieJoin unbounded;
  const std::uint64_t want = unbounded.Count(q, db, {}).count;

  CachedTrieJoin::Options options;
  options.cache.capacity_bytes = 16 * 1024;
  CachedTrieJoin bounded(options);
  RunResult run;
  const auto result = bounded.EvaluateFactorized(q, db, {}, &run);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->Count(), want);
  EXPECT_GT(run.stats.cache_bytes_peak, 0u);
  EXPECT_LE(run.stats.cache_bytes_peak, options.cache.capacity_bytes);
}

}  // namespace
}  // namespace clftj
