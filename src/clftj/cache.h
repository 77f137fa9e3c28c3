#ifndef CLFTJ_CLFTJ_CACHE_H_
#define CLFTJ_CLFTJ_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/common.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/packed_key.h"
#include "util/stats.h"

namespace clftj {

/// Caching policy knobs for CLFTJ (Sections 3.4 and 5.3.3 of the paper).
/// The cache size can be bounded *dynamically*: capacity is a global entry
/// budget shared by all per-node caches, which is what lets CLFTJ keep
/// LFTJ's bounded-memory property while still exploiting whatever memory is
/// available.
struct CacheOptions {
  /// Master switch; disabled turns CLFTJ into plain LFTJ on the same order.
  bool enabled = true;

  /// Admission policy of line 21 of Figure 2 ("should (α, µ|α) be
  /// cached?"): kAll caches every completed intermediate; kSupportThreshold
  /// caches only when every adhesion value has support (occurrence count in
  /// the base data) >= support_threshold — the paper's policy.
  enum class Admission { kAll, kSupportThreshold };
  Admission admission = Admission::kAll;
  std::uint64_t support_threshold = 0;

  /// Global bound on the number of cached entries (0 = unbounded).
  std::uint64_t capacity = 0;

  /// Global bound on cached *payload bytes* (0 = entry-count mode via
  /// `capacity`). Factorized-set payloads vary wildly in size, so "whatever
  /// memory is available" needs a byte budget, not an entry budget: each
  /// entry is charged CachePayloadBytes of its payload at insert time and
  /// credited back on eviction/replacement. Both bounds may be active; an
  /// insert must satisfy both.
  std::uint64_t capacity_bytes = 0;

  /// What to do on insert at capacity: reject the new entry, or evict the
  /// least recently used entry across all node caches.
  enum class Eviction { kRejectNew, kLru };
  Eviction eviction = Eviction::kLru;

  /// Adhesions wider than this are never cached. 0-2: the paper's
  /// implementation supports keys of up to two dimensions, and so does
  /// PackedKey (CachedPlan::Build checks the bound).
  int max_dimension = 2;

  /// One-line description for bench output.
  std::string ToString() const;
};

/// Payload byte accounting for the byte-budget mode
/// (CacheOptions::capacity_bytes). The generic fallback charges the value's
/// inline size — right for counters and semiring weights. Payloads owning
/// heap memory overload this in their own header (factorized.h charges a
/// FactorizedSetPtr its set's MemoryBytes); the overload is found by ADL at
/// CacheManager instantiation.
template <typename V>
inline std::uint64_t CachePayloadBytes(const V&) {
  return sizeof(V);
}

/// The one hash of a (TD node, adhesion key) cache entry. A CacheManager
/// indexes its table with the bottom bits; a StripedCacheManager picks the
/// stripe from the top bits and the hot slot from bits 32-37, computes the
/// hash once per call and hands it to the stripe's table.
inline std::uint64_t CacheKeyHash(NodeId node, PackedKey key) {
  return key.Hash(
      HashCombine(0x2545f4914f6cdd1dull, static_cast<std::uint64_t>(node)));
}

/// The most keys one LookupMany call takes: its answer is a 64-bit mask,
/// bit i set when key i hit (docs/cache.md "Grouped probes").
inline constexpr int kMaxLookupGroup = 64;

/// Bit i of a LookupMany hit mask.
inline constexpr std::uint64_t LookupBit(int i) {
  return std::uint64_t{1} << i;
}

/// The shared cache of CLFTJ: (TD node, adhesion assignment) -> payload,
/// with a global entry budget and a global LRU chain. V is the payload:
/// std::uint64_t for counting, a factorized-set pointer for evaluation.
///
/// Layout: one open-addressing flat table (linear probing, power-of-two
/// capacity, load factor <= 1/2) of dense slots that hold only the key's
/// two words, the node, the key width and the payload: 32 bytes for a
/// count, 40 for a FactorizedSetPtr. No hash is stored. A probe compares
/// the key words directly; backward shift and rehash recompute an entry's
/// home slot with CacheKeyHash. A budgeted table (capacity or
/// capacity_bytes set) keeps its doubly-linked LRU (32-bit slot indices)
/// and its payload charges in a side array parallel to the slots; an
/// unbounded table has no side array and keeps no recency. Deletion is
/// tombstone-free (backward shift), so probe sequences never degrade under
/// eviction churn. Per Lookup the hot path performs zero heap allocations;
/// an Insert allocates at most when the table grows (doubling rehash).
/// Node ids are mixed into the key hash, so there are no per-node tables.
template <typename V>
class CacheManager {
 public:
  CacheManager(const CacheOptions& options, ExecStats* stats)
      : options_(options),
        bounded_(options.capacity > 0),
        byte_bounded_(options.capacity_bytes > 0),
        ranked_(bounded_ || byte_bounded_),
        stats_(stats) {}

  /// Returns the payload cached for (node, key), or nullptr. Counts a hit
  /// or miss; under a budget also refreshes LRU recency. The returned
  /// pointer is invalidated by the next Insert. `hash` must be
  /// CacheKeyHash(node, key); the two-argument form computes it.
  const V* Lookup(NodeId node, PackedKey key) {
    return Lookup(node, key, CacheKeyHash(node, key));
  }
  const V* Lookup(NodeId node, PackedKey key, std::uint64_t hash) {
    const std::uint32_t i = FindSlot(node, key, hash);
    if (i == kNil) {
      ++stats_->cache_misses;
      return nullptr;
    }
    ++stats_->cache_hits;
    if (ranked_) MoveToFront(i);
    return &slots_[i].value;
  }

  /// Looks up n <= kMaxLookupGroup keys of one node: prefetches every
  /// key's home slot, then probes the keys in order, so their table loads
  /// are in flight together instead of one after another. Copies key i's
  /// payload to out[i] and sets LookupBit(i) of the returned mask on a hit.
  /// Answers, counters, memory accesses and recency are exactly those of n
  /// Lookup calls in order.
  std::uint64_t LookupMany(NodeId node, const PackedKey* keys, int n, V* out) {
    CLFTJ_DCHECK(n <= kMaxLookupGroup);
    std::uint64_t hashes[kMaxLookupGroup] = {};
    for (int i = 0; i < n; ++i) {
      hashes[i] = CacheKeyHash(node, keys[i]);
      Prefetch(hashes[i]);
    }
    std::uint64_t hits = 0;
    for (int i = 0; i < n; ++i) {
      const V* hit = Lookup(node, keys[i], hashes[i]);
      if (hit == nullptr) continue;
      out[i] = *hit;
      hits |= LookupBit(i);
    }
    return hits;
  }

  /// Starts loading the home slot of `hash` ahead of its Lookup. Charges
  /// nothing and changes nothing; a caller sharing the table across
  /// threads must hold the lock that guards it, since the slot array may
  /// be reallocated by a concurrent Insert.
  void Prefetch(std::uint64_t hash) const {
    if (!slots_.empty()) __builtin_prefetch(&slots_[hash & mask_]);
  }

  /// Inserts (node, key) -> value subject to the capacity policies (entry
  /// count and payload bytes — both must hold). Replaces an existing entry
  /// for the same key. Returns true when the entry resides in the table
  /// after the call, false when policy rejected it (callers layering a
  /// lock-free read cache on top must not publish rejected entries).
  /// `hash` as for Lookup.
  bool Insert(NodeId node, PackedKey key, V value) {
    return Insert(node, key, CacheKeyHash(node, key), std::move(value));
  }
  bool Insert(NodeId node, PackedKey key, std::uint64_t hash, V value) {
    if (fault::Fire(fault::Site::kCacheInsert)) {
      // Injected allocation failure at the insert: caching is optional per
      // entry, so the correct degradation is to drop this entry — results
      // must stay bit-identical, only hit rates suffer.
      ++stats_->cache_rejects;
      return false;
    }
    const std::uint64_t need = byte_bounded_ ? CachePayloadBytes(value) : 0;
    if (byte_bounded_ && need > options_.capacity_bytes) {
      // Larger than the whole budget: no sequence of evictions can fit it.
      ++stats_->cache_rejects;
      return false;
    }
    const std::uint32_t existing = FindSlot(node, key, hash);
    if (existing != kNil) {
      if (byte_bounded_ &&
          options_.eviction == CacheOptions::Eviction::kRejectNew &&
          bytes_ - lru_[existing].bytes + need > options_.capacity_bytes) {
        // A grown replacement that no longer fits: keep the old payload.
        ++stats_->cache_rejects;
        return false;
      }
      if (byte_bounded_) {
        bytes_ += need - lru_[existing].bytes;
        lru_[existing].bytes = need;
      }
      slots_[existing].value = std::move(value);
      if (ranked_) MoveToFront(existing);
      // A grown replacement can overshoot the byte budget: shed LRU entries
      // until it fits again. The refreshed entry is MRU by now, so it is
      // never the victim — and `existing` is not re-read below, which
      // matters because backward-shift deletion may physically move it.
      while (byte_bounded_ && bytes_ > options_.capacity_bytes && size_ > 1) {
        EraseSlot(lru_tail_);
        ++stats_->cache_evictions;
      }
      if (byte_bounded_) TrackBytePeak();
      return true;
    }
    while ((bounded_ && size_ >= options_.capacity) ||
           (byte_bounded_ && bytes_ + need > options_.capacity_bytes)) {
      if (options_.eviction == CacheOptions::Eviction::kRejectNew) {
        ++stats_->cache_rejects;
        return false;
      }
      EraseSlot(lru_tail_);  // evict globally least recently used
      ++stats_->cache_evictions;
    }
    EnsureSpace();
    InsertFresh(node, key, hash, std::move(value), need);
    ++stats_->cache_inserts;
    stats_->cache_entries_peak =
        std::max<std::uint64_t>(stats_->cache_entries_peak, size_);
    if (byte_bounded_) TrackBytePeak();
    return true;
  }

  /// Maintenance eviction for targeted invalidation (see
  /// docs/incremental.md): removes every entry for which pred(node, values,
  /// dims) returns true, where `values` are the entry's adhesion key values.
  /// One in-place pass: after erasing slot i it re-examines slot i, because
  /// backward shift only ever moves into it a later entry (not yet
  /// examined) or an entry from a chain that wrapped past the table's end
  /// (already examined and kept, so examining it again keeps it again).
  /// `pred` must be a pure function of its arguments. Runs between queries,
  /// not on the hot path; not counted as capacity evictions, and survivors
  /// keep their recency order. Returns the number of entries removed.
  template <typename Pred>
  std::size_t EvictIf(const Pred& pred) {
    std::size_t removed = 0;
    Value inline_vals[2];
    for (std::size_t i = 0; i < slots_.size();) {
      const Slot& s = slots_[i];
      if (s.occupied() &&
          pred(s.node, KeyValues(s, inline_vals), static_cast<int>(s.dims))) {
        EraseSlot(static_cast<std::uint32_t>(i));
        ++removed;
        continue;
      }
      ++i;
    }
    return removed;
  }

  /// Maintenance erase for exact delta invalidation (docs/incremental.md):
  /// removes the entry for (node, key) and returns true, or returns false
  /// when the table holds none. Like EvictIf it charges no stats, is not a
  /// capacity eviction, and keeps the survivors' recency order. `hash` as
  /// for Lookup.
  bool Erase(NodeId node, PackedKey key, std::uint64_t hash) {
    if (slots_.empty()) return false;
    for (std::uint32_t i = static_cast<std::uint32_t>(hash & mask_);
         slots_[i].occupied(); i = (i + 1) & mask_) {
      if (SlotMatches(slots_[i], node, key)) {
        EraseSlot(i);
        return true;
      }
    }
    return false;
  }

  /// Read-only iteration over every live entry: fn(node, values, dims,
  /// value) with `values` pointing at the entry's adhesion key values
  /// (decoded from the slot's two words). Used by
  /// cross-shape seeding (docs/serving.md "Batch admission") to copy count
  /// entries between shapes; charges no stats and never mutates the table,
  /// so recency and probe chains are untouched.
  template <typename Fn>
  void ForEach(const Fn& fn) const {
    Value inline_vals[2];
    for (const Slot& s : slots_) {
      if (!s.occupied()) continue;
      fn(s.node, KeyValues(s, inline_vals), static_cast<int>(s.dims),
         s.value);
    }
  }

  /// Current number of entries across all node caches.
  std::size_t size() const { return size_; }

  /// Payload bytes currently charged against capacity_bytes (0 unless the
  /// byte budget is active).
  std::uint64_t payload_bytes() const { return bytes_; }

  /// Test observability: payloads in MRU -> LRU chain order (O(size)).
  /// Lets tests pin that recency survives rehash/backward-shift moves.
  /// Empty for an unbounded table, which keeps no recency.
  std::vector<V> LruOrderForTest() const {
    std::vector<V> out;
    out.reserve(size_);
    for (std::uint32_t i = lru_head_; i != kNil; i = lru_[i].next) {
      out.push_back(slots_[i].value);
    }
    return out;
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::uint32_t kEmptyDims = 0xFFFFFFFFu;
  static constexpr std::size_t kMinSlots = 16;

  struct Slot {
    std::uint64_t lo = 0;  // the key's values (PackedKey's lo/hi)
    std::uint64_t hi = 0;
    NodeId node = kNone;
    std::uint32_t dims = kEmptyDims;  // kEmptyDims marks a free slot
    V value{};

    bool occupied() const { return dims != kEmptyDims; }
  };
  static_assert(!std::is_same<V, std::uint64_t>::value || sizeof(Slot) == 32,
                "a count slot holds only its key, node, width and payload");

  /// A budgeted table's side-array record for the slot of the same index:
  /// its LRU links and its payload charge (byte-budget mode only).
  struct Recency {
    std::uint64_t bytes = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  /// The adhesion key values of occupied slot `s`, decoded from its two
  /// words into `inline_vals` (two values of storage).
  static const Value* KeyValues(const Slot& s, Value* inline_vals) {
    inline_vals[0] = static_cast<Value>(s.lo);
    inline_vals[1] = static_cast<Value>(s.hi);
    return inline_vals;
  }

  static bool SlotMatches(const Slot& s, NodeId node, PackedKey key) {
    return s.lo == key.lo && s.hi == key.hi && s.node == node &&
           s.dims == key.dims;
  }

  /// The home slot of occupied slot `s`'s entry, from its recomputed hash.
  std::uint32_t Home(const Slot& s) const {
    PackedKey key;
    key.lo = s.lo;
    key.hi = s.hi;
    key.dims = s.dims;
    return static_cast<std::uint32_t>(CacheKeyHash(s.node, key) & mask_);
  }

  /// Linear probe for an existing entry; kNil on miss. Charges one memory
  /// access per slot inspected (each slot is one contiguous record — this
  /// is the proxy the paper's memory-access metric counts).
  std::uint32_t FindSlot(NodeId node, PackedKey key, std::uint64_t hash) {
    if (slots_.empty()) {
      stats_->memory_accesses += 1;
      return kNil;
    }
    std::uint32_t i = static_cast<std::uint32_t>(hash & mask_);
    while (true) {
      stats_->memory_accesses += 1;
      const Slot& s = slots_[i];
      if (!s.occupied()) return kNil;
      if (SlotMatches(s, node, key)) return i;
      i = (i + 1) & mask_;
    }
  }

  // --- LRU over the side array (front = most recently used) ---

  void Unlink(std::uint32_t i) {
    Recency& r = lru_[i];
    if (r.prev != kNil) {
      lru_[r.prev].next = r.next;
    } else {
      lru_head_ = r.next;
    }
    if (r.next != kNil) {
      lru_[r.next].prev = r.prev;
    } else {
      lru_tail_ = r.prev;
    }
    r.prev = r.next = kNil;
  }

  void LinkFront(std::uint32_t i) {
    Recency& r = lru_[i];
    r.prev = kNil;
    r.next = lru_head_;
    if (lru_head_ != kNil) lru_[lru_head_].prev = i;
    lru_head_ = i;
    if (lru_tail_ == kNil) lru_tail_ = i;
  }

  void MoveToFront(std::uint32_t i) {
    if (lru_head_ == i) return;
    Unlink(i);
    LinkFront(i);
  }

  /// An entry physically moved to slot `to` (backward shift): repoint its
  /// LRU neighbours (and head/tail) at the new index.
  void PatchLinksAfterMove(std::uint32_t to) {
    const Recency& r = lru_[to];
    if (r.prev != kNil) {
      lru_[r.prev].next = to;
    } else {
      lru_head_ = to;
    }
    if (r.next != kNil) {
      lru_[r.next].prev = to;
    } else {
      lru_tail_ = to;
    }
  }

  /// Tombstone-free deletion: unlink, clear, then backward-shift the probe
  /// chain so linear probing invariants hold without deleted markers.
  void EraseSlot(std::uint32_t i) {
    if (ranked_) {
      Unlink(i);
      bytes_ -= lru_[i].bytes;
      lru_[i].bytes = 0;
    }
    slots_[i].value = V{};
    slots_[i].dims = kEmptyDims;
    --size_;
    std::uint32_t hole = i;
    std::uint32_t j = (i + 1) & mask_;
    while (slots_[j].occupied()) {
      const std::uint32_t home = Home(slots_[j]);
      // j's entry may shift back into the hole only if its home slot is
      // cyclically at or before the hole (i.e. the hole lies on its probe
      // path).
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        slots_[j].value = V{};
        slots_[j].dims = kEmptyDims;
        if (ranked_) {
          lru_[hole] = lru_[j];
          PatchLinksAfterMove(hole);
          lru_[j] = Recency{};
        }
        hole = j;
      }
      j = (j + 1) & mask_;
    }
  }

  // Max load factor 1/2: misses pay the full probe chain up to the next
  // empty slot, so the table trades memory for short chains (~1.5 probes
  // per hit, ~2.5 per miss in expectation, vs ~8.5 per miss at 3/4 load).
  void EnsureSpace() {
    if (slots_.empty()) {
      std::size_t want = kMinSlots;
      if (bounded_) {
        // Size bounded caches for their full budget up front (capped so a
        // huge nominal budget does not preallocate the world).
        const std::uint64_t budget =
            std::min<std::uint64_t>(options_.capacity, 1u << 20);
        while (want < budget * 2) want <<= 1;
      }
      slots_.assign(want, Slot{});
      if (ranked_) lru_.assign(want, Recency{});
      mask_ = want - 1;
      return;
    }
    if ((size_ + 1) * 2 > slots_.size()) Rehash(slots_.size() * 2);
  }

  std::uint32_t FindEmpty(std::uint64_t hash) const {
    std::uint32_t i = static_cast<std::uint32_t>(hash & mask_);
    while (slots_[i].occupied()) i = (i + 1) & mask_;
    return i;
  }

  void TrackBytePeak() {
    stats_->cache_bytes_peak =
        std::max<std::uint64_t>(stats_->cache_bytes_peak, bytes_);
  }

  void InsertFresh(NodeId node, PackedKey key, std::uint64_t hash, V value,
                   std::uint64_t payload_bytes) {
    const std::uint32_t i = FindEmpty(hash);
    Slot& s = slots_[i];
    s.node = node;
    s.dims = key.dims;
    s.lo = key.lo;
    s.hi = key.hi;
    s.value = std::move(value);
    if (ranked_) {
      lru_[i].bytes = payload_bytes;
      bytes_ += payload_bytes;
      LinkFront(i);
    }
    ++size_;
    stats_->memory_accesses += 1;
  }

  /// Doubling rehash. An unbounded table moves its entries by a linear
  /// scan of the old slots. A budgeted one walks the LRU chain MRU->LRU and
  /// re-links in order, so recency survives growth.
  void Rehash(std::size_t new_slot_count) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_slot_count, Slot{});
    mask_ = new_slot_count - 1;
    if (!ranked_) {
      for (Slot& s : old) {
        if (s.occupied()) slots_[FindEmpty(Home(s))] = std::move(s);
      }
      return;
    }
    std::vector<Recency> old_lru = std::move(lru_);
    lru_.assign(new_slot_count, Recency{});
    const std::uint32_t old_head = lru_head_;
    lru_head_ = lru_tail_ = kNil;
    for (std::uint32_t i = old_head; i != kNil; i = old_lru[i].next) {
      const std::uint32_t j = FindEmpty(Home(old[i]));
      slots_[j] = std::move(old[i]);
      lru_[j].bytes = old_lru[i].bytes;
      // Append at tail: the walk is MRU-first, so order is preserved.
      lru_[j].prev = lru_tail_;
      if (lru_tail_ != kNil) lru_[lru_tail_].next = j;
      lru_tail_ = j;
      if (lru_head_ == kNil) lru_head_ = j;
    }
  }

  CacheOptions options_;
  bool bounded_;
  bool byte_bounded_;
  bool ranked_;  // a budget is set: lru_ holds the recency and byte charges
  ExecStats* stats_;
  std::vector<Slot> slots_;
  std::vector<Recency> lru_;  // parallel to slots_; empty when unbounded
  std::uint64_t bytes_ = 0;   // payload bytes charged to capacity_bytes
  std::uint64_t mask_ = 0;
  std::uint32_t lru_head_ = kNil;  // most recently used
  std::uint32_t lru_tail_ = kNil;  // least recently used
  std::size_t size_ = 0;
};

namespace cache_internal {

/// Atomic payload cell for the hot-slot read path (see StripedCacheManager).
/// Trivially copyable payloads (count mode's uint64_t) are a plain
/// std::atomic; shared_ptr payloads (eval mode's FactorizedSetPtr) go
/// through the std::atomic_load/atomic_store free functions — libstdc++
/// backs those with a small mutex pool, which is TSan-instrumented and
/// never held across user code, so the read path stays wait-free in
/// practice for counts and lock-brief for pointers.
template <typename V, bool kTrivial = std::is_trivially_copyable<V>::value>
struct HotPayload;

template <typename V>
struct HotPayload<V, true> {
  std::atomic<V> cell{};
  V load() const { return cell.load(std::memory_order_acquire); }
  void store(const V& v) { cell.store(v, std::memory_order_release); }
};

template <typename V>
struct HotPayload<V, false> {
  V cell{};
  V load() const {
    return std::atomic_load_explicit(&cell, std::memory_order_acquire);
  }
  void store(const V& v) {
    std::atomic_store_explicit(&cell, v, std::memory_order_release);
  }
};

}  // namespace cache_internal

/// The persistent per-shape cache of the serving loop (CrossQueryReuse's
/// ShapeCaches, injected into CachedTrieJoin through EngineOptions::
/// shared_count_cache/shared_eval_cache): one logical (node, adhesion key)
/// -> payload table that every shard of every request of one shape probes
/// and fills, so a subtree computed by any run is a hit for every later
/// one. Runs without an injected cache never touch this class — each shard
/// owns a private, unlocked CacheManager (see RunCache).
///
/// Layout: S lock-striped segments, each an independent CacheManager (the
/// flat open-addressing table of dense slots) behind its own mutex,
/// with its own ExecStats sink and a per-stripe slice of the global
/// entry/byte budget (slices sum exactly to the global budget). A key's
/// stripe is chosen from the *top* bits of CacheKeyHash, whose *bottom*
/// bits index the segment table, so striping never skews a segment's probe
/// distribution. Under a budget, eviction is LRU per stripe: recency is
/// local to a segment, which is what keeps a cache call one mutex + one
/// flat-table operation instead of a globally ordered structure.
///
/// Concurrency contract: Lookup copies the payload out under the stripe
/// mutex (a pointer into a slot would dangle the moment another shard
/// inserts), and Insert publishes under the same mutex, so a payload
/// frozen-before-insert is safely readable by every other thread.
/// LookupMany does the same for a group of keys, one mutex acquisition per
/// stripe the group touches, and reads a slot array (for its prefetches
/// too) only under that stripe's mutex. Stats
/// are charged to the owning stripe (hits, misses, probe memory accesses,
/// evictions, peaks) and aggregated deterministically in ascending stripe
/// order by AggregatedStats, read while no run is using the table. Lookup
/// and Insert also report their outcome, so each run charges its own hits,
/// misses and inserts to its own ExecStats (RunCache) as well.
///
/// Hot-slot read path (`hot_reads` in the constructor; used by the
/// persistent per-shape caches, see docs/serving.md "Batch admission"):
/// each stripe carries a small direct-mapped side array of seqlock-
/// published entries. A successful Insert and a locked Lookup hit publish
/// the (key, payload) into the hot slot for its hash; subsequent Lookups
/// probe the hot slot *before* taking the stripe mutex and return on a
/// stable match, so batch members polling the same hot subtree never
/// serialize. Every hot-slot field is individually atomic (the seq check
/// only guards against a *mixed* snapshot from two writes), and writers are
/// already serialized by the stripe mutex. Hot hits skip the stripe's stat counters and LRU refresh
/// (recency becomes approximate for hot keys — acceptable for the
/// persistent caches, which are the only users); EvictIf clears a
/// stripe's hot slots and Erase the hot slot of each erased key, so
/// targeted invalidation cannot leave a deleted entry readable. An entry
/// evicted by *capacity* churn may linger in a hot slot: that is safe,
/// because cached payloads are deterministic per (data version, key) —
/// serving one is bit-identical to recomputing it — and a delta that
/// changes its value puts its key in the invalidation's erase set.
template <typename V>
class StripedCacheManager {
 public:
  /// `workers` sizes the stripe count; `options` carries the *global*
  /// budget (split across stripes here — callers must not pre-divide).
  /// `hot_reads` engages the lock-free hot-slot read path above.
  StripedCacheManager(const CacheOptions& options, int workers,
                      bool hot_reads = false)
      : stripe_shift_(0), hot_reads_(hot_reads) {
    const int count = ChooseStripes(options, workers);
    for (int s = 1; s < count; s <<= 1) ++stripe_shift_;
    stripes_.reserve(count);
    const std::uint64_t cap = options.capacity;
    const std::uint64_t cap_bytes = options.capacity_bytes;
    for (int s = 0; s < count; ++s) {
      CacheOptions slice = options;
      const std::uint64_t n = static_cast<std::uint64_t>(count);
      const std::uint64_t i = static_cast<std::uint64_t>(s);
      // Remainder-spread split: stripe budgets sum *exactly* to the global
      // budget (no flooring slack), and ChooseStripes guarantees every
      // bounded stripe gets at least 1.
      if (cap > 0) slice.capacity = cap / n + (i < cap % n ? 1 : 0);
      if (cap_bytes > 0) {
        slice.capacity_bytes = cap_bytes / n + (i < cap_bytes % n ? 1 : 0);
      }
      stripes_.push_back(
          std::make_unique<Stripe>(slice, hot_reads ? kHotSlots : 0));
    }
  }

  /// Copies the payload cached for (node, key) into *out and returns true,
  /// or returns false on a miss. With hot_reads, a stable hot-slot match
  /// returns without touching the stripe mutex; otherwise counting, LRU
  /// refresh and hot publication happen in the owning stripe under its
  /// mutex.
  bool Lookup(NodeId node, PackedKey key, V* out) {
    const std::uint64_t hash = CacheKeyHash(node, key);
    Stripe& s = StripeAt(hash);
    if (!s.hot.empty() && HotProbe(s, hash, node, key, out)) {
      s.hot_hits.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    std::lock_guard<std::mutex> lock(s.mu);
    const V* hit = s.cache.Lookup(node, key, hash);
    if (hit == nullptr) return false;
    *out = *hit;
    if (!s.hot.empty()) PublishHot(s, hash, node, key, *out);
    return true;
  }

  /// Looks up n <= kMaxLookupGroup keys of one node at once (docs/cache.md
  /// "Grouped probes"). Keys whose hot slot matches are answered first,
  /// without a lock. The rest are probed stripe by stripe: each stripe's
  /// mutex is taken once, and under it the home slots of all that stripe's
  /// keys are prefetched before any is probed, so their table loads are in
  /// flight together. Copies key i's payload to out[i] and sets
  /// LookupBit(i) of the returned mask on a hit. The answers, and the
  /// stripes' hits and misses with HotHits, are those of n Lookup calls,
  /// except that a hot slot may serve a hit the locked path would have
  /// served (and counted in its stripe) had an earlier key of the group
  /// overwritten that slot first.
  std::uint64_t LookupMany(NodeId node, const PackedKey* keys, int n, V* out) {
    CLFTJ_DCHECK(n <= kMaxLookupGroup);
    std::uint64_t hashes[kMaxLookupGroup] = {};
    // Keys left for the locked path, as one mask per stripe; `pending` has
    // bit s set when stripe s has any.
    std::uint64_t by_stripe[kMaxStripes] = {};
    std::uint64_t pending = 0;
    std::uint64_t hits = 0;
    for (int i = 0; i < n; ++i) {
      hashes[i] = CacheKeyHash(node, keys[i]);
      const int si = StripeIndex(hashes[i]);
      Stripe& s = *stripes_[si];
      if (!s.hot.empty() && HotProbe(s, hashes[i], node, keys[i], &out[i])) {
        s.hot_hits.fetch_add(1, std::memory_order_relaxed);
        hits |= LookupBit(i);
        continue;
      }
      pending |= LookupBit(si);
      by_stripe[si] |= LookupBit(i);
    }
    for (; pending != 0; pending &= pending - 1) {
      const int si = __builtin_ctzll(pending);
      const std::uint64_t mine = by_stripe[si];
      Stripe& s = *stripes_[si];
      std::lock_guard<std::mutex> lock(s.mu);
      for (std::uint64_t m = mine; m != 0; m &= m - 1) {
        s.cache.Prefetch(hashes[__builtin_ctzll(m)]);
      }
      for (std::uint64_t m = mine; m != 0; m &= m - 1) {
        const int i = __builtin_ctzll(m);
        const V* hit = s.cache.Lookup(node, keys[i], hashes[i]);
        if (hit == nullptr) continue;
        out[i] = *hit;
        hits |= LookupBit(i);
        if (!s.hot.empty()) PublishHot(s, hashes[i], node, keys[i], out[i]);
      }
    }
    return hits;
  }

  /// Inserts (node, key) -> value into the owning stripe, subject to that
  /// stripe's slice of the global budget. Concurrent same-key inserts
  /// serialize on the stripe mutex; the last one wins (both are correct —
  /// cached subtree results for one key are equal by construction). Only
  /// entries the stripe *accepted* are published to the hot slots. Returns
  /// whether the stripe accepted the entry.
  bool Insert(NodeId node, PackedKey key, V value) {
    const std::uint64_t hash = CacheKeyHash(node, key);
    Stripe& s = StripeAt(hash);
    std::lock_guard<std::mutex> lock(s.mu);
    const bool publish = !s.hot.empty();
    V copy = publish ? value : V{};
    const bool accepted = s.cache.Insert(node, key, hash, std::move(value));
    if (accepted && publish) PublishHot(s, hash, node, key, copy);
    return accepted;
  }

  /// Per-stripe counters summed in ascending stripe order — flow counters
  /// *and* peaks (the stripes coexist, so the table's peak footprint is the
  /// sum of stripe peaks, an upper bound on the instantaneous global peak).
  /// Call only when no worker is mid-operation (after joins).
  ExecStats AggregatedStats() const {
    ExecStats out;
    std::uint64_t entries_peak = 0;
    std::uint64_t bytes_peak = 0;
    for (const auto& s : stripes_) {
      out.Merge(s->stats);  // flow counters sum; Merge max-merges peaks...
      entries_peak += s->stats.cache_entries_peak;
      bytes_peak += s->stats.cache_bytes_peak;
    }
    out.cache_entries_peak = entries_peak;  // ...so overwrite with the sums
    out.cache_bytes_peak = bytes_peak;
    return out;
  }

  /// Targeted invalidation across all stripes (each under its mutex); see
  /// CacheManager::EvictIf. Clears the stripe's hot slots wholesale — the
  /// predicate cannot be evaluated against a hot slot's published key
  /// without re-deriving its adhesion values, and invalidation correctness
  /// requires that no evicted entry stays readable. Returns the total
  /// number of entries removed.
  template <typename Pred>
  std::size_t EvictIf(const Pred& pred) {
    std::size_t total = 0;
    for (const auto& s : stripes_) {
      std::lock_guard<std::mutex> lock(s->mu);
      total += s->cache.EvictIf(pred);
      for (HotSlot& h : s->hot) ClearHotSlot(h);
    }
    return total;
  }

  /// Exact invalidation: removes the entries for `keys` at `node`, each
  /// under its stripe's mutex (see CacheManager::Erase), and empties the
  /// hot slot holding one of those keys whether or not the table still
  /// held the entry — a capacity eviction can leave an entry readable in a
  /// hot slot. Returns the number of entries removed.
  std::size_t Erase(NodeId node, const std::vector<PackedKey>& keys) {
    std::size_t total = 0;
    for (const PackedKey& key : keys) {
      const std::uint64_t hash = CacheKeyHash(node, key);
      Stripe& s = StripeAt(hash);
      std::lock_guard<std::mutex> lock(s.mu);
      total += s.cache.Erase(node, key, hash) ? 1 : 0;
      if (s.hot.empty()) continue;
      HotSlot& h = s.hot[HotIndex(hash)];
      // Writers hold the stripe mutex, so these loads see a stable slot.
      if (h.dims.load(std::memory_order_relaxed) == key.dims &&
          h.node.load(std::memory_order_relaxed) == node &&
          h.lo.load(std::memory_order_relaxed) == key.lo &&
          h.hi.load(std::memory_order_relaxed) == key.hi) {
        ClearHotSlot(h);
      }
    }
    return total;
  }

  /// Read-only iteration over every live entry in every stripe (each under
  /// its mutex); see CacheManager::ForEach. Used by cross-shape seeding.
  template <typename Fn>
  void ForEach(const Fn& fn) {
    for (const auto& s : stripes_) {
      std::lock_guard<std::mutex> lock(s->mu);
      s->cache.ForEach(fn);
    }
  }

  /// Lock-free hot-slot hits served since construction (test/bench
  /// observability; summed over stripes, relaxed reads).
  std::uint64_t HotHits() const {
    std::uint64_t total = 0;
    for (const auto& s : stripes_) {
      total += s->hot_hits.load(std::memory_order_relaxed);
    }
    return total;
  }

  bool hot_reads_enabled() const { return hot_reads_; }

  int stripe_count() const { return static_cast<int>(stripes_.size()); }

  /// Entries currently cached across all stripes (quiescent callers only).
  std::size_t size() const {
    std::size_t total = 0;
    for (const auto& s : stripes_) total += s->cache.size();
    return total;
  }

  /// Payload bytes currently charged across all stripes.
  std::uint64_t payload_bytes() const {
    std::uint64_t total = 0;
    for (const auto& s : stripes_) total += s->cache.payload_bytes();
    return total;
  }

  /// Test observability: each stripe's (capacity, capacity_bytes) slice, in
  /// stripe order — lets tests pin that slices sum to the global budget.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> StripeBudgetsForTest()
      const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    out.reserve(stripes_.size());
    for (const auto& s : stripes_) {
      out.emplace_back(s->options.capacity, s->options.capacity_bytes);
    }
    return out;
  }

  /// At most this many stripes, so LookupMany keeps one bit per stripe.
  static constexpr int kMaxStripes = 64;

  /// Stripe-count policy: the smallest power of two >= 2x the worker count
  /// (clamped to [1, kMaxStripes]) keeps the expected contention on any one
  /// mutex low without scattering a bounded budget too thin; a bounded budget
  /// additionally clamps the count so every stripe's slice is >= 1 entry
  /// (and >= 1 byte in byte mode).
  static int ChooseStripes(const CacheOptions& options, int workers) {
    const int w = workers < 1 ? 1 : workers;
    int want = 1;
    while (want < 2 * w && want < kMaxStripes) want <<= 1;
    while (want > 1 &&
           ((options.capacity > 0 &&
             static_cast<std::uint64_t>(want) > options.capacity) ||
            (options.capacity_bytes > 0 &&
             static_cast<std::uint64_t>(want) > options.capacity_bytes))) {
      want >>= 1;
    }
    return want;
  }

 private:
  /// Hot slots per stripe (direct-mapped). Small on purpose: the point is
  /// the handful of subtree keys a batch polls repeatedly, not a second
  /// cache tier.
  static constexpr int kHotSlots = 64;
  static constexpr std::uint32_t kHotEmpty = 0xFFFFFFFFu;

  /// One seqlock-published entry: seq even = stable, odd = write in flight
  /// (writers are serialized by the stripe mutex). All fields are
  /// individually atomic, so the only hazard a reader must detect is a
  /// snapshot mixing two different writes — the seq double-check does that.
  struct HotSlot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> lo{0};
    std::atomic<std::uint64_t> hi{0};
    std::atomic<NodeId> node{kNone};
    std::atomic<std::uint32_t> dims{kHotEmpty};
    cache_internal::HotPayload<V> value;
  };

  // One segment: mutex + private stats + the flat table over a slice
  // of the global budget. Cache-line aligned so neighbouring stripes'
  // mutexes never share a line (the unique_ptr indirection already gives
  // each stripe its own allocation; the alignment makes it explicit).
  struct alignas(64) Stripe {
    Stripe(const CacheOptions& slice, int hot_slots)
        : options(slice), cache(slice, &stats), hot(hot_slots) {}
    CacheOptions options;
    ExecStats stats;
    std::mutex mu;
    CacheManager<V> cache;
    std::vector<HotSlot> hot;  // empty unless hot_reads
    std::atomic<std::uint64_t> hot_hits{0};
  };

  Stripe& StripeAt(std::uint64_t hash) { return *stripes_[StripeIndex(hash)]; }

  int StripeIndex(std::uint64_t hash) const {
    if (stripe_shift_ == 0) return 0;  // >> 64 would be UB
    return static_cast<int>(hash >> (64 - stripe_shift_));
  }

  static std::size_t HotIndex(std::uint64_t hash) {
    return static_cast<std::size_t>((hash >> 32) &
                                    static_cast<std::uint64_t>(kHotSlots - 1));
  }

  /// Seqlock read. Memory-order contract: every field load is acquire, so
  /// the trailing seq load cannot be reordered before them; if a field
  /// value from a newer write is observed, its (release) store
  /// happens-after that writer's odd seq store, which forces the trailing
  /// seq load to observe seq != s1 and the probe to fall back to the
  /// locked path. A stable even pair therefore brackets one consistent
  /// published entry.
  bool HotProbe(Stripe& s, std::uint64_t hash, NodeId node, PackedKey key,
                V* out) {
    const HotSlot& h = s.hot[HotIndex(hash)];
    const std::uint64_t s1 = h.seq.load(std::memory_order_acquire);
    if ((s1 & 1u) != 0) return false;
    const std::uint64_t lo = h.lo.load(std::memory_order_acquire);
    const std::uint64_t hi = h.hi.load(std::memory_order_acquire);
    const NodeId slot_node = h.node.load(std::memory_order_acquire);
    const std::uint32_t dims = h.dims.load(std::memory_order_acquire);
    V value = h.value.load();
    const std::uint64_t s2 = h.seq.load(std::memory_order_acquire);
    if (s1 != s2) return false;
    if (dims == kHotEmpty || slot_node != node || dims != key.dims ||
        lo != key.lo || hi != key.hi) {
      return false;
    }
    *out = std::move(value);
    return true;
  }

  /// Seqlock publish; caller holds the stripe mutex (writers serialized).
  void PublishHot(Stripe& s, std::uint64_t hash, NodeId node, PackedKey key,
                  const V& value) {
    HotSlot& h = s.hot[HotIndex(hash)];
    const std::uint64_t s0 = h.seq.load(std::memory_order_relaxed);
    h.seq.store(s0 + 1, std::memory_order_release);  // odd: readers back off
    h.lo.store(key.lo, std::memory_order_release);
    h.hi.store(key.hi, std::memory_order_release);
    h.node.store(node, std::memory_order_release);
    h.dims.store(key.dims, std::memory_order_release);
    h.value.store(value);
    h.seq.store(s0 + 2, std::memory_order_release);
  }

  /// Empties one hot slot (caller holds its stripe's mutex). Drops the
  /// payload reference too, so an invalidated factorized set is released.
  static void ClearHotSlot(HotSlot& h) {
    const std::uint64_t s0 = h.seq.load(std::memory_order_relaxed);
    h.seq.store(s0 + 1, std::memory_order_release);
    h.dims.store(kHotEmpty, std::memory_order_release);
    h.value.store(V{});
    h.seq.store(s0 + 2, std::memory_order_release);
  }

  int stripe_shift_;  // log2(stripe count); 0 means a single stripe
  bool hot_reads_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

/// The cache a single run state (CountRun/EvalRun) sees: either the
/// private CacheManager the shard owns (capacity/K of the run's budget;
/// unlocked, which is what keeps a one-shard run — the paper's sequential
/// CLFTJ — free of any synchronization) or a borrowed pointer to the
/// persistent StripedCacheManager the serving loop injected. One
/// predictable branch per call; both paths return the payload by value so
/// call sites are uniform and never hold a pointer into a table another
/// thread may mutate. Either way the run's own ExecStats counts its hits
/// (hot hits included), misses and accepted inserts; the injected table's
/// probe memory accesses, evictions and peaks stay in its stripes.
template <typename V>
class RunCache {
 public:
  RunCache(const CacheOptions& options, ExecStats* stats,
           StripedCacheManager<V>* shared = nullptr)
      : shared_(shared), stats_(stats), private_(options, stats) {}

  bool Lookup(NodeId node, PackedKey key, V* out) {
    if (shared_ != nullptr) {
      const bool hit = shared_->Lookup(node, key, out);
      ++(hit ? stats_->cache_hits : stats_->cache_misses);
      return hit;
    }
    const V* hit = private_.Lookup(node, key);
    if (hit == nullptr) return false;
    *out = *hit;
    return true;
  }

  /// n <= kMaxLookupGroup Lookups of one node's keys as one probe group
  /// (CacheManager::LookupMany or StripedCacheManager::LookupMany), charged
  /// to the run like n Lookup calls. Returns the hit mask.
  std::uint64_t LookupMany(NodeId node, const PackedKey* keys, int n, V* out) {
    if (shared_ == nullptr) return private_.LookupMany(node, keys, n, out);
    const std::uint64_t hits = shared_->LookupMany(node, keys, n, out);
    const int found = __builtin_popcountll(hits);
    stats_->cache_hits += found;
    stats_->cache_misses += n - found;
    return hits;
  }

  void Insert(NodeId node, PackedKey key, V value) {
    if (shared_ != nullptr) {
      if (shared_->Insert(node, key, std::move(value))) ++stats_->cache_inserts;
    } else {
      private_.Insert(node, key, std::move(value));
    }
  }

 private:
  StripedCacheManager<V>* shared_;  // borrowed; outlives the run
  ExecStats* stats_;                // the run's own counters
  CacheManager<V> private_;         // unused (and empty) when shared_ set
};

}  // namespace clftj

#endif  // CLFTJ_CLFTJ_CACHE_H_
