#ifndef CLFTJ_UTIL_PACKED_KEY_H_
#define CLFTJ_UTIL_PACKED_KEY_H_

#include <cstdint>

#include "util/common.h"
#include "util/hash.h"

namespace clftj {

/// Fixed-size encoding of an adhesion assignment (the cache key of CLFTJ).
///
/// The paper's implementation caps adhesion keys at two dimensions, and so
/// does this one (CacheOptions::max_dimension is 0-2, checked by
/// CachedPlan::Build): every key fits in two 64-bit words, so key
/// construction, hashing and comparison never touch the heap.
struct PackedKey {
  static constexpr int kInlineDims = 2;

  std::uint64_t lo = 0;  // dims >= 1: value 0
  std::uint64_t hi = 0;  // dims == 2: value 1
  std::uint32_t dims = 0;

  /// Encodes `n` <= kInlineDims values.
  static PackedKey Pack(const Value* values, int n) {
    // Pack/At/Hash hardcode the two-word layout. Raising kInlineDims
    // without widening lo/hi would silently truncate keys (distinct
    // adhesion assignments comparing equal); widen the payload first.
    static_assert(kInlineDims == 2, "a key stores exactly two values in lo/hi");
    PackedKey key;
    key.dims = static_cast<std::uint32_t>(n);
    if (n >= 1) key.lo = static_cast<std::uint64_t>(values[0]);
    if (n == 2) key.hi = static_cast<std::uint64_t>(values[1]);
    return key;
  }

  /// The i-th key value (0 <= i < dims).
  Value At(int i) const { return static_cast<Value>(i == 0 ? lo : hi); }

  /// Hash of the key values and width, mixed over `seed`.
  std::uint64_t Hash(std::uint64_t seed) const {
    std::uint64_t h = HashCombine(seed, dims);
    if (dims >= 1) h = HashCombine(h, lo);
    if (dims == 2) h = HashCombine(h, hi);
    return h;
  }
};

}  // namespace clftj

#endif  // CLFTJ_UTIL_PACKED_KEY_H_
