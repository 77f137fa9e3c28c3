#ifndef CLFTJ_TRIE_LEAPFROG_H_
#define CLFTJ_TRIE_LEAPFROG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trie/trie_iterator.h"
#include "util/common.h"

namespace clftj {

/// Branch-free 4-way unrolled galloping lower bound over the sorted range
/// vals[pos..end): returns the least index in (pos, end] whose value is
/// >= bound (end if none). Preconditions: pos < end and vals[pos] < bound
/// (callers fast-path the already-positioned case).
///
/// This is the leapfrog Seek's hot search, restructured for ILP: each
/// round issues the next four doubling probes (offsets 2s-1, 4s-1, 8s-1,
/// 16s-1 past `pos`, out-of-range probes clamped to end-1) as independent
/// loads, folds the four comparisons into one mask, and either advances
/// 16x or drops into a branch-free binary search of the bracketed run —
/// one data-dependent branch per round instead of one per probe, and no
/// unpredictable branch at all in the binary phase (the halving updates
/// compile to conditional moves).
///
/// Counting contract: *comparisons is advanced by exactly the probes the
/// sequential gallop + binary search would execute — over-fetched
/// speculative probes past the first failure are issued for ILP (mirroring
/// hardware speculation) but not charged. Seek's memory-access counters
/// are therefore bit-identical to the scalar implementation's, which is
/// what keeps the recorded bench baselines comparable across PRs (pinned
/// by TrieIterator.SeekCountsMatchScalarReference in tests/trie_test.cc).
/// A short seek (ShortSeekLowerBound below) is found by a scan instead and
/// charged GallopCharge of its landing offset: the same probes, computed
/// rather than executed. Saving and restoring a cursor
/// (TrieIterator::Position/Restore, LeapfrogJoin::Save/Restore) charges
/// nothing. A pass that runs a join ahead over k values and then restores
/// each value's cursor before descending from it (CountRun's grouped
/// probes, docs/cache.md "Grouped probes") therefore charges exactly what
/// the straight pass charges: every Next, Seek and Open runs once, from
/// the same position, only in another order.
inline std::size_t GallopingLowerBound(const Value* vals, std::size_t pos,
                                       std::size_t end, Value bound,
                                       std::uint64_t* comparisons) {
  std::uint64_t probes = 0;
  std::size_t lo = pos;  // invariant: vals[lo] < bound
  std::size_t hi = end;  // bracket end: vals[hi] >= bound, or hi == end
  std::size_t s = 1;     // round stride; probe k sits at pos + 2^k - 1
  const std::size_t last = end - 1;
  while (true) {
    const std::size_t idx[4] = {pos + 2 * s - 1, pos + 4 * s - 1,
                                pos + 8 * s - 1, pos + 16 * s - 1};
    bool ok[4];
    for (int j = 0; j < 4; ++j) {
      const bool in_range = idx[j] < end;
      const Value v = vals[in_range ? idx[j] : last];  // clamped load
      ok[j] = in_range & (v < bound);
    }
    const unsigned mask = static_cast<unsigned>(ok[0]) |
                          static_cast<unsigned>(ok[1]) << 1 |
                          static_cast<unsigned>(ok[2]) << 2 |
                          static_cast<unsigned>(ok[3]) << 3;
    if (mask == 0xF) {  // all four probes below bound: next round, 16x on
      probes += 4;
      lo = idx[3];
      s <<= 4;
      continue;
    }
    // Sortedness makes the mask a prefix of ones: the number of trailing
    // ones is the count of successful probes this round, and the next
    // probe is the first failure.
    static constexpr unsigned char kTrailingOnes[16] = {0, 1, 0, 2, 0, 1, 0, 3,
                                                        0, 1, 0, 2, 0, 1, 0, 4};
    const unsigned n = kTrailingOnes[mask];
    probes += n;
    if (n > 0) lo = idx[n - 1];
    const std::size_t fail = idx[n];
    if (fail < end) {
      ++probes;  // the failing comparison is a real probe
      hi = fail;
    }  // else: past the end — the scalar loop exits without comparing
    break;
  }
  // Branch-free binary search of (lo, hi]: same count/first evolution (and
  // so the same comparison count) as the classic halving loop, with the
  // updates as conditional selects.
  std::size_t count = hi - lo - 1;
  std::size_t first = lo + 1;
  while (count > 0) {
    ++probes;
    const std::size_t half = count >> 1;
    const std::size_t mid = first + half;
    const bool less = vals[mid] < bound;
    first = less ? mid + 1 : first;
    count = less ? count - half - 1 : half;
  }
  *comparisons += probes;
  return first;
}

/// AVX2 arm of the gallop: the four doubling probes of each round become
/// one vector compare + movemask over the same positions, and the binary
/// tail is the identical halving loop — the probe sequence matches the
/// scalar kernel's exactly, so the counting contract above holds bit for
/// bit. Defined only in src/util/simd_avx2.cc (the sole -mavx2 TU) — reach
/// it through the simd::SeekLowerBound dispatch point, never directly;
/// forced-scalar builds leave this symbol undefined so a stray direct call
/// fails at link time. Pinned against the scalar arm by the randomized
/// differential suite in tests/simd_test.cc.
std::size_t GallopingLowerBoundAvx2(const Value* vals, std::size_t pos,
                                    std::size_t end, Value bound,
                                    std::uint64_t* comparisons);

/// Slots a short seek scans before it hands over to the gallop. Measured
/// on the wiki-Vote profile, 93% of the triangle's and 92% of the
/// 4-cycle's seeks land within 8 slots (docs/simd.md "Short seeks").
inline constexpr std::size_t kShortSeekWindow = 8;

namespace internal {

constexpr int BitWidth(std::size_t x) {
  return x == 0 ? 0 : 64 - __builtin_clzll(x);
}

// The rounds of the binary search's halving loop over a bracket of c slots
// whose answer is the t-th (0 <= t <= c; t == c: none of them).
constexpr int HalvingRounds(std::size_t c, std::size_t t) {
  int rounds = 0;
  std::size_t first = 0;
  while (c > 0) {
    ++rounds;
    const std::size_t half = c >> 1;
    if (first + half < t) {
      first += half + 1;
      c -= half + 1;
    } else {
      c = half;
    }
  }
  return rounds;
}

// Over c < 8 slots the halving loop makes BitWidth(c | 1) rounds or one
// fewer. Bit 8c + t of the mask is set iff it makes one fewer for answer
// t, which covers every bracket a short seek can end in. A bracket that
// broke the two-valued rule would make the mask 0 (c = 0 sets bit 0).
constexpr std::uint64_t ShortBracketMask() {
  std::uint64_t mask = 0;
  for (std::size_t c = 0; c < 8; ++c) {
    for (std::size_t t = 0; t <= c; ++t) {
      const int rounds = HalvingRounds(c, t);
      if (rounds == BitWidth(c | 1) - 1) {
        mask |= std::uint64_t{1} << (8 * c + t);
      } else if (rounds != BitWidth(c | 1)) {
        return 0;
      }
    }
  }
  return mask;
}

inline constexpr std::uint64_t kShortBracketMask = ShortBracketMask();
static_assert(kShortBracketMask != 0, "halving rounds are not two-valued");

}  // namespace internal

/// The probes the sequential gallop + binary search makes for a seek that
/// starts at a slot below the bound and whose answer lies `offset` slots
/// ahead, in a group with `remaining` slots from the start on
/// (1 <= offset <= min(remaining, kShortSeekWindow + 1); offset ==
/// remaining means past the group's end). It depends on nothing else:
/// sortedness fixes every probe's outcome (a probe at offset i is below the
/// bound iff i < offset), so the count is computed from the two offsets,
/// without loading a value and without a data-dependent branch.
inline std::uint64_t GallopCharge(std::size_t offset, std::size_t remaining) {
  // The gallop probes offsets 2^k - 1 for k = 1, 2, ...: those below
  // `offset` succeed, the first at or past it fails (and is not made when
  // it lies past the group), and a binary search of the bracket between
  // the last success and the failure finds `offset`.
  static_assert(internal::BitWidth(kShortSeekWindow + 1) <= 4,
                "a short seek's bracket must stay below 8 slots");
  const int k = internal::BitWidth(offset);
  const std::size_t lo = (std::size_t{1} << (k - 1)) - 1;
  const std::size_t fail = (std::size_t{1} << k) - 1;
  const bool fail_probed = fail < remaining;
  const std::size_t bracket = (fail_probed ? fail : remaining) - lo - 1;
  const std::size_t answer = offset - lo - 1;
  const int rounds =
      internal::BitWidth(bracket | 1) -
      static_cast<int>(internal::kShortBracketMask >> (8 * bracket + answer) &
                       1);
  return static_cast<std::uint64_t>(k - 1 + fail_probed + rounds);
}

/// Short seek over vals[pos..end) with vals[pos] < bound: when the least
/// index in (pos, end] whose value is >= bound (end if none) lies within
/// kShortSeekWindow slots of pos, or is end and the window reaches the
/// group's last slot, returns it and advances *comparisons by GallopCharge
/// of its offset — exactly what GallopingLowerBound would return and
/// charge. Otherwise returns pos and charges nothing; the caller then
/// gallops from pos. The window is read branch-free, with slots past the
/// group clamped to its last slot.
inline std::size_t ShortSeekLowerBound(const Value* vals, std::size_t pos,
                                       std::size_t end, Value bound,
                                       std::uint64_t* comparisons) {
  const std::size_t last = end - 1;
  std::size_t below = 0;
  for (std::size_t i = 1; i <= kShortSeekWindow; ++i) {
    const std::size_t idx = pos + i < last ? pos + i : last;
    below += vals[idx] < bound;
  }
  // A clamped slot repeats the last slot, so it counts only when every
  // slot of the group lies below the bound: the seek then ends the group.
  std::size_t offset = below + 1;
  if (below == kShortSeekWindow) {
    if (pos + kShortSeekWindow < last) return pos;  // lands past the window
    offset = end - pos;
  }
  *comparisons += GallopCharge(offset, end - pos);
  return pos + offset;
}

/// Leapfrog join over k >= 1 trie iterators positioned at the same logical
/// variable (each at its own trie level): a multi-way sort-merge
/// intersection of their sibling groups (Veldhuizen §3.1). Either the
/// caller Open()s all iterators to the variable's level before Init() and
/// makes the matching Up() calls afterwards, or Open() and Up() below do
/// both for it.
class LeapfrogJoin {
 public:
  /// Wraps the iterators; does not take ownership. Requires non-empty.
  explicit LeapfrogJoin(std::vector<TrieIterator*> iters);

  /// Positions all iterators at the first common value, if any.
  void Init();

  /// Opens every iterator one level down, then Init().
  void Open() {
    for (TrieIterator* it : iters_) it->Open();
    Init();
  }

  /// Ascends every iterator one level (the inverse of Open()).
  void Up() {
    for (TrieIterator* it : iters_) it->Up();
  }

  /// True when the intersection is exhausted.
  bool AtEnd() const { return at_end_; }

  /// The current common value. Requires !AtEnd().
  Value Key() const { return key_; }

  /// Advances to the next common value.
  void Next();

  /// Advances to the least common value >= bound.
  void Seek(Value bound);

  /// The join's own part of a saved cursor (see Save).
  struct Mark {
    std::size_t lead = 0;
    Value key = 0;
    bool at_end = false;
  };

  /// The number of participating iterators: the length of the position
  /// array Save writes and Restore reads.
  std::size_t width() const { return iters_.size(); }

  /// Saves the cursor: returns the join's own state and writes each
  /// participant's position to positions[0..width()). Restore(mark,
  /// positions) puts the join and every participant back exactly there,
  /// so a caller can run ahead with Next() and come back. Neither charges
  /// a memory access (see the counting contract above). Between the two,
  /// a participant Open()ed deeper must have been Up()ed again: a restore
  /// moves within a sibling group, never across one.
  Mark Save(std::size_t* positions) const {
    for (std::size_t i = 0; i < iters_.size(); ++i) {
      positions[i] = iters_[i]->Position();
    }
    return {p_, key_, at_end_};
  }
  void Restore(const Mark& mark, const std::size_t* positions) {
    for (std::size_t i = 0; i < iters_.size(); ++i) {
      iters_[i]->Restore(positions[i]);
    }
    p_ = mark.lead;
    key_ = mark.key;
    at_end_ = mark.at_end;
  }

 private:
  void Search();  // leapfrog_search of the paper

  // The rotation successor of iterator index i (no modulo on the hot path).
  std::size_t Following(std::size_t i) const {
    return i + 1 == iters_.size() ? 0 : i + 1;
  }

  std::vector<TrieIterator*> iters_;
  std::size_t p_ = 0;  // index of the iterator with the smallest key
  Value key_ = 0;
  bool at_end_ = false;
};

}  // namespace clftj

#endif  // CLFTJ_TRIE_LEAPFROG_H_
