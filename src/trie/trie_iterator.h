#ifndef CLFTJ_TRIE_TRIE_ITERATOR_H_
#define CLFTJ_TRIE_TRIE_ITERATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trie/trie.h"
#include "util/check.h"
#include "util/common.h"
#include "util/stats.h"

namespace clftj {

/// The LFTJ linear-iterator interface over one Trie (Veldhuizen §3): a
/// cursor that walks one trie level at a time. At any moment the iterator
/// sits at some depth within a sibling group; Open() descends into the
/// children of the current value, Up() ascends. Next()/Seek() move within
/// the sibling group and may move past its end (AtEnd() becomes true, the
/// position stays recoverable via Up()).
///
/// Every value comparison increments stats->memory_accesses (if a stats
/// sink is attached), which is how the paper-style memory-traffic numbers
/// are produced.
///
/// Layout: the current level is three members — its value array, the
/// position and the sibling group's end — so Key/Next/AtEnd/Seek touch no
/// per-level vector. Open() saves the cursor in its level's slot before it
/// descends, and Up() restores it.
class TrieIterator {
 public:
  /// Creates an iterator at the (virtual) root of the trie — depth -1.
  /// The trie must outlive the iterator. `stats` may be null.
  explicit TrieIterator(const Trie* trie, ExecStats* stats = nullptr);

  /// Current depth: -1 at the root, 0..depth-1 inside the trie.
  int depth() const { return depth_; }

  /// True if positioned past the last sibling at the current depth. The
  /// root is one virtual node and never at its end.
  bool AtEnd() const { return pos_ >= end_; }

  /// The value at the current position. Requires depth() >= 0 && !AtEnd().
  Value Key() const {
    CLFTJ_DCHECK(depth_ >= 0 && !AtEnd());
    return vals_[pos_];
  }

  /// Descends to the first child of the current value (or to the first
  /// root-level value when at the root). Requires !AtEnd(); requires the
  /// current depth to have a next level. The first child always exists —
  /// tries have no dangling internal nodes.
  void Open();

  /// Ascends one level; recovers from AtEnd. Requires depth() >= 0.
  void Up();

  /// Moves to the next sibling; may set AtEnd. Requires !AtEnd().
  void Next() {
    CLFTJ_DCHECK(depth_ >= 0 && !AtEnd());
    ++pos_;
    Touch(1);
  }

  /// Moves to the least sibling whose value is >= bound; may set AtEnd.
  /// Requires !AtEnd() and bound >= Key() (seeks never go backwards). A
  /// landing within kShortSeekWindow slots is found by a scan, a farther
  /// one by the dispatched galloping search; either way the charge is the
  /// sequential gallop's (see the counting contract in trie/leapfrog.h).
  void Seek(Value bound) {
    CLFTJ_DCHECK(depth_ >= 0 && !AtEnd());
    if (vals_[pos_] >= bound) {
      Touch(1);
      return;
    }
    SeekAhead(bound);
  }

  /// The cursor's position within its current sibling group, for Restore.
  std::size_t Position() const { return pos_; }

  /// Moves back (or ahead) to a position Position() returned at this depth
  /// in this sibling group. Charges no memory access: it reads no value,
  /// and the position was paid for when the cursor first reached it (see
  /// the counting contract in trie/leapfrog.h).
  void Restore(std::size_t pos) {
    CLFTJ_DCHECK(depth_ >= 0 && pos <= end_);
    pos_ = pos;
  }

 private:
  // One trie level as the cursor sees it. Index 0 is the virtual root,
  // whose one node's children are all of trie level 0; index d + 1 is
  // trie level d.
  struct Level {
    const Value* vals;            // the level's values (null at the root)
    const std::uint32_t* starts;  // child ranges (null at the root and
                                  //   at the leaf level)
    std::size_t pos;              // the level's cursor, saved by Open()
    std::size_t end;              //   while the iterator is deeper
  };

  // Seek's search once vals_[pos_] < bound is known.
  void SeekAhead(Value bound);

  void Touch(std::uint64_t n) const {
    if (stats_ != nullptr) stats_->memory_accesses += n;
  }

  ExecStats* stats_;
  // The current level's values, position and group end (levels_ keeps a
  // level's position and end only while the iterator is deeper).
  const Value* vals_ = nullptr;
  std::size_t pos_ = 0;
  std::size_t end_ = 1;
  int depth_ = -1;
  std::size_t root_end_ = 0;  // the size of trie level 0
  std::vector<Level> levels_;
};

}  // namespace clftj

#endif  // CLFTJ_TRIE_TRIE_ITERATOR_H_
