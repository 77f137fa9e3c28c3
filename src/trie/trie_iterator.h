#ifndef CLFTJ_TRIE_TRIE_ITERATOR_H_
#define CLFTJ_TRIE_TRIE_ITERATOR_H_

#include <vector>

#include "trie/trie.h"
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
class TrieIterator {
 public:
  /// Creates an iterator at the (virtual) root of the trie — depth -1.
  /// The trie must outlive the iterator. `stats` may be null.
  explicit TrieIterator(const Trie* trie, ExecStats* stats = nullptr);

  /// Current depth: -1 at the root, 0..depth-1 inside the trie.
  int depth() const { return depth_; }

  /// True if positioned past the last sibling at the current depth.
  bool AtEnd() const { return at_end_; }

  /// The value at the current position. Requires depth() >= 0 && !AtEnd().
  Value Key() const;

  /// Descends to the first child of the current value (or to the first
  /// root-level value when at the root). Requires !AtEnd(); requires the
  /// current depth to have a next level. The first child always exists —
  /// tries have no dangling internal nodes.
  void Open();

  /// Ascends one level; recovers from AtEnd. Requires depth() >= 0.
  void Up();

  /// Moves to the next sibling; may set AtEnd. Requires !AtEnd().
  void Next();

  /// Moves to the least sibling whose value is >= bound (galloping +
  /// binary search, amortized O(1 + log of distance)); may set AtEnd.
  /// Requires !AtEnd() and bound >= Key() (seeks never go backwards).
  void Seek(Value bound);

 private:
  // Sibling-group bounds at each depth d: positions pos_[d] within
  // [group_begin_[d], group_end_[d]) of trie_->values(d).
  const Trie* trie_;
  ExecStats* stats_;
  int depth_ = -1;
  bool at_end_ = false;
  std::vector<std::size_t> pos_;
  std::vector<std::size_t> group_begin_;
  std::vector<std::size_t> group_end_;

  void Touch(std::uint64_t n = 1) const {
    if (stats_ != nullptr) stats_->memory_accesses += n;
  }
};

}  // namespace clftj

#endif  // CLFTJ_TRIE_TRIE_ITERATOR_H_
