#include "trie/trie_iterator.h"

#include "trie/leapfrog.h"
#include "util/simd.h"

namespace clftj {

TrieIterator::TrieIterator(const Trie* trie, ExecStats* stats)
    : stats_(stats) {
  CLFTJ_CHECK(trie != nullptr);
  const int depth = trie->depth();
  root_end_ = depth > 0 ? trie->values(0).size() : 0;
  levels_.push_back({nullptr, nullptr, 0, 1});
  for (int d = 0; d < depth; ++d) {
    levels_.push_back({trie->values(d).data(),
                       d + 1 < depth ? trie->starts(d).data() : nullptr, 0,
                       0});
  }
}

void TrieIterator::Open() {
  CLFTJ_DCHECK(!AtEnd());
  CLFTJ_DCHECK(depth_ + 2 < static_cast<int>(levels_.size()));
  Level& level = levels_[depth_ + 1];
  level.pos = pos_;
  level.end = end_;
  if (depth_ >= 0) {
    pos_ = level.starts[level.pos];
    end_ = level.starts[level.pos + 1];
  } else {
    pos_ = 0;
    end_ = root_end_;
  }
  ++depth_;
  vals_ = levels_[depth_ + 1].vals;
  CLFTJ_DCHECK(!AtEnd());  // tries have no dangling internal nodes
  Touch(1);                // loading the first child
}

void TrieIterator::Up() {
  CLFTJ_CHECK(depth_ >= 0);
  --depth_;
  const Level& level = levels_[depth_ + 1];
  vals_ = level.vals;
  pos_ = level.pos;
  end_ = level.end;
}

void TrieIterator::SeekAhead(Value bound) {
  // Most seeks land a few slots ahead (docs/simd.md "Short seeks"), where a
  // scan beats the gallop; the rest go through the dispatched galloping
  // search, whose O(log distance) cost is the amortized bound LFTJ's
  // worst-case optimality relies on (the scan's is constant). Both charge
  // the sequential gallop's probes (trie/leapfrog.h).
  std::uint64_t probes = 0;
  std::size_t first = ShortSeekLowerBound(vals_, pos_, end_, bound, &probes);
  if (first == pos_) {
    first = simd::SeekLowerBound(vals_, pos_, end_, bound, &probes);
  }
  Touch(probes);
  pos_ = first;
}

}  // namespace clftj
