#include "trie/trie_iterator.h"

#include <algorithm>

#include "trie/leapfrog.h"
#include "util/check.h"
#include "util/simd.h"

namespace clftj {

TrieIterator::TrieIterator(const Trie* trie, ExecStats* stats)
    : trie_(trie), stats_(stats) {
  CLFTJ_CHECK(trie != nullptr);
  const int d = trie->depth();
  pos_.resize(d, 0);
  group_begin_.resize(d, 0);
  group_end_.resize(d, 0);
}

Value TrieIterator::Key() const {
  CLFTJ_DCHECK(depth_ >= 0 && !at_end_);
  return trie_->values(depth_)[pos_[depth_]];
}

void TrieIterator::Open() {
  CLFTJ_DCHECK(!at_end_);
  CLFTJ_DCHECK(depth_ + 1 < trie_->depth());
  std::size_t begin = 0;
  std::size_t end = 0;
  if (depth_ < 0) {
    end = trie_->values(0).size();
  } else {
    const auto& starts = trie_->starts(depth_);
    begin = starts[pos_[depth_]];
    end = starts[pos_[depth_] + 1];
  }
  ++depth_;
  group_begin_[depth_] = begin;
  group_end_[depth_] = end;
  pos_[depth_] = begin;
  at_end_ = begin >= end;
  CLFTJ_DCHECK(!at_end_);  // tries have no dangling internal nodes
  Touch();                 // loading the first child
}

void TrieIterator::Up() {
  CLFTJ_CHECK(depth_ >= 0);
  --depth_;
  at_end_ = false;
}

void TrieIterator::Next() {
  CLFTJ_DCHECK(depth_ >= 0 && !at_end_);
  ++pos_[depth_];
  at_end_ = pos_[depth_] >= group_end_[depth_];
  Touch();
}

void TrieIterator::Seek(Value bound) {
  CLFTJ_DCHECK(depth_ >= 0 && !at_end_);
  const std::vector<Value>& vals = trie_->values(depth_);
  const std::size_t lo = pos_[depth_];
  const std::size_t end = group_end_[depth_];
  if (vals[lo] >= bound) {
    Touch();
    return;
  }
  // Galloping lower bound (4-way unrolled, branch-free; see leapfrog.h),
  // via the runtime-dispatched kernel (scalar or AVX2 — both charge the
  // same probe count): double the probe stride until overshooting, then
  // binary search the bracketed range. This gives the amortized bound
  // LFTJ's worst-case optimality relies on.
  std::uint64_t comparisons = 0;
  const std::size_t first =
      simd::SeekLowerBound(vals.data(), lo, end, bound, &comparisons);
  Touch(comparisons);
  pos_[depth_] = first;
  at_end_ = first >= end;
}

}  // namespace clftj
