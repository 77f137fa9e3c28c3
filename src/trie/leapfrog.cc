#include "trie/leapfrog.h"

#include "util/check.h"

namespace clftj {

LeapfrogJoin::LeapfrogJoin(std::vector<TrieIterator*> iters)
    : iters_(std::move(iters)) {
  CLFTJ_CHECK(!iters_.empty());
}

void LeapfrogJoin::Init() {
  at_end_ = false;
  for (TrieIterator* it : iters_) {
    if (it->AtEnd()) {
      at_end_ = true;
      return;
    }
  }
  // Stable insertion sort by key: k is the number of atoms sharing one
  // variable, and for k <= 16 this is the permutation std::sort produces
  // (libstdc++ insertion-sorts ranges that short), so which tied iterator
  // seeks first — and with it every charged probe — is unchanged.
  for (std::size_t i = 1; i < iters_.size(); ++i) {
    TrieIterator* it = iters_[i];
    const Value key = it->Key();
    std::size_t j = i;
    for (; j > 0 && key < iters_[j - 1]->Key(); --j) iters_[j] = iters_[j - 1];
    iters_[j] = it;
  }
  p_ = 0;
  Search();
}

void LeapfrogJoin::Search() {
  Value max_key = iters_[p_ == 0 ? iters_.size() - 1 : p_ - 1]->Key();
  while (true) {
    TrieIterator* it = iters_[p_];
    if (it->Key() == max_key) {
      key_ = max_key;
      return;  // all k iterators agree
    }
    it->Seek(max_key);
    if (it->AtEnd()) {
      at_end_ = true;
      return;
    }
    max_key = it->Key();
    p_ = Following(p_);
  }
}

void LeapfrogJoin::Next() {
  CLFTJ_DCHECK(!at_end_);
  TrieIterator* it = iters_[p_];
  it->Next();
  if (it->AtEnd()) {
    at_end_ = true;
    return;
  }
  p_ = Following(p_);
  Search();
}

void LeapfrogJoin::Seek(Value bound) {
  CLFTJ_DCHECK(!at_end_);
  if (bound <= key_) return;
  TrieIterator* it = iters_[p_];
  it->Seek(bound);
  if (it->AtEnd()) {
    at_end_ = true;
    return;
  }
  p_ = Following(p_);
  Search();
}

}  // namespace clftj
