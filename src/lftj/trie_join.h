#ifndef CLFTJ_LFTJ_TRIE_JOIN_H_
#define CLFTJ_LFTJ_TRIE_JOIN_H_

#include <memory>
#include <vector>

#include "engine/engine.h"
#include "query/query.h"
#include "trie/leapfrog.h"
#include "trie/trie.h"
#include "trie/trie_iterator.h"

namespace clftj {

/// Vanilla Leapfrog Trie Join (Veldhuizen 2014; Figure 1 of the paper):
/// a worst-case-optimal multiway join that assigns variables one at a time
/// in a fixed order, intersecting the tries of all atoms containing the
/// current variable with a leapfrog merge. Memory footprint is the tries
/// plus O(#vars) cursor state; no intermediate results are stored.
class LeapfrogTrieJoin : public JoinEngine {
 public:
  struct Options {
    /// Variable elimination order; empty means the query's natural order
    /// x1, ..., xn (the paper's "original LFTJ order").
    std::vector<VarId> order;
  };

  LeapfrogTrieJoin() = default;
  explicit LeapfrogTrieJoin(Options options) : options_(std::move(options)) {}

  std::string name() const override { return "LFTJ"; }

  RunResult Count(const Query& q, const Database& db,
                  const RunLimits& limits) override;

  RunResult Evaluate(const Query& q, const Database& db,
                     const TupleCallback& cb, const RunLimits& limits) override;

 private:
  Options options_;
};

/// The immutable half of a trie-join run: atom views (tries) ordered by a
/// variable order plus the per-depth participation map. Built once per
/// (query, database, order); after construction nothing is ever mutated, so
/// any number of TrieJoinContext cursors — including cursors on concurrent
/// threads — may read one substrate. This is the planning/immutable side of
/// the run/plan state split; all per-run mutable state (iterator positions,
/// leapfrog joins, stats) lives in TrieJoinContext.
class TrieJoinSubstrate {
 public:
  /// Builds tries and the depth participation map. `order` must be a
  /// permutation of the query's variables; the query must cover all its
  /// variables with atoms and all referenced relations must exist in `db`
  /// with matching arities.
  TrieJoinSubstrate(const Query& q, const Database& db,
                    const std::vector<VarId>& order);

  /// Assembles a substrate around externally built views — the reuse
  /// store's path (CrossQueryReuse), where the tries inside the views are
  /// shared with other queries and only the cheap per-query indexing
  /// happens here. `views` must hold one view per atom of `q`, in atom order, each
  /// built for the ranks induced by `order`.
  TrieJoinSubstrate(const Query& q, const std::vector<VarId>& order,
                    std::vector<AtomView> views);

  /// True if some atom's filtered view is empty (the result is empty).
  bool HasEmptyAtom() const { return has_empty_atom_; }

  int num_vars() const { return static_cast<int>(order_.size()); }
  const std::vector<VarId>& order() const { return order_; }
  const std::vector<AtomView>& views() const { return views_; }

  /// Indices into views() of the atoms participating at each depth; every
  /// depth has at least one participant.
  const std::vector<std::vector<int>>& atoms_at_depth() const {
    return atoms_at_depth_;
  }

 private:
  /// Validates that order_ is a permutation of q's variables; returns the
  /// rank (depth) of each variable.
  std::vector<int> CheckOrder(const Query& q) const;
  /// Fills atoms_at_depth_ from views_' level variables.
  void IndexDepths(const std::vector<int>& var_rank);

  std::vector<VarId> order_;
  std::vector<AtomView> views_;
  std::vector<std::vector<int>> atoms_at_depth_;
  bool has_empty_atom_ = false;
};

/// The per-run cursor shared by LFTJ and CLFTJ: one trie iterator per atom
/// and a leapfrog join per depth, over an immutable TrieJoinSubstrate.
/// Exposed so the cached variant (clftj/) reuses the identical substrate —
/// when no caching happens the two algorithms must coincide step for step.
/// A cursor is cheap (O(#atoms + #vars) cursor state, no trie copies), so a
/// parallel executor constructs one per worker over one shared substrate.
class TrieJoinContext {
 public:
  /// Cursor over an externally owned substrate, which must outlive the
  /// context. This is the re-entrant path: many contexts, one substrate.
  TrieJoinContext(const TrieJoinSubstrate& substrate, ExecStats* stats);

  /// Convenience single-run path: builds and owns a private substrate.
  TrieJoinContext(const Query& q, const Database& db,
                  const std::vector<VarId>& order, ExecStats* stats);

  /// True if some atom's filtered view is empty (the result is empty).
  bool HasEmptyAtom() const { return substrate_->HasEmptyAtom(); }

  int num_vars() const { return substrate_->num_vars(); }
  const std::vector<VarId>& order() const { return substrate_->order(); }

  /// The variable at a given depth of the elimination order.
  VarId VarAtDepth(int d) const { return substrate_->order()[d]; }

  /// Opens all iterators participating at depth d and initializes the
  /// leapfrog join. Returns the join (owned by the context).
  LeapfrogJoin* EnterDepth(int d) {
    LeapfrogJoin* join = &joins_[d];
    join->Open();
    return join;
  }

  /// Closes depth d (ascends all participating iterators).
  void LeaveDepth(int d) { joins_[d].Up(); }

 private:
  void Attach(ExecStats* stats);

  std::unique_ptr<const TrieJoinSubstrate> owned_;  // convenience path only
  const TrieJoinSubstrate* substrate_;
  std::vector<TrieIterator> iters_;  // one per atom; never reallocated
  std::vector<LeapfrogJoin> joins_;  // one per depth, over iters_
};

}  // namespace clftj

#endif  // CLFTJ_LFTJ_TRIE_JOIN_H_
