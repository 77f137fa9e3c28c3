#ifndef CLFTJ_TRIE_TRIE_H_
#define CLFTJ_TRIE_TRIE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/database.h"
#include "data/relation.h"
#include "query/query.h"
#include "util/common.h"

namespace clftj {

/// A sorted trie over fixed-arity tuples, stored as "cascading vectors"
/// (CSR-style level arrays), the layout the paper uses for its YTD
/// implementation and which also serves LFTJ:
///
///   values_[l]  — all values at trie level l, grouped by parent; each
///                 sibling group is sorted ascending.
///   starts_[l]  — for l < depth-1: starts_[l][i]..starts_[l][i+1] is the
///                 child range in values_[l+1] of the i-th value at level l
///                 (one sentinel entry at the end).
///
/// Every root-to-leaf path is a distinct tuple and vice versa. Sibling
/// groups support O(log n) seekLowerBound via binary/galloping search, which
/// is what gives LFTJ its amortized complexity guarantee.
///
/// Thread safety: a built Trie is immutable — every accessor is const and
/// touches only data laid down by Build/FromColumns, so any number of
/// threads (each with its own TrieIterator cursor) may read one Trie
/// concurrently. This is what lets the sharded executor share one set of
/// atom views across all workers.
class Trie {
 public:
  /// Creates an empty trie of depth 0; use Build() for real tries.
  Trie() = default;

  /// Builds a trie of the given depth from rows (each of size depth). Rows
  /// may be unsorted and contain duplicates. depth == 0 yields a trie whose
  /// only information is whether any (empty) row exists. Convenience
  /// wrapper over FromColumns for tests and small inputs.
  static Trie Build(int depth, std::vector<Tuple> rows);

  /// Builds a trie from columnar data: columns[l][i] is the level-l value
  /// of row i; every column has num_rows entries. This is the bulk path —
  /// instead of materializing and sorting row tuples (one heap vector per
  /// row), it sorts a single permutation index over the columns and emits
  /// the level arrays in one pass, so construction allocates O(depth)
  /// vectors regardless of row count.
  static Trie FromColumns(int depth, std::size_t num_rows,
                          std::vector<std::vector<Value>> columns);

  int depth() const { return depth_; }

  /// Number of tuples (root-to-leaf paths).
  std::size_t num_tuples() const { return num_tuples_; }

  /// All values at a level. Requires 0 <= level < depth().
  const std::vector<Value>& values(int level) const { return values_[level]; }

  /// Child-range boundaries between level and level+1.
  const std::vector<std::uint32_t>& starts(int level) const {
    return starts_[level];
  }

  /// Approximate heap footprint in bytes (for memory-budget accounting).
  std::size_t MemoryBytes() const;

 private:
  int depth_ = 0;
  std::size_t num_tuples_ = 0;
  std::vector<std::vector<Value>> values_;
  std::vector<std::vector<std::uint32_t>> starts_;
};

/// The per-atom view an engine joins over: the atom's relation filtered by
/// its constant arguments and repeated-variable equalities, projected to its
/// distinct variables, and trie-ordered by a global variable order.
struct AtomView {
  /// The atom's distinct variables in trie-level order (sorted by their
  /// position in the global variable order).
  std::vector<VarId> level_vars;
  /// Shared, immutable: the serving loop's reuse store (CrossQueryReuse)
  /// hands the same Trie to every query (and every concurrent worker)
  /// whose atom projects to the same filtered, ordered view of the
  /// relation — level_vars stay query-specific while the expensive part
  /// is built once. Never null after BuildAtomView.
  std::shared_ptr<const Trie> trie;
  /// False iff the filtered view is empty — in particular a fully-constant
  /// atom that matched no tuple, which makes the whole query empty.
  bool non_empty = false;
};

/// The atom's distinct variables sorted by their rank in a global variable
/// order (var_rank[v] = position of v): the trie levels of its view.
std::vector<VarId> LevelVarsFor(const Atom& atom,
                                const std::vector<int>& var_rank);

/// Builds the AtomView of `atom` over `relation` for a global variable order
/// given as ranks: var_rank[v] = position of variable v in the order.
AtomView BuildAtomView(const Relation& relation, const Atom& atom,
                       const std::vector<int>& var_rank);

/// Builds every atom's view of `q` over `db` in atom order (the bulk path
/// used by TrieJoinSubstrate). Sets *any_empty to true iff some filtered
/// view is empty (the query result is then empty). The returned views are
/// immutable after this call and safe for concurrent shared reads.
std::vector<AtomView> BuildAtomViews(const Query& q, const Database& db,
                                     const std::vector<int>& var_rank,
                                     bool* any_empty);

}  // namespace clftj

#endif  // CLFTJ_TRIE_TRIE_H_
