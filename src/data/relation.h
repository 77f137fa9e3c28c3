#ifndef CLFTJ_DATA_RELATION_H_
#define CLFTJ_DATA_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "util/common.h"

namespace clftj {

/// Zero-copy view of one column of a Relation: a contiguous, borrowed
/// `const Value*` range. Spans are invalidated by any mutation of the
/// owning Relation (Add/AddPair/Normalize) and must not outlive it — they
/// are meant for streaming consumers (trie builds, support scans, frequency
/// histograms) that read a whole column within one call.
class ColumnSpan {
 public:
  ColumnSpan() = default;
  ColumnSpan(const Value* data, std::size_t size) : data_(data), size_(size) {}

  const Value* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const Value* begin() const { return data_; }
  const Value* end() const { return data_ + size_; }

  Value operator[](std::size_t i) const { return data_[i]; }
  Value front() const { return data_[0]; }
  Value back() const { return data_[size_ - 1]; }

 private:
  const Value* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Memoized per-column summary statistics, computed lazily on first use and
/// kept until the next mutation (see Relation::Stats). One O(n log n) sort
/// pass produces all fields, so the planner, cost model, and cache policies
/// can consult them repeatedly for free.
struct ColumnStats {
  /// Number of distinct values in the column.
  std::size_t distinct = 0;
  /// Maximum occurrence count of any single value — the data "skew"
  /// statistic used by caching policies and the planner.
  std::size_t max_frequency = 0;
  /// Smallest / largest value; meaningless (0) when the column is empty.
  Value min = 0;
  Value max = 0;
  /// Collision-based effective distinct count (Σf)² / Σf²: equals the true
  /// distinct count for uniform data and shrinks sharply under skew. 0 for
  /// an empty column. Consumed by the cached-plan cost model.
  double effective_distinct = 0.0;
};

/// Process-wide thread budget for Normalize's permutation sort (part of
/// the SIMD/parallel hot-path surface, see docs/simd.md). 0 (the default)
/// means auto: min(4, hardware_concurrency). Values are clamped to [0, 16];
/// negative values restore auto. Takes effect on the next Normalize call —
/// small relations (below an internal row floor) always sort serially, and
/// the sharded sort produces value-identical columns to the serial one
/// (equal rows are interchangeable, and the merge is stable).
void SetNormalizeParallelism(int threads);

/// The configured setting (0 = auto), not the resolved thread count.
int NormalizeParallelism();

/// Outcome of one Relation::ApplyDelta call.
struct DeltaResult {
  std::size_t applied_adds = 0;     ///< tuples that became visible
  std::size_t applied_deletes = 0;  ///< tuples that stopped being visible
};

/// An in-memory relation stored column-major: one contiguous vector of
/// values per column, so every whole-column consumer — trie builds over
/// arbitrary column permutations, admission-filter support scans, cost-model
/// frequency passes — streams cache-line-contiguous data via ColumnSpan
/// instead of a strided row-major gather. All index structure lives in the
/// Trie module. Relations are set-semantics after Normalize().
///
/// Incremental maintenance (see docs/incremental.md): ApplyDelta merges a
/// batch straight into the sorted columns and bumps compactions(), the
/// relation's version, so there is only ever one image of the data and
/// every consumer reads it through Column()/size().
///
/// Statistics: DistinctInColumn / MaxFrequencyInColumn / Stats are memoized
/// per column and PrefixDistinct per column order (each installed at most
/// once between mutations); any Add, Normalize or row-changing ApplyDelta
/// invalidates the memo. The memo is mutex-guarded (the compute itself runs
/// outside the lock), so concurrent *readers* of one relation are safe;
/// mutation is not safe against concurrent access, like any container.
class Relation {
 public:
  /// Creates an empty relation. Requires arity >= 1.
  Relation(std::string name, int arity);

  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  /// Moves leave `other` as a consistent arity-0 empty shell: no column or
  /// row index is valid on it, so only the observers (size/arity/empty/
  /// name), destruction and assignment remain in contract.
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  /// Appends one tuple. Requires tuple.size() == arity().
  void Add(const Tuple& tuple);

  /// Appends the tuple (a, b); convenience for binary edge relations.
  void AddPair(Value a, Value b);

  /// Pre-allocates column storage for `rows` tuples.
  void Reserve(std::size_t rows);

  /// Bulk construction from ready-made columns (moved in): columns[c][i] is
  /// the value of row i in column c; all columns must have equal length.
  /// Requires at least one column.
  static Relation FromColumns(std::string name,
                              std::vector<std::vector<Value>> columns);

  /// As above, with an explicit per-column type schema (size == #columns).
  static Relation FromColumns(std::string name,
                              std::vector<std::vector<Value>> columns,
                              std::vector<ColumnType> types);

  /// Sorts tuples lexicographically and removes duplicates (set semantics).
  /// Implemented as a permutation sort: an index vector is sorted against
  /// the columns and applied to each column, so rows never materialize.
  void Normalize();

  /// Zero-copy view of one column. Invalidated by any mutation.
  ColumnSpan Column(int col) const {
    return ColumnSpan(columns_[col].data(), num_rows_);
  }

  /// Memoized statistics of one column; computed on first use after a
  /// mutation, O(1) afterwards. The reference stays valid until the next
  /// mutation.
  const ColumnStats& Stats(int col) const;

  /// Memoized trie level sizes of the visible rows under a column order:
  /// element l is the number of distinct projections onto cols[0..l], i.e.
  /// the size of level l of a trie built over those columns in that order
  /// (Trie::FromColumns), without building it. `cols` must be a permutation
  /// of the relation's columns, so at most arity()! orders are memoized.
  /// Same memo contract as Stats; the reference stays valid until the next
  /// mutation.
  const std::vector<std::size_t>& PrefixDistinct(
      const std::vector<int>& cols) const;

  /// Returns the i-th tuple as a copy. Requires i < size(). Compatibility
  /// shim: hot paths should stream Column(c) instead.
  Tuple TupleAt(std::size_t i) const;

  /// Returns the value at (row, column). Compatibility shim over the
  /// columnar storage; whole-column consumers should use Column(col).
  Value At(std::size_t row, int col) const { return columns_[col][row]; }

  /// Number of tuples.
  std::size_t size() const { return num_rows_; }

  bool empty() const { return num_rows_ == 0; }
  int arity() const { return arity_; }
  const std::string& name() const { return name_; }

  /// Logical type of one column (kInt unless a schema marked it kString).
  /// The physical storage is Value either way; the type only tells the
  /// output/save boundary whether values are Dictionary ids to decode.
  ColumnType column_type(int col) const {
    return types_[static_cast<std::size_t>(col)];
  }

  /// The full per-column type schema (size == arity()).
  const std::vector<ColumnType>& column_types() const { return types_; }

  /// Installs a per-column type schema. Requires types.size() == arity().
  /// Purely metadata: does not touch the stored values or the stats memo.
  void set_column_types(std::vector<ColumnType> types);

  /// True if any column is kString (i.e. rendering this relation needs a
  /// Dictionary).
  bool has_string_columns() const;

  /// Number of distinct values in the given column (memoized; O(n log n)
  /// on first use per column, O(1) afterwards).
  std::size_t DistinctInColumn(int col) const { return Stats(col).distinct; }

  /// Maximum number of occurrences of any single value in `col` (memoized).
  std::size_t MaxFrequencyInColumn(int col) const {
    return Stats(col).max_frequency;
  }

  /// Approximate heap footprint of the column storage in bytes.
  std::size_t MemoryBytes() const;

  /// Number of per-column stats blocks computed since construction — each
  /// column contributes at most one between mutations (PrefixDistinct
  /// entries are not counted). Exposed so tests can pin the memoization
  /// contract.
  std::uint64_t stats_builds() const;

  // --- Incremental maintenance --------------------------------------------

  /// Applies one incremental batch: `deletes` first (a tuple that is not
  /// visible is a no-op), then `adds` (a tuple that is already visible is a
  /// no-op). Every tuple must have arity() values. A batch that changes a
  /// row is merged into the sorted columns in one O(size()) pass (no sort),
  /// bumps compactions() and, like every mutator, invalidates spans and
  /// stats; a batch that changes nothing leaves the relation untouched.
  /// When `changed` is non-null it receives exactly the tuples whose
  /// visibility flipped (a tuple deleted and re-added by the same batch is
  /// not among them). Requires exclusive access.
  DeltaResult ApplyDelta(const std::vector<Tuple>& adds,
                         const std::vector<Tuple>& deletes,
                         std::vector<Tuple>* changed = nullptr);

  /// The relation's version: bumped by every ApplyDelta batch that changes
  /// a row. Long-lived state derived from the rows (the substrate
  /// registry's tries) keys on it. The name dates from the two-tier
  /// storage whose compactions this counter once tracked.
  std::uint64_t compactions() const { return compactions_; }

 private:
  void InvalidateStats();
  /// True if rows are strictly increasing lexicographically (sorted set).
  bool IsNormalized() const;

  std::string name_;
  int arity_;
  std::size_t num_rows_ = 0;
  std::vector<std::vector<Value>> columns_;  // arity_ vectors of num_rows_
  std::vector<ColumnType> types_;            // arity_ entries, default kInt

  std::uint64_t compactions_ = 0;

  // Lazily built per-column stats and per-order prefix counts; mutex guards
  // lazy engagement so concurrent readers (e.g. plan resolution on several
  // threads over one shared Database) are safe. A map, so installing one
  // order never moves another's counts out from under a returned reference.
  mutable std::mutex stats_mutex_;
  mutable std::vector<std::optional<ColumnStats>> stats_;
  mutable std::map<std::vector<int>, std::vector<std::size_t>>
      prefix_distinct_;
  mutable std::uint64_t stats_builds_ = 0;
  // Fast-path flag so per-row Add calls skip the invalidation lock while no
  // stats are memoized. Only mutators read it, and mutation is exclusive by
  // contract, so the unsynchronized read is safe.
  mutable bool stats_present_ = false;
};

}  // namespace clftj

#endif  // CLFTJ_DATA_RELATION_H_
