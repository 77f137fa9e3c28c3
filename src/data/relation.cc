#include "data/relation.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <utility>

#include "util/check.h"
#include "util/simd.h"

namespace clftj {

namespace {

std::atomic<int> g_normalize_threads{0};  // 0 = auto

// Sharding a sort below this row count costs more in thread spawn than the
// sort itself; such loads (and every single-threaded resolution) stay on
// the serial path, which is also the reference arm the sharded result is
// differentially tested against.
constexpr std::size_t kNormalizeShardFloor = 1u << 12;

int ResolvedNormalizeThreads() {
  int t = g_normalize_threads.load(std::memory_order_relaxed);
  if (t <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    t = static_cast<int>(hw == 0 ? 1 : std::min(hw, 4u));
  }
  return t;
}

}  // namespace

void SetNormalizeParallelism(int threads) {
  if (threads < 0) threads = 0;
  if (threads > 16) threads = 16;
  g_normalize_threads.store(threads, std::memory_order_relaxed);
}

int NormalizeParallelism() {
  return g_normalize_threads.load(std::memory_order_relaxed);
}

Relation::Relation(std::string name, int arity)
    : name_(std::move(name)),
      arity_(arity),
      columns_(static_cast<std::size_t>(arity)),
      types_(static_cast<std::size_t>(arity), ColumnType::kInt),
      stats_(static_cast<std::size_t>(arity)) {
  CLFTJ_CHECK(arity >= 1);
}

Relation::Relation(const Relation& other)
    : name_(other.name_),
      arity_(other.arity_),
      num_rows_(other.num_rows_),
      columns_(other.columns_),
      types_(other.types_),
      compactions_(other.compactions_) {
  std::lock_guard<std::mutex> lock(other.stats_mutex_);
  stats_ = other.stats_;
  prefix_distinct_ = other.prefix_distinct_;
  stats_builds_ = other.stats_builds_;
  stats_present_ = other.stats_present_;
}

namespace {

// Leaves a moved-from relation as a consistent arity-0 shell without
// allocating (the move operations are noexcept, so they may neither lock —
// mutation requires exclusive access to both operands by contract anyway —
// nor allocate): its moved-from vectors are empty, and with arity 0 and
// size 0 the shell has no valid column or row index, so the element
// accessors' preconditions (col < arity(), i < size()) are unsatisfiable —
// observers (size/arity/empty/name), destruction and assignment are the
// only operations in contract, and they are all safe.
void ResetMovedFrom(std::size_t* num_rows, int* arity,
                    std::uint64_t* stats_builds,
                    bool* stats_present) noexcept {
  *num_rows = 0;
  *arity = 0;
  *stats_builds = 0;
  *stats_present = false;
}

}  // namespace

Relation::Relation(Relation&& other) noexcept
    : name_(std::move(other.name_)),
      arity_(other.arity_),
      num_rows_(other.num_rows_),
      columns_(std::move(other.columns_)),
      types_(std::move(other.types_)),
      compactions_(other.compactions_),
      stats_(std::move(other.stats_)),
      prefix_distinct_(std::move(other.prefix_distinct_)),
      stats_builds_(other.stats_builds_),
      stats_present_(other.stats_present_) {
  ResetMovedFrom(&other.num_rows_, &other.arity_, &other.stats_builds_,
                 &other.stats_present_);
}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  name_ = other.name_;
  arity_ = other.arity_;
  num_rows_ = other.num_rows_;
  columns_ = other.columns_;
  types_ = other.types_;
  compactions_ = other.compactions_;
  std::scoped_lock lock(stats_mutex_, other.stats_mutex_);
  stats_ = other.stats_;
  prefix_distinct_ = other.prefix_distinct_;
  stats_builds_ = other.stats_builds_;
  stats_present_ = other.stats_present_;
  return *this;
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  name_ = std::move(other.name_);
  arity_ = other.arity_;
  num_rows_ = other.num_rows_;
  columns_ = std::move(other.columns_);
  types_ = std::move(other.types_);
  compactions_ = other.compactions_;
  stats_ = std::move(other.stats_);
  prefix_distinct_ = std::move(other.prefix_distinct_);
  stats_builds_ = other.stats_builds_;
  stats_present_ = other.stats_present_;
  ResetMovedFrom(&other.num_rows_, &other.arity_, &other.stats_builds_,
                 &other.stats_present_);
  return *this;
}

void Relation::Add(const Tuple& tuple) {
  CLFTJ_CHECK(static_cast<int>(tuple.size()) == arity_);
  for (int c = 0; c < arity_; ++c) columns_[c].push_back(tuple[c]);
  ++num_rows_;
  InvalidateStats();
}

void Relation::AddPair(Value a, Value b) {
  CLFTJ_CHECK(arity_ == 2);
  columns_[0].push_back(a);
  columns_[1].push_back(b);
  ++num_rows_;
  InvalidateStats();
}

void Relation::Reserve(std::size_t rows) {
  for (auto& column : columns_) column.reserve(rows);
}

Relation Relation::FromColumns(std::string name,
                               std::vector<std::vector<Value>> columns) {
  CLFTJ_CHECK(!columns.empty());
  Relation rel(std::move(name), static_cast<int>(columns.size()));
  rel.num_rows_ = columns.front().size();
  for (const auto& column : columns) {
    CLFTJ_CHECK(column.size() == rel.num_rows_);
  }
  rel.columns_ = std::move(columns);
  return rel;
}

Relation Relation::FromColumns(std::string name,
                               std::vector<std::vector<Value>> columns,
                               std::vector<ColumnType> types) {
  Relation rel = FromColumns(std::move(name), std::move(columns));
  rel.set_column_types(std::move(types));
  return rel;
}

void Relation::set_column_types(std::vector<ColumnType> types) {
  CLFTJ_CHECK(static_cast<int>(types.size()) == arity_);
  types_ = std::move(types);
}

bool Relation::has_string_columns() const {
  for (const ColumnType t : types_) {
    if (t == ColumnType::kString) return true;
  }
  return false;
}

void Relation::Normalize() {
  InvalidateStats();
  const std::size_t n = num_rows_;
  if (n <= 1) return;
  const int k = arity_;

  // Sort a permutation of row indices against the columns: the columns
  // stay put, only indices move. The column base pointers are hoisted so
  // the comparator does no double indirection through the outer vector.
  std::vector<const Value*> cols(k);
  for (int c = 0; c < k; ++c) cols[c] = columns_[c].data();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const auto row_less = [&cols, k](std::size_t a, std::size_t b) {
    for (int c = 0; c < k; ++c) {
      const Value va = cols[c][a];
      const Value vb = cols[c][b];
      if (va != vb) return va < vb;
    }
    return false;
  };
  const int shards =
      n >= kNormalizeShardFloor ? ResolvedNormalizeThreads() : 1;
  if (shards <= 1) {
    std::sort(order.begin(), order.end(), row_less);
  } else {
    // Sharded sort for bulk loads: sort `shards` contiguous slices of the
    // index vector concurrently, then fold them with a pairwise stable
    // merge tree. Ties (duplicate rows) may land in a different index
    // order than the serial sort, but equal rows carry equal values in
    // every column, so the deduplicated output columns are value-identical
    // either way (pinned by the sharded-vs-serial suite in simd_test.cc).
    std::vector<std::size_t> bounds(static_cast<std::size_t>(shards) + 1);
    for (int s = 0; s <= shards; ++s) {
      bounds[s] = n * static_cast<std::size_t>(s) /
                  static_cast<std::size_t>(shards);
    }
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(shards) - 1);
    for (int s = 1; s < shards; ++s) {
      workers.emplace_back([&order, &bounds, &row_less, s] {
        std::sort(order.begin() + static_cast<std::ptrdiff_t>(bounds[s]),
                  order.begin() + static_cast<std::ptrdiff_t>(bounds[s + 1]),
                  row_less);
      });
    }
    std::sort(order.begin(),
              order.begin() + static_cast<std::ptrdiff_t>(bounds[1]),
              row_less);
    for (std::thread& w : workers) w.join();
    for (int step = 1; step < shards; step *= 2) {
      for (int s = 0; s + step < shards; s += 2 * step) {
        const int hi = std::min(s + 2 * step, shards);
        std::inplace_merge(
            order.begin() + static_cast<std::ptrdiff_t>(bounds[s]),
            order.begin() + static_cast<std::ptrdiff_t>(bounds[s + step]),
            order.begin() + static_cast<std::ptrdiff_t>(bounds[hi]),
            row_less);
      }
    }
  }

  // Keep one representative per run of equal rows (sorted order makes
  // duplicates adjacent). Dispatched: the AVX2 arm gathers 4 adjacent
  // (row, predecessor) pairs per column and emits differing lanes, with
  // the same keep list bit for bit as the scalar arm (simd_test.cc).
  std::vector<std::size_t> keep;
  keep.reserve(n);
  simd::DedupRows(cols.data(), k, order.data(), n, &keep);

  // Apply the deduplicated permutation to each column independently.
  for (int c = 0; c < k; ++c) {
    std::vector<Value> out;
    out.reserve(keep.size());
    const Value* src = columns_[c].data();
    for (const std::size_t row : keep) out.push_back(src[row]);
    columns_[c] = std::move(out);
  }
  num_rows_ = keep.size();
}

Tuple Relation::TupleAt(std::size_t i) const {
  CLFTJ_CHECK(i < num_rows_);
  Tuple t(arity_);
  for (int c = 0; c < arity_; ++c) t[c] = columns_[c][i];
  return t;
}

namespace {

// One sorted pass produces every ColumnStats field.
ColumnStats ComputeColumnStats(const std::vector<Value>& column) {
  ColumnStats s;
  if (column.empty()) return s;
  std::vector<Value> vals(column);
  std::sort(vals.begin(), vals.end());
  s.min = vals.front();
  s.max = vals.back();
  std::size_t run = 0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (i > 0 && vals[i] == vals[i - 1]) {
      ++run;
    } else {
      if (run > 0) sum_sq += static_cast<double>(run) * run;
      run = 1;
      ++s.distinct;
    }
    s.max_frequency = std::max(s.max_frequency, run);
  }
  sum_sq += static_cast<double>(run) * run;
  const double n = static_cast<double>(vals.size());
  s.effective_distinct = (n * n) / sum_sq;
  return s;
}

}  // namespace

const ColumnStats& Relation::Stats(int col) const {
  CLFTJ_CHECK(col >= 0 && col < arity_);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (stats_[col].has_value()) return *stats_[col];
  }
  // Compute outside the lock so a cold O(n log n) build of one column never
  // stalls memoized reads of the others. Two concurrent first readers may
  // rarely duplicate the compute; only one result is installed and counted.
  ColumnStats fresh = ComputeColumnStats(columns_[col]);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  std::optional<ColumnStats>& slot = stats_[col];
  if (!slot.has_value()) {
    slot = std::move(fresh);
    ++stats_builds_;
    stats_present_ = true;
  }
  return *slot;
}

namespace {

// Level sizes of a trie over `cols` of the first n rows, by the same
// permutation sort and first-differing-level scan as Trie::FromColumns:
// every row that is not a duplicate of its predecessor opens one new node
// on each level from the first column where they differ.
std::vector<std::size_t> ComputePrefixDistinct(
    const std::vector<std::vector<Value>>& columns, std::size_t n,
    const std::vector<int>& cols) {
  const int depth = static_cast<int>(cols.size());
  std::vector<std::size_t> counts(cols.size(), 0);
  CLFTJ_CHECK(n < 0xFFFFFFFFull);
  std::vector<const Value*> c(cols.size());
  for (int l = 0; l < depth; ++l) c[l] = columns[cols[l]].data();
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::sort(perm.begin(), perm.end(),
            [&c, depth](std::uint32_t a, std::uint32_t b) {
              for (int l = 0; l < depth; ++l) {
                if (c[l][a] != c[l][b]) return c[l][a] < c[l][b];
              }
              return false;
            });
  for (std::size_t i = 0; i < n; ++i) {
    int first_diff = 0;
    if (i > 0) {
      while (first_diff < depth &&
             c[first_diff][perm[i]] == c[first_diff][perm[i - 1]]) {
        ++first_diff;
      }
    }
    for (int l = first_diff; l < depth; ++l) ++counts[l];
  }
  return counts;
}

}  // namespace

const std::vector<std::size_t>& Relation::PrefixDistinct(
    const std::vector<int>& cols) const {
  CLFTJ_CHECK(static_cast<int>(cols.size()) == arity_);
  std::vector<bool> seen(cols.size(), false);
  for (const int col : cols) {
    CLFTJ_CHECK(col >= 0 && col < arity_ && !seen[col]);
    seen[col] = true;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    const auto it = prefix_distinct_.find(cols);
    if (it != prefix_distinct_.end()) return it->second;
  }
  // Compute outside the lock, install at most once (as in Stats).
  std::vector<std::size_t> fresh =
      ComputePrefixDistinct(columns_, num_rows_, cols);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_present_ = true;
  return prefix_distinct_.try_emplace(cols, std::move(fresh)).first->second;
}

std::size_t Relation::MemoryBytes() const {
  std::size_t bytes = 0;
  for (const auto& column : columns_) {
    bytes += column.capacity() * sizeof(Value);
  }
  return bytes;
}

namespace {

// Lexicographic compare of row `row` of `cols` against tuple `t`.
int CompareRowTo(const std::vector<std::vector<Value>>& cols, std::size_t row,
                 const Tuple& t) {
  for (std::size_t c = 0; c < cols.size(); ++c) {
    const Value v = cols[c][row];
    if (v != t[c]) return v < t[c] ? -1 : 1;
  }
  return 0;
}

// First of the `n` sorted, deduplicated rows of `cols` that is not less than
// `t`; *found tells whether that row equals `t`.
std::size_t LowerBoundRow(const std::vector<std::vector<Value>>& cols,
                          std::size_t n, const Tuple& t, bool* found) {
  std::size_t lo = 0;
  std::size_t hi = n;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (CompareRowTo(cols, mid, t) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *found = lo < n && CompareRowTo(cols, lo, t) == 0;
  return lo;
}

std::vector<Tuple> SortedSet(std::vector<Tuple> tuples) {
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  return tuples;
}

}  // namespace

bool Relation::IsNormalized() const {
  for (std::size_t i = 1; i < num_rows_; ++i) {
    for (int c = 0; c < arity_; ++c) {
      const Value prev = columns_[c][i - 1];
      const Value cur = columns_[c][i];
      if (prev != cur) {
        if (prev > cur) return false;
        break;
      }
      if (c + 1 == arity_) return false;  // duplicate row
    }
  }
  return true;
}

DeltaResult Relation::ApplyDelta(const std::vector<Tuple>& adds,
                                 const std::vector<Tuple>& deletes,
                                 std::vector<Tuple>* changed) {
  for (const Tuple& t : adds) {
    CLFTJ_CHECK(static_cast<int>(t.size()) == arity_);
  }
  for (const Tuple& t : deletes) {
    CLFTJ_CHECK(static_cast<int>(t.size()) == arity_);
  }
  if (!IsNormalized()) Normalize();
  const std::vector<Tuple> add_set = SortedSet(adds);
  const std::vector<Tuple> del_set = SortedSet(deletes);

  // Classify the batch against the current rows by binary search: a delete
  // of a visible tuple applies, and removes its row unless the batch adds
  // the tuple back; an add applies when its tuple is invisible or deleted
  // by this batch, and inserts a row only in the first case. Both lists
  // come out ascending, because the sets are.
  DeltaResult res;
  std::vector<std::size_t> removed_at;  // row indices
  std::vector<std::pair<std::size_t, const Tuple*>> inserted_at;  // before row
  for (const Tuple& t : del_set) {
    bool found = false;
    const std::size_t row = LowerBoundRow(columns_, num_rows_, t, &found);
    if (!found) continue;
    ++res.applied_deletes;
    if (!std::binary_search(add_set.begin(), add_set.end(), t)) {
      removed_at.push_back(row);
    }
  }
  for (const Tuple& t : add_set) {
    bool found = false;
    const std::size_t row = LowerBoundRow(columns_, num_rows_, t, &found);
    if (!found) {
      ++res.applied_adds;
      inserted_at.emplace_back(row, &t);
    } else if (std::binary_search(del_set.begin(), del_set.end(), t)) {
      ++res.applied_adds;  // deleted and re-added: the row stays
    }
  }
  if (removed_at.empty() && inserted_at.empty()) return res;

  if (changed != nullptr) {
    for (const auto& [row, t] : inserted_at) changed->push_back(*t);
    for (const std::size_t row : removed_at) changed->push_back(TupleAt(row));
  }
  // One pass per column: copy the runs between change points, skipping
  // removed rows and splicing each new tuple in before its lower-bound row.
  const std::size_t rows = num_rows_ - removed_at.size() + inserted_at.size();
  for (int c = 0; c < arity_; ++c) {
    const std::vector<Value>& src = columns_[c];
    std::vector<Value> out;
    out.reserve(rows);
    std::size_t r = 0;
    std::size_t del = 0;
    std::size_t ins = 0;
    while (true) {
      std::size_t stop = num_rows_;
      if (del < removed_at.size()) stop = removed_at[del];
      if (ins < inserted_at.size()) {
        stop = std::min(stop, inserted_at[ins].first);
      }
      out.insert(out.end(), src.begin() + static_cast<std::ptrdiff_t>(r),
                 src.begin() + static_cast<std::ptrdiff_t>(stop));
      r = stop;
      if (ins < inserted_at.size() && inserted_at[ins].first == r) {
        out.push_back((*inserted_at[ins].second)[c]);
        ++ins;
      } else if (del < removed_at.size() && removed_at[del] == r) {
        ++del;
        ++r;
      } else {
        break;  // r == num_rows_ and nothing left to splice
      }
    }
    columns_[c] = std::move(out);
  }
  num_rows_ = rows;
  ++compactions_;
  InvalidateStats();
  return res;
}

std::uint64_t Relation::stats_builds() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_builds_;
}

void Relation::InvalidateStats() {
  if (!stats_present_) return;  // nothing memoized: skip the lock
  std::lock_guard<std::mutex> lock(stats_mutex_);
  for (auto& slot : stats_) slot.reset();
  prefix_distinct_.clear();
  stats_present_ = false;
}

}  // namespace clftj
