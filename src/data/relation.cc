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
      delta_engaged_(other.delta_engaged_),
      main_columns_(other.main_columns_),
      main_rows_(other.main_rows_),
      add_columns_(other.add_columns_),
      add_rows_(other.add_rows_),
      del_columns_(other.del_columns_),
      del_rows_(other.del_rows_),
      delta_version_(other.delta_version_),
      compactions_(other.compactions_),
      compaction_threshold_(other.compaction_threshold_) {
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
      delta_engaged_(other.delta_engaged_),
      main_columns_(std::move(other.main_columns_)),
      main_rows_(other.main_rows_),
      add_columns_(std::move(other.add_columns_)),
      add_rows_(other.add_rows_),
      del_columns_(std::move(other.del_columns_)),
      del_rows_(other.del_rows_),
      delta_version_(other.delta_version_),
      compactions_(other.compactions_),
      compaction_threshold_(other.compaction_threshold_),
      stats_(std::move(other.stats_)),
      prefix_distinct_(std::move(other.prefix_distinct_)),
      stats_builds_(other.stats_builds_),
      stats_present_(other.stats_present_) {
  other.delta_engaged_ = false;
  other.main_rows_ = other.add_rows_ = other.del_rows_ = 0;
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
  delta_engaged_ = other.delta_engaged_;
  main_columns_ = other.main_columns_;
  main_rows_ = other.main_rows_;
  add_columns_ = other.add_columns_;
  add_rows_ = other.add_rows_;
  del_columns_ = other.del_columns_;
  del_rows_ = other.del_rows_;
  delta_version_ = other.delta_version_;
  compactions_ = other.compactions_;
  compaction_threshold_ = other.compaction_threshold_;
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
  delta_engaged_ = other.delta_engaged_;
  main_columns_ = std::move(other.main_columns_);
  main_rows_ = other.main_rows_;
  add_columns_ = std::move(other.add_columns_);
  add_rows_ = other.add_rows_;
  del_columns_ = std::move(other.del_columns_);
  del_rows_ = other.del_rows_;
  delta_version_ = other.delta_version_;
  compactions_ = other.compactions_;
  compaction_threshold_ = other.compaction_threshold_;
  stats_ = std::move(other.stats_);
  prefix_distinct_ = std::move(other.prefix_distinct_);
  stats_builds_ = other.stats_builds_;
  stats_present_ = other.stats_present_;
  other.delta_engaged_ = false;
  other.main_rows_ = other.add_rows_ = other.del_rows_ = 0;
  ResetMovedFrom(&other.num_rows_, &other.arity_, &other.stats_builds_,
                 &other.stats_present_);
  return *this;
}

void Relation::Add(const Tuple& tuple) {
  CLFTJ_CHECK(static_cast<int>(tuple.size()) == arity_);
  AbandonDelta();
  for (int c = 0; c < arity_; ++c) columns_[c].push_back(tuple[c]);
  ++num_rows_;
  InvalidateStats();
}

void Relation::AddPair(Value a, Value b) {
  CLFTJ_CHECK(arity_ == 2);
  AbandonDelta();
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
  AbandonDelta();
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
  for (const auto* tier : {&main_columns_, &add_columns_, &del_columns_}) {
    for (const auto& column : *tier) {
      bytes += column.capacity() * sizeof(Value);
    }
  }
  return bytes;
}

namespace {

// Lexicographic compare of row `a` of `ca` against row `b` of `cb`.
int CompareRows(const std::vector<std::vector<Value>>& ca, std::size_t a,
                const std::vector<std::vector<Value>>& cb, std::size_t b) {
  for (std::size_t c = 0; c < ca.size(); ++c) {
    const Value va = ca[c][a];
    const Value vb = cb[c][b];
    if (va != vb) return va < vb ? -1 : 1;
  }
  return 0;
}

// Binary search for tuple `t` among the first `n` (sorted, deduplicated)
// rows of `cols`.
bool ColumnsContainRow(const std::vector<std::vector<Value>>& cols,
                       std::size_t n, const Tuple& t) {
  std::size_t lo = 0;
  std::size_t hi = n;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    int cmp = 0;
    for (std::size_t c = 0; c < cols.size(); ++c) {
      const Value v = cols[c][mid];
      if (v != t[c]) {
        cmp = v < t[c] ? -1 : 1;
        break;
      }
    }
    if (cmp == 0) return true;
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

// Columnar tier -> sorted row-tuple working set and back (delta tiers are
// small, so the round trip is cheap and keeps the edit logic readable).
std::vector<Tuple> RowsOf(const std::vector<std::vector<Value>>& cols,
                          std::size_t n, int arity) {
  std::vector<Tuple> rows(n, Tuple(arity));
  for (std::size_t i = 0; i < n; ++i) {
    for (int c = 0; c < arity; ++c) rows[i][c] = cols[c][i];
  }
  return rows;
}

void StoreRows(const std::vector<Tuple>& rows, int arity,
               std::vector<std::vector<Value>>* cols, std::size_t* n) {
  cols->assign(arity, {});
  for (int c = 0; c < arity; ++c) {
    (*cols)[c].reserve(rows.size());
    for (const Tuple& t : rows) (*cols)[c].push_back(t[c]);
  }
  *n = rows.size();
}

// Sorted-set insert/erase over the working sets; both report whether the
// set changed.
bool SortedInsert(std::vector<Tuple>* set, const Tuple& t) {
  const auto it = std::lower_bound(set->begin(), set->end(), t);
  if (it != set->end() && *it == t) return false;
  set->insert(it, t);
  return true;
}

bool SortedErase(std::vector<Tuple>* set, const Tuple& t) {
  const auto it = std::lower_bound(set->begin(), set->end(), t);
  if (it == set->end() || *it != t) return false;
  set->erase(it);
  return true;
}

}  // namespace

bool Relation::IsNormalized() const {
  for (std::size_t i = 1; i < num_rows_; ++i) {
    if (CompareRows(columns_, i - 1, columns_, i) >= 0) return false;
  }
  return true;
}

void Relation::EngageDelta() {
  if (delta_engaged_) return;
  if (!IsNormalized()) Normalize();
  main_columns_ = columns_;
  main_rows_ = num_rows_;
  add_columns_.assign(static_cast<std::size_t>(arity_), {});
  del_columns_.assign(static_cast<std::size_t>(arity_), {});
  add_rows_ = del_rows_ = 0;
  delta_engaged_ = true;
}

void Relation::AbandonDelta() {
  if (!delta_engaged_) return;
  main_columns_.clear();
  add_columns_.clear();
  del_columns_.clear();
  main_rows_ = add_rows_ = del_rows_ = 0;
  delta_engaged_ = false;
  ++compactions_;  // the main tier is gone: overlay holders must rebuild
}

void Relation::RebuildVisible() {
  const int k = arity_;
  std::vector<std::vector<Value>> out(static_cast<std::size_t>(k));
  const std::size_t visible = main_rows_ - del_rows_ + add_rows_;
  for (auto& column : out) column.reserve(visible);
  std::size_t m = 0;
  std::size_t d = 0;
  std::size_t a = 0;
  while (m < main_rows_ || a < add_rows_) {
    bool take_main;
    if (m >= main_rows_) {
      take_main = false;
    } else if (a >= add_rows_) {
      take_main = true;
    } else {
      // Never equal: the added tier is disjoint from main by invariant.
      take_main = CompareRows(main_columns_, m, add_columns_, a) < 0;
    }
    if (take_main) {
      if (d < del_rows_ &&
          CompareRows(main_columns_, m, del_columns_, d) == 0) {
        ++m;  // tombstoned
        ++d;
        continue;
      }
      for (int c = 0; c < k; ++c) out[c].push_back(main_columns_[c][m]);
      ++m;
    } else {
      for (int c = 0; c < k; ++c) out[c].push_back(add_columns_[c][a]);
      ++a;
    }
  }
  num_rows_ = out[0].size();
  columns_ = std::move(out);
}

DeltaResult Relation::ApplyDelta(const std::vector<Tuple>& adds,
                                 const std::vector<Tuple>& deletes) {
  for (const Tuple& t : adds) {
    CLFTJ_CHECK(static_cast<int>(t.size()) == arity_);
  }
  for (const Tuple& t : deletes) {
    CLFTJ_CHECK(static_cast<int>(t.size()) == arity_);
  }
  EngageDelta();
  std::vector<Tuple> add_set = RowsOf(add_columns_, add_rows_, arity_);
  std::vector<Tuple> del_set = RowsOf(del_columns_, del_rows_, arity_);
  DeltaResult res;
  for (const Tuple& t : deletes) {
    if (SortedErase(&add_set, t)) {
      ++res.applied_deletes;
      continue;
    }
    if (ColumnsContainRow(main_columns_, main_rows_, t) &&
        SortedInsert(&del_set, t)) {
      ++res.applied_deletes;
    }
  }
  for (const Tuple& t : adds) {
    if (SortedErase(&del_set, t)) {  // un-tombstone: visible again
      ++res.applied_adds;
      continue;
    }
    if (ColumnsContainRow(main_columns_, main_rows_, t)) continue;
    if (SortedInsert(&add_set, t)) ++res.applied_adds;
  }
  StoreRows(add_set, arity_, &add_columns_, &add_rows_);
  StoreRows(del_set, arity_, &del_columns_, &del_rows_);
  RebuildVisible();
  ++delta_version_;
  InvalidateStats();
  if (add_rows_ + del_rows_ > compaction_threshold()) {
    Compact();
    res.compacted = true;
  }
  return res;
}

std::size_t Relation::compaction_threshold() const {
  if (compaction_threshold_ != 0) return compaction_threshold_;
  const std::size_t base = delta_engaged_ ? main_rows_ : num_rows_;
  return std::max<std::size_t>(64, base / 8);
}

void Relation::Compact() {
  if (!delta_engaged_) return;
  // columns_ already holds the merged visible image as a sorted set; it
  // simply becomes the next main tier.
  main_columns_.clear();
  add_columns_.clear();
  del_columns_.clear();
  main_rows_ = add_rows_ = del_rows_ = 0;
  delta_engaged_ = false;
  ++compactions_;
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
