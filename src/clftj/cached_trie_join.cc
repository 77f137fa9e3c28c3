#include "clftj/cached_trie_join.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <iterator>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.h"

namespace clftj {

// Key extraction and admission both live on CachedPlan: keys are packed
// into a fixed-size, allocation-free PackedKey straight from the
// assignment, and the support-threshold probe is a precomputed per-value
// bitmap test (CachedPlan::AdmitsKey) instead of a hash lookup per
// dimension.
//
// Both run states honor a FirstVarRange: at depth 0 the leapfrog join is
// seeked to range.lo before iteration and the loop stops at the first key
// >= range.hi. Because shards are contiguous value intervals and the trie
// enumerates keys in ascending order, concatenating the per-shard outputs
// in shard order reproduces the unrestricted run exactly.

template <typename S>
typename S::Value CountRun<S>::Run() {
  if (weights_ != nullptr) {
    RCachedJoin<true>(0, S::One());
  } else {
    RCachedJoin<false>(0, S::One());
  }
  return total_;
}

template <typename S>
typename S::Value CountRun<S>::WeightsAt(int d) const {
  Weight w = S::One();
  for (const AtomId a : weights_->ending_at[d]) {
    w = S::Times(w, weights_->fn(a, assignment_));
  }
  return w;
}

template <typename S>
void CountRun<S>::PlanProbeGroups() {
  for (int d = 0; d + 1 < static_cast<int>(plan_.order.size()); ++d) {
    const NodeId c = plan_.owner_of_depth[d + 1];
    if (c == plan_.owner_of_depth[d] || !plan_.cacheable[c]) continue;
    // The adhesion's other variables sit above depth d and stay bound
    // through d's loop, so order[d] in it makes the child's keys distinct.
    const std::vector<VarId>& adhesion = plan_.adhesion_vars[c];
    if (std::find(adhesion.begin(), adhesion.end(), plan_.order[d]) ==
        adhesion.end()) {
      continue;
    }
    groups_[d] = std::make_unique<ProbeGroup>();
    groups_[d]->child = c;
  }
}

template <typename S>
template <bool kWeighted>
void CountRun<S>::RCachedJoin(int d, Weight f, const PackedKey* key,
                              const Weight* hit) {
  if (d == static_cast<int>(plan_.order.size())) {
    total_ = S::Plus(total_, f);
    return;
  }
  const NodeId v = plan_.owner_of_depth[d];
  const bool entering = d > 0 && plan_.owner_of_depth[d - 1] != v;
  PackedKey own_key;
  bool try_cache = false;
  if (entering) {
    intrmd_[v] = S::Zero();
    if (plan_.cacheable[v]) {
      try_cache = true;
      Weight found = S::Zero();
      if (key == nullptr) {
        own_key = plan_.AdhesionKey(v, assignment_);
        key = &own_key;
        if (cache_.Lookup(v, own_key, &found)) hit = &found;
      }
      if (hit != nullptr) {
        intrmd_[v] = *hit;
        // Zero annihilates ⊗: skipping the dead branch is sound.
        if (!(*hit == S::Zero())) {
          // Skip the whole subtree of v; its contribution is the factor.
          RCachedJoin<kWeighted>(plan_.subtree_last_depth[v] + 1,
                                 S::Times(f, *hit));
        }
        return;
      }
    }
  }

  LeapfrogJoin* join = ctx_->EnterDepth(d);
  if (d == 0 && !join->AtEnd() && join->Key() < range_.lo) {
    join->Seek(range_.lo);
  }
  if (groups_[d] != nullptr) {
    GroupedLoop<kWeighted>(d, f, join, *groups_[d]);
  } else {
    while (TakesNext(d, *join)) {
      Visit<kWeighted>(d, f, join->Key(), nullptr, nullptr);
      if (aborted_) break;
      join->Next();
    }
  }
  assignment_[plan_.order[d]] = kNullValue;
  ctx_->LeaveDepth(d);

  if (try_cache && !aborted_ && plan_.AdmitsKey(v, *key)) {
    cache_.Insert(v, *key, intrmd_[v]);
  }
}

template <typename S>
template <bool kWeighted>
void CountRun<S>::GroupedLoop(int d, Weight f, LeapfrogJoin* join,
                              ProbeGroup& g) {
  const std::size_t width = join->width();
  g.positions.resize((kMaxLookupGroup + 1) * width);
  const VarId x = plan_.order[d];
  int n = kMaxLookupGroup;
  while (n == kMaxLookupGroup) {
    // Run the join ahead, saving its cursor at each value it stops at;
    // the Next()s are the ones the one-at-a-time loop makes.
    n = 0;
    while (n < kMaxLookupGroup && TakesNext(d, *join)) {
      g.values[n] = join->Key();
      assignment_[x] = g.values[n];
      g.keys[n] = plan_.AdhesionKey(g.child, assignment_);
      g.marks[n] = join->Save(&g.positions[n * width]);
      join->Next();
      ++n;
    }
    if (aborted_) return;
    g.marks[n] = join->Save(&g.positions[n * width]);
    const std::uint64_t hits = cache_.LookupMany(g.child, g.keys, n, g.hits);
    for (int i = 0; i < n; ++i) {
      // The descent opens iterators from depth d's positions, on a hit too
      // (a sibling of the child may follow): put the cursor back first.
      join->Restore(g.marks[i], &g.positions[i * width]);
      Visit<kWeighted>(d, f, g.values[i], &g.keys[i],
                       (hits & LookupBit(i)) != 0 ? &g.hits[i] : nullptr);
      if (aborted_) return;
    }
    join->Restore(g.marks[n], &g.positions[n * width]);
  }
}

template <typename S>
inline bool CountRun<S>::TakesNext(int d, const LeapfrogJoin& join) {
  if (join.AtEnd()) return false;
  if (d == 0 && range_.has_hi && join.Key() >= range_.hi) return false;
  if (deadline_.Expired()) {
    aborted_ = true;
    return false;
  }
  return true;
}

template <typename S>
template <bool kWeighted>
inline void CountRun<S>::Visit(int d, Weight f, Value x,
                               const PackedKey* key, const Weight* hit) {
  assignment_[plan_.order[d]] = x;
  if constexpr (kWeighted) {
    depth_weight_[d] = WeightsAt(d);
    f = S::Times(f, depth_weight_[d]);
  }
  RCachedJoin<kWeighted>(d + 1, f, key, hit);
  const NodeId v = plan_.owner_of_depth[d];
  if (aborted_ || d != plan_.last_depth[v]) return;
  // intrmd(v) += (weights of the atoms completing at v's own depths) ⊗ the
  // children's intermediates.
  Weight local = S::One();
  if constexpr (kWeighted) {
    for (int dd = plan_.first_depth[v]; dd <= plan_.last_depth[v]; ++dd) {
      local = S::Times(local, depth_weight_[dd]);
    }
  }
  for (const NodeId c : plan_.children[v]) {
    local = S::Times(local, intrmd_[c]);
  }
  intrmd_[v] = S::Plus(intrmd_[v], local);
}

void EvalRun::Emit() {
  if (!expand_at_leaf_) return;  // factorized mode: the sets are the result
  if (skips_.empty()) {
    ++emitted_;
    stats_->memory_accesses += assignment_.size();
    cb_(assignment_);
    return;
  }
  std::vector<const FactorizedSet*> sets;
  sets.reserve(skips_.size());
  for (const auto& [node, set] : skips_) sets.push_back(set.get());
  FactorizedExpand(sets, plan_, &assignment_, [this] {
    ++emitted_;
    stats_->memory_accesses += assignment_.size();
    cb_(assignment_);
  });
}

void EvalRun::RCachedJoin(int d) {
  if (d == static_cast<int>(plan_.order.size())) {
    Emit();
    return;
  }
  const NodeId v = plan_.owner_of_depth[d];
  const bool entering = d > 0 && plan_.owner_of_depth[d - 1] != v;
  PackedKey& key = node_key_[v];
  bool try_cache = false;
  if (entering) {
    if (plan_.maintain[v]) {
      building_[v].clear();
      completed_[v] = nullptr;
    }
    if (plan_.cacheable[v]) {
      try_cache = true;
      key = plan_.AdhesionKey(v, assignment_);
      FactorizedSetPtr hit;
      if (cache_.Lookup(v, key, &hit)) {
        completed_[v] = hit;
        if (!hit->entries.empty()) {
          skips_.emplace_back(v, std::move(hit));
          RCachedJoin(plan_.subtree_last_depth[v] + 1);
          skips_.pop_back();
        }
        return;
      }
    }
  }

  LeapfrogJoin* join = ctx_->EnterDepth(d);
  const bool is_last_owned = d == plan_.last_depth[v];
  if (d == 0 && !join->AtEnd() && join->Key() < range_.lo) {
    join->Seek(range_.lo);
  }
  while (!join->AtEnd()) {
    if (d == 0 && range_.has_hi && join->Key() >= range_.hi) break;
    if (deadline_.Expired()) {
      timed_out_ = true;
      break;
    }
    assignment_[plan_.order[d]] = join->Key();
    RCachedJoin(d + 1);
    if (aborted()) break;
    if (is_last_owned && plan_.maintain[v]) {
      AppendEntry(v);
      if (aborted()) break;
    }
    join->Next();
  }
  assignment_[plan_.order[d]] = kNullValue;
  ctx_->LeaveDepth(d);
  if (aborted()) return;

  if (entering && plan_.maintain[v]) {
    // Leaving v: freeze its factorized set for the parent's entries.
    // try_cache can only be set here: cacheable[v] implies maintain[v]
    // (checked in CachedPlan::Build), so the insert is always reachable.
    auto set = std::make_shared<FactorizedSet>();
    set->node = v;
    set->entries = std::move(building_[v]);
    building_[v].clear();
    completed_[v] = std::move(set);
    if (try_cache && plan_.AdmitsKey(v, key)) {
      cache_.Insert(v, key, completed_[v]);
    }
  }
}

void EvalRun::AppendEntry(NodeId v) {
  FactorizedEntry entry;
  const int first = plan_.first_depth[v];
  const int last = plan_.last_depth[v];
  entry.local.reserve(last - first + 1);
  for (int d = first; d <= last; ++d) {
    entry.local.push_back(assignment_[plan_.order[d]]);
  }
  entry.children.reserve(plan_.children[v].size());
  bool empty_product = false;
  for (const NodeId c : plan_.children[v]) {
    const FactorizedSetPtr& child = completed_[c];
    if (child == nullptr || child->entries.empty()) {
      empty_product = true;
      break;
    }
    entry.children.push_back(child);
  }
  if (empty_product) return;  // contributes zero tuples — skip storing
  ++stats_->intermediate_tuples;
  stats_->memory_accesses += entry.local.size();
  if (fault::Fire(fault::Site::kMaterialize)) {
    // Injected allocation failure while materializing: surfaces exactly as
    // the materialization budget does — a typed out-of-memory abort.
    out_of_memory_ = true;
    if (abort_ != nullptr) abort_->Trip(RunStatus::kOutOfMemory);
    return;
  }
  if (max_intermediates_ > 0) {
    // With a shared counter the budget spans all concurrent runs — K
    // shards together get the one budget a single-thread run gets.
    const std::uint64_t used =
        shared_intermediates_ != nullptr
            ? shared_intermediates_->fetch_add(1, std::memory_order_relaxed) +
                  1
            : stats_->intermediate_tuples;
    if (used > max_intermediates_) {
      out_of_memory_ = true;
      // Stop sibling workers too: the shared budget is blown for the whole
      // run, not just this shard.
      if (abort_ != nullptr) abort_->Trip(RunStatus::kOutOfMemory);
      return;
    }
  }
  building_[v].push_back(std::move(entry));
}

std::shared_ptr<FactorizedSet> EvalRun::TakeRootSet() {
  auto set = std::make_shared<FactorizedSet>();
  set->node = plan_.root;
  set->entries = std::move(building_[plan_.root]);
  building_[plan_.root].clear();
  return set;
}

namespace {

// The shard layout of one parallel run: the per-shard first-variable
// ranges and the per-shard cache budget.
struct ShardSetup {
  std::vector<FirstVarRange> shards;
  CacheOptions cache;
};

// Splits the first variable's domain into at most `threads` contiguous
// shards and derives the per-shard cache budget: the global entry and byte
// budgets are split evenly over the K shards' private caches (floored, min
// 1 so a tiny budget over many shards still caches something).
//
// The boundaries come from an O(K) index split of one depth-0 atom's
// top-level sibling array — the smallest one, since the intersection is a
// subset of each participant. No leapfrog pass, no key buffer, no deadline
// concern: materializing the depth-0 intersection would cost O(n) serial
// accesses before any shard started. The split is near-equal in that
// atom's value array, not in the intersection, so shards can be less
// balanced than the exact split — the price of an O(K) prelude. A single
// thread needs no boundaries at all and runs the one unbounded shard:
// sequential CLFTJ.
ShardSetup PrepareShards(const TrieJoinSubstrate& substrate, int threads,
                         const CacheOptions& global_cache) {
  ShardSetup setup;
  setup.cache = global_cache;
  if (threads <= 1) {
    setup.shards.emplace_back();  // whole domain
    return setup;
  }

  const std::vector<int>& participants = substrate.atoms_at_depth()[0];
  const std::vector<Value>* split = nullptr;
  for (const int a : participants) {
    const std::vector<Value>& top = substrate.views()[a].trie->values(0);
    if (split == nullptr || top.size() < split->size()) split = &top;
  }
  CLFTJ_CHECK(split != nullptr);
  // An empty top level offers no boundaries (the result is empty anyway):
  // run the one unbounded shard.
  if (split->empty()) {
    setup.shards.emplace_back();
    return setup;
  }
  const std::size_t n = split->size();
  const std::size_t k =
      std::min<std::size_t>(static_cast<std::size_t>(threads), n);
  setup.shards.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    const std::size_t begin = s * n / k;
    const std::size_t end = (s + 1) * n / k;
    if (begin == end) continue;  // k <= n makes this unreachable; belt+braces
    FirstVarRange range;
    // Sibling arrays hold distinct sorted values, so consecutive [begin,
    // end) index windows yield disjoint half-open value intervals that
    // jointly cover the atom's whole top level — and therefore every
    // depth-0 intersection key. The first shard is left unbounded below
    // and the last unbounded above for the same reason.
    if (s > 0) range.lo = (*split)[begin];
    if (end < n) {
      range.has_hi = true;
      range.hi = (*split)[end];
    }
    setup.shards.push_back(range);
  }
  if (k > 1 && setup.cache.capacity > 0) {
    setup.cache.capacity = std::max<std::uint64_t>(1, setup.cache.capacity / k);
  }
  if (k > 1 && setup.cache.capacity_bytes > 0) {
    setup.cache.capacity_bytes =
        std::max<std::uint64_t>(1, setup.cache.capacity_bytes / k);
  }
  return setup;
}

// Runs work(0..n-1): shard 0 on the calling thread, the rest on their own
// threads. n == 1 stays entirely thread-free: the one-shard run is the
// sequential execution.
void RunShards(std::size_t n, const std::function<void(std::size_t)>& work) {
  if (n <= 1) {
    if (n == 1) work(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(n - 1);
  for (std::size_t s = 1; s < n; ++s) pool.emplace_back(work, s);
  work(0);
  for (std::thread& t : pool) t.join();
}

// What one shard leaves behind; each entry point fills the fields it uses.
struct ShardOutcome {
  ExecStats stats;
  /// Evaluate: tuples passed to its callback. (Count and Aggregate keep
  /// their shard values apart; see RunCounts.)
  std::uint64_t count = 0;
  /// Evaluate with K > 1 shards: the buffered tuple stream, one flat
  /// array of rows, each plan.order.size() values wide.
  std::vector<Value> rows;
  /// EvaluateFactorized: the shard's root set (null after a failed run).
  std::shared_ptr<FactorizedSet> root;
  bool timed_out = false;
  bool out_of_memory = false;
};

// Merges the shards' stats into *into and returns the run's typed status.
// Counters sum (ExecStats::Merge), but cache peaks are re-accumulated as
// sums because the K private caches coexist — the run's true peak
// footprint is the sum of shard peaks, not their max. Over an injected
// persistent cache each shard has counted its own hits, misses and inserts
// (RunCache), so they sum here like any counter; the table's probe memory
// accesses, evictions and peaks stay in its per-stripe stats, out of the
// run's: that table is live across runs.
RunStatus MergeShards(const std::vector<ShardOutcome>& out,
                      const AbortFlag* abort, ExecStats* into) {
  std::uint64_t entries_peak = into->cache_entries_peak;
  std::uint64_t bytes_peak = into->cache_bytes_peak;
  bool any_timed_out = false;
  bool any_out_of_memory = false;
  for (const ShardOutcome& o : out) {
    into->Merge(o.stats);
    entries_peak += o.stats.cache_entries_peak;
    bytes_peak += o.stats.cache_bytes_peak;
    any_timed_out |= o.timed_out;
    any_out_of_memory |= o.out_of_memory;
  }
  into->cache_entries_peak = entries_peak;
  into->cache_bytes_peak = bytes_peak;
  return MergeRunStatus(any_timed_out, any_out_of_memory, abort);
}

// The wall-clock budget left after the time this run has already spent
// (plan resolution, substrate build), preserving 0 = unlimited. Handing
// shards the *remaining* budget instead of the original one keeps the
// whole run inside a single timeout window — setup and shards do not each
// get a fresh timer. A fully consumed budget becomes a tiny positive value
// so downstream DeadlineCheckers trip at their first stride instead of
// reading 0 as "unlimited".
RunLimits RemainingLimits(const RunLimits& limits, const Timer& timer) {
  RunLimits remaining = limits;
  if (limits.timeout_seconds > 0.0) {
    remaining.timeout_seconds =
        std::max(1e-9, limits.timeout_seconds - timer.Seconds());
  }
  return remaining;
}

// The run's shared stop flag: the caller-provided cancel handle when one
// is set (so an external Trip(kCancelled) stops every shard and the run
// reports the typed reason), else a run-local flag. Typed-status folding —
// OOM dominates, then an external cancel, then timeout — lives in
// MergeRunStatus (engine.cc): secondary "timeouts" of shards that only
// observed a sibling's trip are artifacts of the stop signal, not real
// deadlines.
AbortFlag* SharedAbort(const RunLimits& limits, AbortFlag* local) {
  return limits.cancel != nullptr ? limits.cancel : local;
}

}  // namespace

int CachedTrieJoin::EffectiveThreads() const {
  if (options_.threads > 0) return options_.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

const CachedPlan* CachedTrieJoin::PlanFor(
    const Query& q, const Database& db,
    std::optional<CachedPlan>* local) const {
  if (options_.prepared_plan != nullptr) return options_.prepared_plan.get();
  return &local->emplace(CachedPlan::Resolve(q, db, options_.plan,
                                             PlannerOptions{}, options_.cache));
}

const TrieJoinSubstrate* CachedTrieJoin::SubstrateFor(
    const Query& q, const Database& db, const CachedPlan& plan,
    std::optional<TrieJoinSubstrate>* local) const {
  if (options_.prepared_substrate != nullptr) {
    // The substrate was built for one specific variable order; a mismatch
    // means the caller paired a plan and substrate from different shapes.
    CLFTJ_CHECK(options_.prepared_substrate->order() == plan.order);
    return options_.prepared_substrate.get();
  }
  return &local->emplace(q, db, plan.order);
}

template <typename S>
CachedTrieJoin::AggregateResult<S> CachedTrieJoin::RunCounts(
    const Query& q, const Database& db, const AtomWeightFn<S>& weight,
    StripedCacheManager<typename S::Value>* shared_cache,
    const RunLimits& limits) {
  AggregateResult<S> result;
  Timer timer;
  std::optional<CachedPlan> local_plan;
  const CachedPlan& plan = *PlanFor(q, db, &local_plan);
  std::optional<TrieJoinSubstrate> local_substrate;
  const TrieJoinSubstrate& substrate =
      *SubstrateFor(q, db, plan, &local_substrate);
  if (!substrate.HasEmptyAtom()) {
    std::optional<AtomWeights<S>> weights;
    if (weight != nullptr) {
      weights.emplace();
      weights->fn = weight;
      weights->ending_at.resize(plan.order.size());
      for (AtomId a = 0; a < q.num_atoms(); ++a) {
        int last = 0;
        for (const VarId x : q.atom(a).Vars()) {
          last = std::max(last, plan.var_rank[x]);
        }
        weights->ending_at[last].push_back(a);
      }
    }
    const ShardSetup setup =
        PrepareShards(substrate, EffectiveThreads(), options_.cache);
    const std::vector<FirstVarRange>& shards = setup.shards;
    const RunLimits shard_limits = RemainingLimits(limits, timer);
    AbortFlag local_abort;
    AbortFlag* abort = SharedAbort(limits, &local_abort);
    std::vector<ShardOutcome> out(shards.size());
    // A deque, not a vector: vector<bool> would pack BooleanSemiring's
    // shard values into shared words that concurrent shards race on.
    std::deque<typename S::Value> values(shards.size(), S::Zero());
    RunShards(shards.size(), [&](std::size_t s) {
      ShardOutcome& o = out[s];
      TrieJoinContext ctx(substrate, &o.stats);
      CountRun<S> run(plan, setup.cache, &ctx, &o.stats, shard_limits,
                      shards[s], abort, shared_cache,
                      weights.has_value() ? &*weights : nullptr);
      values[s] = run.Run();
      o.timed_out = run.timed_out();
    });
    for (const typename S::Value& v : values) {
      result.value = S::Plus(result.value, v);
    }
    result.status = MergeShards(out, abort, &result.stats);
  }
  result.seconds = timer.Seconds();
  return result;
}

RunResult CachedTrieJoin::Count(const Query& q, const Database& db,
                                const RunLimits& limits) {
  AggregateResult<CountingSemiring> counted = RunCounts<CountingSemiring>(
      q, db, nullptr, options_.shared_count_cache, limits);
  RunResult result;
  result.count = counted.value;
  result.status = counted.status;
  result.seconds = counted.seconds;
  result.stats = counted.stats;
  result.stats.output_tuples = result.count;
  return result;
}

template <typename S>
CachedTrieJoin::AggregateResult<S> CachedTrieJoin::Aggregate(
    const Query& q, const Database& db, const AtomWeightFn<S>& weight,
    const RunLimits& limits) {
  return RunCounts<S>(q, db, weight, /*shared_cache=*/nullptr, limits);
}

// The five semirings of semiring.h.
#define CLFTJ_INSTANTIATE_SEMIRING(S)                                    \
  template class CountRun<S>;                                            \
  template CachedTrieJoin::AggregateResult<S> CachedTrieJoin::Aggregate<S>( \
      const Query&, const Database&, const AtomWeightFn<S>&,             \
      const RunLimits&);
CLFTJ_INSTANTIATE_SEMIRING(CountingSemiring)
CLFTJ_INSTANTIATE_SEMIRING(RealSemiring)
CLFTJ_INSTANTIATE_SEMIRING(MaxPlusSemiring)
CLFTJ_INSTANTIATE_SEMIRING(MinPlusSemiring)
CLFTJ_INSTANTIATE_SEMIRING(BooleanSemiring)
#undef CLFTJ_INSTANTIATE_SEMIRING

RunResult CachedTrieJoin::Evaluate(const Query& q, const Database& db,
                                   const TupleCallback& cb,
                                   const RunLimits& limits) {
  RunResult result;
  Timer timer;
  std::optional<CachedPlan> local_plan;
  const CachedPlan& plan = *PlanFor(q, db, &local_plan);
  std::optional<TrieJoinSubstrate> local_substrate;
  const TrieJoinSubstrate& substrate =
      *SubstrateFor(q, db, plan, &local_substrate);
  if (!substrate.HasEmptyAtom()) {
    const ShardSetup setup =
        PrepareShards(substrate, EffectiveThreads(), options_.cache);
    const std::vector<FirstVarRange>& shards = setup.shards;
    const RunLimits shard_limits = RemainingLimits(limits, timer);
    AbortFlag local_abort;
    AbortFlag* abort = SharedAbort(limits, &local_abort);
    // One shard streams into `cb` directly. K > 1 shards buffer their
    // tuples for a deterministic drain in shard order below, and buffered
    // tuples draw on the same run-wide materialization budget as the
    // shards' intermediate entries, so parallel evaluation keeps one
    // bounded footprint overall.
    const bool buffered = shards.size() > 1;
    const std::size_t arity = plan.order.size();  // the emitted width
    std::atomic<std::uint64_t> materialized{0};  // run-wide, all shards
    std::vector<ShardOutcome> out(shards.size());
    RunShards(shards.size(), [&](std::size_t s) {
      ShardOutcome& o = out[s];
      TrieJoinContext ctx(substrate, &o.stats);
      const TupleCallback buffer = [&o, &shard_limits, abort,
                                    &materialized](const Tuple& t) {
        if (shard_limits.max_intermediate_tuples > 0 &&
            materialized.fetch_add(1, std::memory_order_relaxed) + 1 >
                shard_limits.max_intermediate_tuples) {
          if (!o.out_of_memory) {
            o.out_of_memory = true;
            abort->Trip(RunStatus::kOutOfMemory);
          }
          return;
        }
        o.rows.insert(o.rows.end(), t.begin(), t.end());
      };
      EvalRun run(plan, setup.cache, &ctx, &o.stats, buffered ? buffer : cb,
                  shard_limits, /*expand_at_leaf=*/true, shards[s], abort,
                  &materialized, options_.shared_eval_cache);
      o.count = run.Run();
      o.timed_out = run.timed_out();
      o.out_of_memory |= run.out_of_memory();
    });
    result.status = MergeShards(out, abort, &result.stats);
    if (!buffered) result.count = out.front().count;
    // Drain buffers in shard order — ascending first-variable intervals, so
    // the stream is the same for every run at this thread count (its
    // interleaving may differ from the one-shard stream; see the class
    // comment). On a failed run this is a partial prefix-per-shard result,
    // mirroring the partial emission of a failed one-shard run.
    Tuple row(arity);
    for (ShardOutcome& o : out) {
      for (auto it = o.rows.begin(); it != o.rows.end(); it += arity) {
        std::copy(it, it + arity, row.begin());
        ++result.count;
        cb(row);
      }
      std::vector<Value>().swap(o.rows);
    }
  }
  result.stats.output_tuples = result.count;
  result.seconds = timer.Seconds();
  return result;
}

std::optional<FactorizedQueryResult> CachedTrieJoin::EvaluateFactorized(
    const Query& q, const Database& db, const RunLimits& limits,
    RunResult* run) {
  CLFTJ_CHECK(run != nullptr);
  *run = RunResult();
  Timer timer;
  // A prepared plan is shared and immutable — copy it before the maintain
  // fill mutates it. The injected persistent caches are NOT consulted here:
  // maintain-everything runs build different factorized sets than
  // plan-default runs, so their payloads must not mix; the shards' private
  // caches die with the run.
  auto plan = options_.prepared_plan != nullptr
                  ? std::make_shared<CachedPlan>(*options_.prepared_plan)
                  : std::make_shared<CachedPlan>(CachedPlan::Resolve(
                        q, db, options_.plan, PlannerOptions{},
                        options_.cache));
  // Intermediate sets must be collected everywhere so the root's set is the
  // complete (factorized) result. Done before shards start: the plan is
  // immutable once shared.
  std::fill(plan->maintain.begin(), plan->maintain.end(), true);
  std::optional<TrieJoinSubstrate> local_substrate;
  const TrieJoinSubstrate& substrate =
      *SubstrateFor(q, db, *plan, &local_substrate);

  // An empty atom view makes the result empty: an entry-less root set.
  auto root = std::make_shared<FactorizedSet>();
  root->node = plan->root;
  if (!substrate.HasEmptyAtom()) {
    const ShardSetup setup =
        PrepareShards(substrate, EffectiveThreads(), options_.cache);
    const std::vector<FirstVarRange>& shards = setup.shards;
    const RunLimits shard_limits = RemainingLimits(limits, timer);
    AbortFlag local_abort;
    AbortFlag* abort = SharedAbort(limits, &local_abort);
    std::atomic<std::uint64_t> materialized{0};  // run-wide, all shards
    std::vector<ShardOutcome> out(shards.size());
    const TupleCallback noop = [](const Tuple&) {};
    RunShards(shards.size(), [&](std::size_t s) {
      ShardOutcome& o = out[s];
      TrieJoinContext ctx(substrate, &o.stats);
      EvalRun eval(*plan, setup.cache, &ctx, &o.stats, noop, shard_limits,
                   /*expand_at_leaf=*/false, shards[s], abort, &materialized);
      eval.Run();
      o.timed_out = eval.timed_out();
      o.out_of_memory = eval.out_of_memory();
      if (!o.timed_out && !o.out_of_memory) o.root = eval.TakeRootSet();
    });
    run->status = MergeShards(out, abort, &run->stats);
    if (run->ok()) {
      // Concatenate shard roots in shard order: ascending contiguous
      // first-variable intervals reproduce the one-shard entry order.
      std::size_t total = 0;
      for (const ShardOutcome& o : out) total += o.root->entries.size();
      root->entries.reserve(total);
      for (ShardOutcome& o : out) {
        std::move(o.root->entries.begin(), o.root->entries.end(),
                  std::back_inserter(root->entries));
        o.root = nullptr;
      }
    }
  }
  run->seconds = timer.Seconds();
  if (!run->ok()) return std::nullopt;
  run->count = FactorizedCount(*root);
  run->stats.output_tuples = run->count;
  return FactorizedQueryResult(std::move(plan),
                               FactorizedSetPtr(std::move(root)));
}

}  // namespace clftj
