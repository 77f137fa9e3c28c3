#ifndef CLFTJ_CLFTJ_CACHED_TRIE_JOIN_H_
#define CLFTJ_CLFTJ_CACHED_TRIE_JOIN_H_

#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "clftj/cache.h"
#include "clftj/factorized.h"
#include "clftj/plan.h"
#include "clftj/semiring.h"
#include "engine/engine.h"
#include "lftj/trie_join.h"
#include "td/planner.h"
#include "util/packed_key.h"

namespace clftj {

/// Restriction of a CLFTJ run to first-variable values in the half-open
/// interval [lo, hi) — the sharding unit of a multi-threaded CachedTrieJoin
/// (it splits the first variable's sibling range into contiguous shards of
/// these). The default range covers the whole domain, which makes an
/// unrestricted run just the 1-shard special case.
struct FirstVarRange {
  Value lo = std::numeric_limits<Value>::min();
  /// When false, the range is unbounded above and `hi` is ignored.
  bool has_hi = false;
  Value hi = 0;
};

/// Weight of one atom under the current assignment (indexed by VarId) in a
/// semiring aggregate; see CachedTrieJoin::Aggregate.
template <typename S>
using AtomWeightFn = std::function<typename S::Value(AtomId, const Tuple&)>;

/// The per-atom weights a weighted CountRun folds in. `fn(a, µ)` is
/// multiplied into the ⊗-factor at the depth of atom a's last variable;
/// `ending_at[d]` lists, in atom order, the atoms whose last variable sits
/// at depth d (an atom without variables ends at depth 0). Shared and
/// immutable across the shards of one run.
template <typename S>
struct AtomWeights {
  AtomWeightFn<S> fn;
  std::vector<std::vector<AtomId>> ending_at;
};

/// Per-run mutable state of cached trie join over a commutative semiring
/// S (semiring.h): RCachedJoin of Figure 2 with f carried as a ⊗-factor and
/// intrmd(v) as ⊕-sums. With S = CountingSemiring and no weights this is
/// the paper's count; with weights it is the Section 6 aggregate
///
///   ⊕ over assignments µ ∈ q(D) of  ⊗ over atoms φ of  weight(φ, µ).
///
/// A cached value is the subtree's full aggregate given the adhesion
/// assignment, and a hit multiplies it into the factor exactly like a
/// count. Correctness needs only the semiring laws (⊕/⊗ commutative and
/// associative, Zero annihilates ⊗).
///
/// This is the run half of the run/plan split: everything mutable —
/// iterators (via the TrieJoinContext cursor), the partial assignment,
/// intermediate values, the cache, stats and the deadline — lives here,
/// while the CachedPlan, the trie substrate behind `ctx` and the weights
/// are shared immutable inputs. N CountRuns over one plan/substrate (each
/// with its own cursor, stats sink and cache) may execute concurrently.
/// Instantiated in cached_trie_join.cc for the five semirings of
/// semiring.h.
template <typename S>
class CountRun {
 public:
  using Weight = typename S::Value;

  /// `range` restricts the first variable; `abort` (optional) is a stop
  /// flag shared across concurrent runs — this run trips it on its own
  /// deadline expiry and halts within one deadline stride when any other
  /// run trips it. `shared_cache` (optional) replaces the run's private
  /// cache with the serving loop's persistent striped table: this run then
  /// probes and fills the one table all concurrent runs of the shape
  /// share, and `cache_options` budgets are ignored (the striped table
  /// carries its own budget). `weights` (optional, borrowed) makes the run
  /// a weighted aggregate; without it every atom weighs S::One() and the
  /// loop does no weight work at all.
  CountRun(const CachedPlan& plan, const CacheOptions& cache_options,
           TrieJoinContext* ctx, ExecStats* stats, const RunLimits& limits,
           const FirstVarRange& range = {}, AbortFlag* abort = nullptr,
           StripedCacheManager<Weight>* shared_cache = nullptr,
           const AtomWeights<S>* weights = nullptr)
      : plan_(plan),
        ctx_(ctx),
        weights_(weights),
        cache_(cache_options, stats, shared_cache),
        intrmd_(plan.cacheable.size(), S::Zero()),
        groups_(plan.order.size()),
        assignment_(plan.order.size(), kNullValue),
        range_(range),
        deadline_(limits.timeout_seconds, abort) {
    if (weights_ != nullptr) depth_weight_.assign(plan.order.size(), S::One());
    PlanProbeGroups();
  }

  /// The ⊕-sum of this run's range.
  Weight Run();

  bool timed_out() const { return aborted_; }

 private:
  /// The state of a depth d whose loop probes its child's keys in groups
  /// (docs/cache.md "Grouped probes"): depth d + 1 enters the cacheable
  /// node `child`, and order[d] is in child's adhesion, so every value of
  /// d gives a distinct key. Per gathered value i: the value, the child's
  /// key, the probe's payload on a hit, and the join's saved cursor (its
  /// mark and the participants' positions, row i of `positions`). After n
  /// values, mark n and row n hold the cursor past them.
  struct ProbeGroup {
    NodeId child = kNone;
    Value values[kMaxLookupGroup] = {};
    PackedKey keys[kMaxLookupGroup] = {};
    Weight hits[kMaxLookupGroup] = {};
    LeapfrogJoin::Mark marks[kMaxLookupGroup + 1] = {};
    std::vector<std::size_t> positions;
  };

  /// Fills groups_ from the plan: a ProbeGroup for every depth whose child
  /// keys are distinct, none elsewhere.
  void PlanProbeGroups();

  /// Figure 2's RCachedJoin from depth d with ⊗-factor f. kWeighted is
  /// fixed per run, so the unweighted loop carries no weight test at all.
  /// When depth d enters a cacheable node whose probe a grouping depth has
  /// already made, `key` is the node's adhesion key and `hit` the cached
  /// value, or null on a miss; otherwise `key` is null and the entry probes
  /// for itself.
  template <bool kWeighted>
  void RCachedJoin(int d, Weight f, const PackedKey* key = nullptr,
                   const Weight* hit = nullptr);

  /// The grouped loop of depth d (see ProbeGroup): gathers up to
  /// kMaxLookupGroup values, probes their child keys with one LookupMany,
  /// then restores the join's cursor at each value and visits it with its
  /// probe's answer.
  template <bool kWeighted>
  void GroupedLoop(int d, Weight f, LeapfrogJoin* join, ProbeGroup& g);

  /// True when depth d's loop may take the join's current value: the join
  /// is not exhausted, the value lies below the shard's upper bound, and
  /// the deadline has not expired (which aborts the run).
  [[gnu::always_inline]] inline bool TakesNext(int d,
                                               const LeapfrogJoin& join);

  /// The loop body of depth d for its value x, written once for both loop
  /// shapes (and inlined into each): binds x, descends to depth d + 1 —
  /// handing over the grouped child's answered probe when `key` is set —
  /// and at the owner's last depth folds the children's intermediates into
  /// the owner's.
  template <bool kWeighted>
  [[gnu::always_inline]] inline void Visit(int d, Weight f, Value x,
                                           const PackedKey* key,
                                           const Weight* hit);

  /// ⊗ of the weights of the atoms whose last variable sits at depth d.
  Weight WeightsAt(int d) const;

  const CachedPlan& plan_;
  TrieJoinContext* ctx_;
  const AtomWeights<S>* weights_;
  RunCache<Weight> cache_;
  std::vector<Weight> intrmd_;
  std::vector<std::unique_ptr<ProbeGroup>> groups_;  // per depth, or null
  std::vector<Weight> depth_weight_;  // weighted runs only: per depth
  Tuple assignment_;
  FirstVarRange range_;
  DeadlineChecker deadline_;
  Weight total_ = S::Zero();
  bool aborted_ = false;
};

/// Per-run mutable state of evaluating CLFTJ: intermediate results become
/// factorized sets; a cache hit pushes a skip record and the emission point
/// expands the product of all active skips (Section 3.4). Same re-entrancy
/// contract as CountRun: plan and substrate are shared immutable inputs,
/// everything else is private to this run.
class EvalRun {
 public:
  /// `shared_intermediates` (optional) makes RunLimits::max_intermediate_
  /// tuples a *run-wide* budget across concurrent EvalRuns: every
  /// materialized entry is counted through the shared counter instead of
  /// this run's private stats, so K shards together never exceed the one
  /// budget a single-thread run gets. Null keeps the private accounting.
  /// `shared_cache` (optional) is the serving loop's persistent striped
  /// table, shared by all concurrent runs of the shape; factorized sets are
  /// frozen before insert and published through the stripe mutex, so a hit
  /// may hand this run a set built by another run (see
  /// StripedCacheManager).
  EvalRun(const CachedPlan& plan, const CacheOptions& cache_options,
          TrieJoinContext* ctx, ExecStats* stats, const TupleCallback& cb,
          const RunLimits& limits, bool expand_at_leaf = true,
          const FirstVarRange& range = {}, AbortFlag* abort = nullptr,
          std::atomic<std::uint64_t>* shared_intermediates = nullptr,
          StripedCacheManager<FactorizedSetPtr>* shared_cache = nullptr)
      : expand_at_leaf_(expand_at_leaf),
        plan_(plan),
        ctx_(ctx),
        stats_(stats),
        cb_(cb),
        cache_(cache_options, stats, shared_cache),
        building_(plan.cacheable.size()),
        completed_(plan.cacheable.size()),
        node_key_(plan.cacheable.size()),
        assignment_(plan.order.size(), kNullValue),
        range_(range),
        deadline_(limits.timeout_seconds, abort),
        abort_(abort),
        shared_intermediates_(shared_intermediates),
        max_intermediates_(limits.max_intermediate_tuples) {}

  std::uint64_t Run() {
    RCachedJoin(0);
    return emitted_;
  }

  bool timed_out() const { return timed_out_; }
  bool out_of_memory() const { return out_of_memory_; }

  /// Freezes and returns the root node's accumulated factorized set (only
  /// meaningful after Run() in maintain-everything mode). Returned mutable
  /// and uniquely owned so a sharded caller can splice shard roots together
  /// without copying.
  std::shared_ptr<FactorizedSet> TakeRootSet();

 private:
  bool aborted() const { return timed_out_ || out_of_memory_; }

  void Emit();
  void RCachedJoin(int d);
  void AppendEntry(NodeId v);

  bool expand_at_leaf_;
  const CachedPlan& plan_;
  TrieJoinContext* ctx_;
  ExecStats* stats_;
  const TupleCallback& cb_;
  RunCache<FactorizedSetPtr> cache_;
  std::vector<std::vector<FactorizedEntry>> building_;
  std::vector<FactorizedSetPtr> completed_;
  std::vector<PackedKey> node_key_;
  std::vector<std::pair<NodeId, FactorizedSetPtr>> skips_;
  Tuple assignment_;
  FirstVarRange range_;
  DeadlineChecker deadline_;
  AbortFlag* abort_;
  std::atomic<std::uint64_t>* shared_intermediates_;
  std::uint64_t max_intermediates_;
  std::uint64_t emitted_ = 0;
  bool timed_out_ = false;
  bool out_of_memory_ = false;
};

/// CLFTJ — Leapfrog Trie Join with flexible caching (Figure 2 of the
/// paper). Runs LFTJ unchanged over a variable order that is strongly
/// compatible with an ordered tree decomposition; whenever execution enters
/// a TD node whose adhesion assignment was seen before, the entire subtree
/// scan is skipped and replaced by the cached intermediate count (or
/// factorized result set, in evaluation mode). Caching is optional per
/// entry — any admission/eviction decision preserves correctness — so the
/// memory footprint can be bounded dynamically.
///
/// One run builds the shared immutable state once — CachedPlan and
/// TrieJoinSubstrate, both data-race-free under concurrent reads — then
/// splits the first join variable's domain into K contiguous near-equal
/// value ranges and executes each range as an independent CountRun/EvalRun
/// with a private TrieJoinContext cursor and private ExecStats. K = 1 (the
/// default, Options::threads == 1) is the paper's sequential CLFTJ: one
/// unbounded shard on the calling thread, no worker threads. K > 1 is
/// CLFTJ-P, one shard per thread. Each shard owns a private CacheManager
/// sized capacity/K (and capacity_bytes/K): no synchronization on the hot
/// path, no cross-shard reuse. Only a cache injected by the serving loop
/// (Options::shared_count_cache/shared_eval_cache) is shared across
/// shards. A single shared AbortFlag propagates the first deadline expiry
/// or materialization-budget hit to every shard within one deadline
/// stride. The whole run — plan resolution and trie builds included —
/// shares one RunLimits::timeout_seconds window.
///
/// Determinism: shards are ascending value intervals and the trie
/// enumerates ascending, so summing counts and concatenating factorized
/// root entries in shard order reproduce the one-shard result — identical
/// counts and identical tuple sets at every thread count and with or
/// without an injected cache (cached entries are exact subtree results, so
/// any hit/miss pattern preserves correctness). The order of the tuple
/// stream follows the hit pattern, because a hit defers its subtree to
/// the emission point, where it is expanded after the depths that follow
/// it, while a miss enumerates the subtree in join order. With private
/// caches the stream is therefore deterministic for a given thread count
/// (but can differ from the one-shard stream: K shard caches hit
/// differently than one cache). With an injected persistent eval cache a
/// warm run emits the same tuples as a cold run, in a different order: the
/// entries earlier runs left behind are hits the cold run did not have.
/// Stats are fully deterministic too: each shard's traversal is
/// fixed, and the merged stats report the shard sum, with cache peaks
/// summed because the private caches coexist. Over an injected cache each
/// run still counts its own hits, misses and inserts (RunCache), while the
/// table's probe memory accesses, evictions and peaks stay in its stripes;
/// whether shard B hits a subtree shard A computes then depends on which
/// run inserted first.
class CachedTrieJoin : public JoinEngine {
 public:
  struct Options {
    /// Worker count: 1 is sequential CLFTJ; <= 0 means one per hardware
    /// thread. The effective shard count is min(threads, size of the
    /// smallest depth-0 atom's top level), so a domain smaller than the
    /// thread count simply runs fewer shards.
    int threads = 1;
    /// Explicit plan (e.g. a hand-built TD for the Figure 11/13
    /// experiments); when absent, PlanQuery chooses one per query.
    std::optional<TdPlan> plan;
    /// The *global* cache budget: each of K shards' private caches
    /// receives capacity/K (and capacity_bytes/K).
    CacheOptions cache;

    // Cross-query reuse injection (the serving loop's CrossQueryReuse).
    // When set, the run skips its own plan resolution / trie builds and
    // uses the shared immutable state instead; the striped cache pointers
    // (borrowed, must outlive the run) replace the shards' private caches
    // so all shards of all requests of this shape share one table. Results
    // are identical either way.
    std::shared_ptr<const CachedPlan> prepared_plan;
    std::shared_ptr<const TrieJoinSubstrate> prepared_substrate;
    StripedCacheManager<std::uint64_t>* shared_count_cache = nullptr;
    StripedCacheManager<FactorizedSetPtr>* shared_eval_cache = nullptr;
  };

  CachedTrieJoin() = default;
  explicit CachedTrieJoin(Options options) : options_(std::move(options)) {}

  std::string name() const override {
    return options_.threads == 1 ? "CLFTJ" : "CLFTJ-P";
  }

  RunResult Count(const Query& q, const Database& db,
                  const RunLimits& limits) override;

  /// Outcome of a semiring aggregate: the ⊕-sum with the run's typed
  /// status, wall time and merged stats. A run that hits a limit reports a
  /// partial value with the status set.
  template <typename S>
  struct AggregateResult {
    typename S::Value value = S::Zero();
    RunStatus status = RunStatus::kOk;
    double seconds = 0.0;
    ExecStats stats;
  };

  /// The paper's Section 6 extension to general aggregates: the same run
  /// as Count — same plan, substrate, shards, cache options and limits —
  /// over semiring S, with `weight` (optional) applied to each atom at the
  /// depth of its last variable (see CountRun). Without a weight every
  /// atom weighs S::One(), i.e. the result is the semiring "count" of
  /// q(D). Shards combine with S::Plus in shard order. `weight` must be
  /// pure; with threads > 1 it is called concurrently. Cache entries hold
  /// weighted values, so the injected persistent count cache is never
  /// probed or filled. Instantiated for the five semirings of semiring.h.
  template <typename S>
  AggregateResult<S> Aggregate(const Query& q, const Database& db,
                               const AtomWeightFn<S>& weight = nullptr,
                               const RunLimits& limits = RunLimits());

  /// One shard streams tuples straight into `cb`; streamed tuples are not
  /// materialized, so they draw nothing from max_intermediate_tuples.
  /// K > 1 shards each buffer their tuples, and the buffers are drained
  /// through `cb` in shard order after the workers join — the same stream
  /// for every run at a given thread count (see the class comment on
  /// ordering). Buffered tuples and intermediate entries draw on one
  /// run-wide max_intermediate_tuples budget shared by all shards (a
  /// single atomic counter), so a parallel run whose buffered output would
  /// exceed the budget reports kOutOfMemory where one shard would have
  /// streamed through. Callers that need unbounded streaming of huge
  /// results should run one thread, or EvaluateFactorized (whose
  /// factorized root is usually far smaller than the flat result).
  RunResult Evaluate(const Query& q, const Database& db,
                     const TupleCallback& cb, const RunLimits& limits) override;

  /// Computes q(D) as a persistent factorized representation instead of a
  /// flat tuple stream (Section 3.4): intermediate sets are maintained at
  /// every TD node and the root's set *is* the result — counting and
  /// enumeration happen on demand via FactorizedQueryResult. The root set
  /// is the shard roots' entries concatenated in shard order. Returns
  /// nullopt if the run hit a limit (limits/result details in *run).
  std::optional<FactorizedQueryResult> EvaluateFactorized(
      const Query& q, const Database& db, const RunLimits& limits,
      RunResult* run);

 private:
  int EffectiveThreads() const;

  /// The one cached-count path behind Count and Aggregate: resolves the
  /// plan and substrate, runs one CountRun<S> per shard and folds the
  /// shards in shard order. `weight` may be empty; `shared_cache` is the
  /// injected persistent table or null.
  template <typename S>
  AggregateResult<S> RunCounts(const Query& q, const Database& db,
                               const AtomWeightFn<S>& weight,
                               StripedCacheManager<typename S::Value>*
                                   shared_cache,
                               const RunLimits& limits);

  /// Returns the prepared plan if injected, else resolves into *local.
  const CachedPlan* PlanFor(const Query& q, const Database& db,
                            std::optional<CachedPlan>* local) const;
  /// Returns the prepared substrate if injected (checking its order matches
  /// the plan), else builds a private one into *local.
  const TrieJoinSubstrate* SubstrateFor(
      const Query& q, const Database& db, const CachedPlan& plan,
      std::optional<TrieJoinSubstrate>* local) const;

  Options options_;
};

}  // namespace clftj

#endif  // CLFTJ_CLFTJ_CACHED_TRIE_JOIN_H_
