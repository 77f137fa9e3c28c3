#ifndef CLFTJ_ENGINE_REUSE_H_
#define CLFTJ_ENGINE_REUSE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "clftj/cache.h"
#include "clftj/factorized.h"
#include "clftj/plan.h"
#include "clftj/plan_cache.h"
#include "data/database.h"
#include "engine/substrate_registry.h"
#include "query/query.h"
#include "td/planner.h"
#include "util/stats.h"

namespace clftj {

/// Knobs for the serving loop's cross-query reuse layer. `enabled` is the
/// master switch (off = every request plans, builds and caches from
/// scratch, exactly the pre-reuse behavior, which keeps the cold path
/// testable). When on, the plan cache and the shared tries always run; the
/// persistent caches can be switched off on their own.
struct ReuseOptions {
  bool enabled = true;
  /// Capacity of the LRU of resolved CachedPlans keyed on (shape,
  /// generation).
  std::size_t plan_cache_capacity = 64;
  /// Byte budget for the long-lived shared tries (SubstrateRegistry); 0 =
  /// unbounded.
  std::uint64_t substrate_budget_bytes = 0;
  /// Persistent striped subtree-result caches, one per shape, that
  /// successive requests warm for each other. NodeId keyspaces are
  /// per-plan, which is why the caches are per-shape — sharing one table
  /// across shapes would mix keyspaces. A generation bump (bulk Put) drops
  /// them all; an ApplyDelta evicts only entries whose adhesion key may
  /// touch the changed values (docs/incremental.md).
  bool persistent_cache = true;
  std::size_t max_shape_caches = 32;
  /// Lock-free seqlock read path for hot stripes of the persistent caches
  /// (StripedCacheManager hot_reads) — batch members polling the same hot
  /// subtree stop serializing on the stripe mutex.
  bool hot_stripe_reads = true;
  /// Cross-shape count-cache seeding: when a shape goes cold, copy count
  /// entries from resident shapes whose cacheable nodes have identical
  /// subjoin signatures (SubtreeSignatures — e.g. a warm 4-cycle seeds a
  /// cold 5-cycle's shared 2-path subtree). Count mode only: eval payloads
  /// are plan-structured and never cross plans. Charged as
  /// batch_prefix_seeds on the request that warmed the shape.
  bool cross_shape_seed = true;
};

/// The persistent cache pair of one query shape: the count-mode and the
/// eval-mode striped tables. Both are keyed by (NodeId, adhesion key)
/// under the shape's plan; eval payloads are FactorizedSets frozen before
/// insert (the PR 3 invariant that makes cross-request sharing safe).
struct ShapeCaches {
  StripedCacheManager<std::uint64_t> count;
  StripedCacheManager<FactorizedSetPtr> eval;

  ShapeCaches(const CacheOptions& options, int stripes_hint,
              bool hot_reads = false)
      : count(options, stripes_hint, hot_reads),
        eval(options, stripes_hint, hot_reads) {}
};

/// The cross-query reuse layer under QueryService (and clftj_cli --repeat):
/// one object that owns the plan cache, the substrate registry and the
/// per-shape persistent caches, bound to a single (planner, cache-options)
/// configuration. Prepare() is called once per request before engine
/// construction; the returned handles are injected through EngineOptions.
/// Results are bit-identical warm vs cold — reuse changes where immutable
/// inputs come from, never what they contain.
class CrossQueryReuse {
 public:
  /// `stripes_hint` sizes the persistent striped caches (number of
  /// concurrent probers to expect, e.g. worker count x shard count);
  /// <= 0 lets the cache pick.
  CrossQueryReuse(const ReuseOptions& options, PlannerOptions planner,
                  CacheOptions cache, int stripes_hint = 0);

  /// Everything Prepare resolved for one request. Null fields mean "the
  /// engine does that part itself": all three when reuse is off, `caches`
  /// alone when persistent_cache is off.
  struct Prepared {
    std::shared_ptr<const CachedPlan> plan;
    std::shared_ptr<const TrieJoinSubstrate> substrate;
    std::shared_ptr<ShapeCaches> caches;
  };

  /// Resolves the reusable state for `q` at db's current generation,
  /// charging the reuse counters to *stats (may be null). Thread-safe; may
  /// throw if a cold trie build throws (injected faults) — already-cached
  /// state is unaffected.
  Prepared Prepare(const Query& q, const Database& db, ExecStats* stats);

  const ReuseOptions& options() const { return options_; }
  SubstrateRegistry& registry() { return registry_; }
  PlanCache& plan_cache() { return plan_cache_; }

 private:
  struct CacheEntry {
    std::string key;
    /// The plan the tables' NodeId keyspace belongs to, plus the shape's
    /// atoms — both needed to decide, per delta, which entries a data
    /// change can actually touch (see docs/incremental.md).
    std::shared_ptr<const CachedPlan> plan;
    std::vector<Atom> atoms;
    std::shared_ptr<ShapeCaches> caches;
    /// Per-node subjoin signatures (SubtreeSignatures) for cross-shape
    /// count-cache seeding; "" = never matchable.
    std::vector<std::string> signatures;
  };

  std::shared_ptr<ShapeCaches> AcquireShapeCaches(
      const Query& q, const Database& db,
      const std::shared_ptr<const CachedPlan>& plan, ExecStats* stats);

  /// Copies count entries from resident shapes into the freshly created
  /// `target` wherever subjoin signatures match (called under mu_, with
  /// `target` already in cache_lru_). Charges batch_prefix_seeds to *stats
  /// (may be null).
  void SeedFromResidentShapes(CacheEntry& target, ExecStats* stats);

  /// Targeted invalidation after ApplyDelta batches: one sweep per table
  /// evicts the entries whose adhesion key agrees with some changed tuple
  /// on the adhesion variables of some participating atom (per-atom rule,
  /// docs/incremental.md). Called under mu_, from the first Prepare after
  /// the deltas.
  void InvalidateForDeltas(const std::vector<const DeltaLogEntry*>& deltas);

  const ReuseOptions options_;
  const PlannerOptions planner_;
  const CacheOptions cache_;
  const int stripes_hint_;
  PlanCache plan_cache_;
  SubstrateRegistry registry_;

  std::mutex mu_;
  std::uint64_t caches_generation_ = 0;
  std::uint64_t caches_minor_ = 0;
  std::list<CacheEntry> cache_lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<CacheEntry>::iterator>
      cache_index_;
};

}  // namespace clftj

#endif  // CLFTJ_ENGINE_REUSE_H_
