#ifndef CLFTJ_ENGINE_REUSE_H_
#define CLFTJ_ENGINE_REUSE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clftj/cache.h"
#include "clftj/factorized.h"
#include "clftj/plan.h"
#include "data/database.h"
#include "lftj/trie_join.h"
#include "query/query.h"
#include "td/planner.h"
#include "trie/trie.h"
#include "util/stats.h"

namespace clftj {

/// Knobs for the serving loop's cross-query reuse layer. `enabled` is the
/// master switch (off = every request plans, builds and caches from
/// scratch, exactly the pre-reuse behavior, which keeps the cold path
/// testable).
struct ReuseOptions {
  bool enabled = true;
  /// How many query shapes keep their resolved plan (LRU; 0 = unbounded).
  std::size_t plan_cache_capacity = 64;
  /// How many of the most recently used of those shapes also keep their
  /// persistent subtree-result tables (0 = all of them). NodeId keyspaces
  /// are per-plan, which is why the tables are per shape — sharing one
  /// table across shapes would mix keyspaces. A generation bump (bulk Put)
  /// drops them all; an ApplyDelta erases only the entries whose key the
  /// changed tuples reach through the node's subtree join — every entry
  /// whose value changed is among them (docs/incremental.md).
  std::size_t max_shape_caches = 32;
  /// Lock-free seqlock read path for hot stripes of the persistent caches
  /// (StripedCacheManager hot_reads) — batch members polling the same hot
  /// subtree stop serializing on the stripe mutex.
  bool hot_stripe_reads = true;
  /// Cross-shape count-cache seeding: when a shape goes cold, copy count
  /// entries from resident shapes whose cacheable nodes have identical
  /// subjoin signatures (e.g. a warm 4-cycle seeds a cold 5-cycle's shared
  /// 2-path subtree). Count mode only: eval payloads are plan-structured
  /// and never cross plans. Charged as batch_prefix_seeds on the request
  /// that warmed the shape.
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
/// one store, under one mutex, of everything the serving loop retains
/// between requests, bound to a single (planner, cache-options)
/// configuration. It holds an LRU of query shapes, each with its resolved
/// plan, its trie substrate and its persistent tables, and one map of
/// atom-view tries that every shape's substrate draws from. Prepare() is
/// called once per request before engine construction; the returned
/// handles are injected through EngineOptions. Results are bit-identical
/// warm vs cold — reuse changes where immutable inputs come from, never
/// what they contain.
class CrossQueryReuse {
 public:
  /// `stripes_hint` sizes the persistent striped caches (number of
  /// concurrent probers to expect, e.g. worker count x shard count);
  /// <= 0 lets the cache pick.
  CrossQueryReuse(const ReuseOptions& options, PlannerOptions planner,
                  CacheOptions cache, int stripes_hint = 0);

  /// Everything Prepare resolved for one request. All fields are null when
  /// reuse is off: the engine then does that part itself.
  struct Prepared {
    std::shared_ptr<const CachedPlan> plan;
    std::shared_ptr<const TrieJoinSubstrate> substrate;
    std::shared_ptr<ShapeCaches> caches;
  };

  /// Resolves the reusable state for `q` at db's current data versions,
  /// charging the reuse counters to *stats (may be null). A plan is a
  /// deterministic function of the query shape and the database
  /// statistics, so it is kept per shape and revalidated on every hit: it
  /// is re-resolved (a miss) only when some referenced relation's
  /// cardinality drifted beyond 2x of what it was resolved against, or
  /// crossed zero; a re-resolved plan gets fresh tables, since the old
  /// ones belong to the old plan's NodeId keyspace. A shape keeps the
  /// substrate it assembled until its plan changes or any delta arrives;
  /// a warm hit hands it back and charges one substrate_reuses per atom.
  /// A cold assembly looks each atom's view up in the shared trie map and
  /// builds only the missing ones (substrate_builds, substrate_build_ns),
  /// so atoms of any shape that project a relation the same way share one
  /// Trie. Thread-safe, provided `db` does not change during the call
  /// (QueryService holds its data lock); planning and trie builds run
  /// outside the lock. When two threads race on the same cold shape the
  /// first installed plan wins and both report a miss; a thread that
  /// loses a trie publish race adopts the winner's trie. May throw if a
  /// cold trie build throws (injected faults) — already-published views
  /// stay cached.
  Prepared Prepare(const Query& q, const Database& db, ExecStats* stats);

  /// Shapes with a resident plan right now (tests).
  std::size_t NumShapes() const;

 private:
  /// Everything kept for one query shape.
  struct Shape {
    std::string key;
    std::shared_ptr<const CachedPlan> plan;
    /// Each referenced relation's visible cardinality when `plan` was
    /// resolved: the drift baseline (deliberately not refreshed on hits,
    /// so cumulative small deltas eventually trip the 2x bound).
    std::vector<std::pair<std::string, std::size_t>> sizes;
    /// The plan plus the shape's atoms decide, per delta, which table
    /// entries a data change can actually touch (docs/incremental.md).
    std::vector<Atom> atoms;
    /// Null unless the shape is among the max_shape_caches most recently
    /// used.
    std::shared_ptr<ShapeCaches> caches;
    /// Per-node subjoin signatures for cross-shape count-cache seeding,
    /// computed whenever `caches` is attached and read only while it is;
    /// "" = never matchable.
    std::vector<std::string> signatures;
    /// The tries of `plan`'s order, assembled from views_; null until the
    /// first Prepare after the plan was installed or a delta arrived.
    std::shared_ptr<const TrieJoinSubstrate> substrate;
  };

  /// One retained atom-view trie, keyed in views_ on everything its
  /// contents depend on (ViewKey in reuse.cc).
  struct View {
    std::string relation;
    std::uint64_t version = 0;  // the relation's compactions() at the build
    std::shared_ptr<const Trie> trie;
  };

  /// Brings the store to db's data versions: a generation bump drops every
  /// shape and every view; a minor bump drops the views whose relation
  /// version moved and every shape's substrate, then runs the targeted
  /// sweep over the resident tables, or drops every shape's tables when
  /// the delta log no longer reaches back. Caller holds mu_.
  void SyncVersions(const Database& db);

  /// Assembles the substrate of `q` for `order` from views_, building the
  /// missing views outside the lock and publishing each one (a lost race
  /// adopts the published trie). Charges the substrate counters to *stats
  /// (may be null). Caller holds `lock` on mu_; it is held again on return,
  /// and released if a build throws.
  std::shared_ptr<const TrieJoinSubstrate> AssembleSubstrate(
      const Query& q, const Database& db, const std::vector<VarId>& order,
      ExecStats* stats, std::unique_lock<std::mutex>& lock);

  /// Copies count entries from resident shapes into the fresh tables of
  /// `target` wherever subjoin signatures match. Charges batch_prefix_seeds
  /// to *stats (may be null). Caller holds mu_.
  void SeedFromResidentShapes(Shape& target, ExecStats* stats);

  /// Targeted invalidation after ApplyDelta batches (docs/incremental.md).
  /// Per cacheable node of each resident shape, erases exactly the adhesion
  /// keys that the node's subtree join reaches from the changed tuples
  /// (the exact rule); a node whose join outgrows the shape's tables
  /// instead evicts, in one pass per table, the entries whose key agrees
  /// with a changed tuple on the adhesion variables of some participating
  /// atom (the per-atom rule). Caller holds mu_.
  void InvalidateForDeltas(const Database& db,
                           const std::vector<const DeltaLogEntry*>& deltas);

  const ReuseOptions options_;
  const PlannerOptions planner_;
  const CacheOptions cache_;
  const int stripes_hint_;

  mutable std::mutex mu_;
  std::uint64_t generation_ = 0;
  std::uint64_t minor_ = 0;
  std::list<Shape> shapes_;  // front = most recently used
  std::unordered_map<std::string, std::list<Shape>::iterator> index_;
  /// One trie per live view, shared by every shape's substrate. No budget
  /// of its own: SyncVersions is the only sweep.
  std::unordered_map<std::string, View> views_;
};

}  // namespace clftj

#endif  // CLFTJ_ENGINE_REUSE_H_
