#include "engine/reuse.h"

#include <algorithm>
#include <array>
#include <utility>

#include "query/shape.h"

namespace clftj {

namespace {

// A small fixed-size Bloom filter over the changed values of one adhesion
// dimension (4096 bits, two independent bit positions per value). Only used
// for eviction decisions, where a false positive merely over-evicts — the
// next query recomputes the entry — so membership may be approximate while
// absence must be exact, which is exactly a Bloom filter's contract.
struct ValueBloom {
  std::array<std::uint64_t, 64> bits{};

  static std::uint64_t Mix(std::uint64_t x) {
    // splitmix64 finalizer: cheap, well-distributed for sequential ids.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  void Set(std::uint64_t h) {
    const std::uint64_t b = h & 4095;
    bits[b >> 6] |= 1ull << (b & 63);
  }

  bool Test(std::uint64_t h) const {
    const std::uint64_t b = h & 4095;
    return (bits[b >> 6] >> (b & 63)) & 1;
  }

  void Insert(Value v) {
    const std::uint64_t h1 = Mix(static_cast<std::uint64_t>(v));
    Set(h1);
    Set(Mix(h1));
  }

  bool MayContain(Value v) const {
    const std::uint64_t h1 = Mix(static_cast<std::uint64_t>(v));
    return Test(h1) && Test(Mix(h1));
  }
};

// What one delta means for the entries cached at one TD node.
enum class NodeAction { kKeep, kEvictAll, kTargeted };

struct NodeRule {
  NodeAction action = NodeAction::kKeep;
  std::vector<ValueBloom> dims;  // kTargeted: one filter per adhesion dim
};

// Derives the per-node eviction rule for a change to relation `delta`'s
// tuples under `plan`. Soundness argument (docs/incremental.md): the entry
// cached at node n summarizes the subtree owned by depths
// [first_depth[n], subtree_last_depth[n]] as a function of (participating
// atoms' data, adhesion assignment). So:
//  - no atom over the changed relation participates in the subtree: no
//    entry at n can change — keep them all;
//  - every participating changed-relation atom contains all of n's
//    adhesion variables: a changed tuple pins each adhesion value at that
//    variable's term position, so only entries whose key matches some
//    changed tuple in *every* dimension can change — evict exactly those
//    (per-dimension Bloom membership, AND across dimensions);
//  - otherwise a changed tuple can affect entries under any key — evict
//    everything at n.
std::vector<NodeRule> RulesFor(const CachedPlan& plan,
                               const std::vector<Atom>& atoms,
                               const DeltaLogEntry& delta) {
  const int num_nodes = static_cast<int>(plan.cacheable.size());
  std::vector<NodeRule> rules(num_nodes);
  std::vector<const Atom*> r_atoms;
  for (const Atom& atom : atoms) {
    if (atom.relation == delta.relation) r_atoms.push_back(&atom);
  }
  if (r_atoms.empty()) return rules;  // all kKeep
  for (NodeId n = 0; n < num_nodes; ++n) {
    if (!plan.cacheable[n]) continue;  // no entries exist at n
    const int lo = plan.first_depth[n];
    const int hi = plan.subtree_last_depth[n];
    std::vector<const Atom*> participating;
    for (const Atom* atom : r_atoms) {
      for (const Term& term : atom->terms) {
        if (!term.is_variable) continue;
        const int rank = plan.var_rank[term.var];
        if (rank >= lo && rank <= hi) {
          participating.push_back(atom);
          break;
        }
      }
    }
    if (participating.empty()) continue;  // kKeep
    NodeRule& rule = rules[n];
    const std::vector<VarId>& avars = plan.adhesion_vars[n];
    rule.dims.resize(avars.size());
    bool targeted = true;
    for (const Atom* atom : participating) {
      std::vector<int> pos(avars.size(), -1);
      for (std::size_t i = 0; i < avars.size(); ++i) {
        for (std::size_t p = 0; p < atom->terms.size(); ++p) {
          if (atom->terms[p].is_variable && atom->terms[p].var == avars[i]) {
            pos[i] = static_cast<int>(p);
            break;
          }
        }
        if (pos[i] < 0) {
          targeted = false;
          break;
        }
      }
      if (!targeted) break;
      for (const Tuple& t : delta.changed) {
        for (std::size_t i = 0; i < avars.size(); ++i) {
          rule.dims[i].Insert(t[pos[i]]);
        }
      }
    }
    rule.action = targeted ? NodeAction::kTargeted : NodeAction::kEvictAll;
    if (!targeted) rule.dims.clear();
  }
  return rules;
}

}  // namespace

CrossQueryReuse::CrossQueryReuse(const ReuseOptions& options,
                                 PlannerOptions planner, CacheOptions cache,
                                 int stripes_hint)
    : options_(options),
      planner_(planner),
      cache_(cache),
      stripes_hint_(std::max(stripes_hint, 0)),
      plan_cache_(options.plan_cache_capacity),
      registry_(SubstrateRegistry::Options{options.substrate_budget_bytes}) {}

CrossQueryReuse::Prepared CrossQueryReuse::Prepare(const Query& q,
                                                   const Database& db,
                                                   ExecStats* stats) {
  Prepared out;
  if (!options_.enabled) return out;
  out.plan = plan_cache_.Resolve(q, db, planner_, cache_, stats);
  out.substrate = registry_.Acquire(q, db, out.plan->order, stats);
  if (options_.persistent_cache) {
    out.caches = AcquireShapeCaches(q, db, out.plan, stats);
  }
  return out;
}

void CrossQueryReuse::InvalidateForDeltas(
    const std::vector<const DeltaLogEntry*>& deltas) {
  for (CacheEntry& entry : cache_lru_) {
    for (const DeltaLogEntry* delta : deltas) {
      const std::vector<NodeRule> rules =
          RulesFor(*entry.plan, entry.atoms, *delta);
      bool any = false;
      for (const NodeRule& rule : rules) {
        if (rule.action != NodeAction::kKeep) {
          any = true;
          break;
        }
      }
      if (!any) continue;
      const auto pred = [&rules](NodeId node, const Value* values, int dims) {
        const NodeRule& rule = rules[node];
        switch (rule.action) {
          case NodeAction::kKeep:
            return false;
          case NodeAction::kEvictAll:
            return true;
          case NodeAction::kTargeted:
            break;
        }
        if (static_cast<std::size_t>(dims) != rule.dims.size()) return true;
        for (int i = 0; i < dims; ++i) {
          if (!rule.dims[i].MayContain(values[i])) return false;
        }
        return true;  // key may match a changed tuple in every dimension
      };
      entry.caches->count.EvictIf(pred);
      entry.caches->eval.EvictIf(pred);
    }
  }
}

void CrossQueryReuse::SeedFromResidentShapes(CacheEntry& target,
                                             ExecStats* stats) {
  // For each matchable node of the cold shape, scan the resident shapes
  // MRU-first and copy count entries from the first node whose subjoin
  // signature matches. Equal signatures mean both nodes cache, per adhesion
  // key, the count of the same subjoin over the same data — the payloads
  // are interchangeable (plan_cache.h). Only count mode: eval payloads are
  // factorized sets structured by their own plan. Admission policies may
  // differ between plans, but admission only gates *inserts*; a seeded
  // entry the target would not have admitted is still a correct value, and
  // targeted invalidation evaluates entries against the target plan's own
  // rules, so delta soundness is unaffected.
  std::uint64_t seeded = 0;
  for (NodeId n = 0; n < static_cast<NodeId>(target.signatures.size()); ++n) {
    const std::string& sig = target.signatures[n];
    if (sig.empty()) continue;
    for (CacheEntry& source : cache_lru_) {
      if (&source == &target) continue;
      bool copied = false;
      for (NodeId m = 0; m < static_cast<NodeId>(source.signatures.size());
           ++m) {
        if (source.signatures[m] != sig) continue;
        source.caches->count.ForEach([&](NodeId node, const Value* values,
                                         int dims, std::uint64_t value) {
          if (node != m) return;
          target.caches->count.Insert(n, PackedKey::Pack(values, dims), value);
          ++seeded;
        });
        copied = true;
        break;
      }
      if (copied) break;
    }
  }
  if (stats != nullptr) stats->batch_prefix_seeds += seeded;
}

std::shared_ptr<ShapeCaches> CrossQueryReuse::AcquireShapeCaches(
    const Query& q, const Database& db,
    const std::shared_ptr<const CachedPlan>& plan, ExecStats* stats) {
  const std::uint64_t generation = db.generation();
  const std::uint64_t minor = db.minor_version();
  const std::string key = CanonicalShapeKey(q);

  std::lock_guard<std::mutex> lock(mu_);
  if (caches_generation_ != generation) {
    // Bulk data change: every persistent cache is stale. Drop them eagerly
    // rather than waiting for LRU turnover — outstanding shared_ptrs keep
    // in-flight requests' caches alive.
    cache_index_.clear();
    cache_lru_.clear();
    caches_generation_ = generation;
    caches_minor_ = minor;
  } else if (caches_minor_ != minor) {
    // Delta-only change: evict just the entries the deltas can touch. Fall
    // back to dropping everything when the delta log no longer reaches back
    // to our sync point or a compaction replaced a main tier.
    std::vector<const DeltaLogEntry*> deltas;
    bool targeted = db.DeltasSince(caches_minor_, &deltas);
    if (targeted) {
      for (const DeltaLogEntry* delta : deltas) {
        if (delta->compacted) {
          targeted = false;
          break;
        }
      }
    }
    if (targeted) {
      InvalidateForDeltas(deltas);
    } else {
      cache_index_.clear();
      cache_lru_.clear();
    }
    caches_minor_ = minor;
  }
  const auto it = cache_index_.find(key);
  if (it != cache_index_.end()) {
    if (it->second->plan == plan) {
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
      return it->second->caches;
    }
    // Same shape, re-resolved plan (statistics drifted past the plan
    // cache's bound): the old tables belong to the old plan's NodeId
    // keyspace and must not be probed under the new one.
    cache_lru_.erase(it->second);
    cache_index_.erase(it);
  }
  auto caches = std::make_shared<ShapeCaches>(
      static_cast<int>(plan->cacheable.size()), cache_,
      std::max(stripes_hint_, 1), options_.hot_stripe_reads);
  std::vector<std::string> signatures =
      options_.cross_shape_seed ? SubtreeSignatures(*plan, q.atoms())
                                : std::vector<std::string>();
  cache_lru_.push_front(
      CacheEntry{key, plan, q.atoms(), caches, std::move(signatures)});
  cache_index_[key] = cache_lru_.begin();
  if (options_.cross_shape_seed) {
    SeedFromResidentShapes(cache_lru_.front(), stats);
  }
  while (options_.max_shape_caches > 0 &&
         cache_lru_.size() > options_.max_shape_caches) {
    cache_index_.erase(cache_lru_.back().key);
    cache_lru_.pop_back();
  }
  return caches;
}

}  // namespace clftj
