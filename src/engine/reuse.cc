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

// One participating atom's filter at one TD node: for each adhesion
// dimension the atom binds, a Bloom filter over the changed tuples' values
// at that variable's term position. A key passes when every dimension may
// hold one of them; a filter with no dimensions passes every key.
struct AtomFilter {
  std::vector<int> dims;          // adhesion indices the atom binds
  std::vector<ValueBloom> blooms;  // one per entry of dims
};

// Builds the eviction rule of every TD node of `plan` for the changed
// tuples of `deltas`: rules[n] holds one AtomFilter per participating atom
// over a changed relation, and an entry at n is evicted iff its key passes
// some filter (no filters: keep everything). Soundness argument
// (docs/incremental.md): the entry cached at node n under adhesion key k is
// the join of the atoms participating in n's subtree (those with a variable
// at depths [first_depth[n], subtree_last_depth[n]]) with the adhesion
// variables fixed to k. It reads an atom's tuples only where they agree
// with k on the adhesion variables that atom binds, so a changed tuple can
// move the entry only if it agrees with k there — which is what the atom's
// filter tests. An atom that binds no adhesion variable reads its tuples
// under every key, so its filter has no dimensions and evicts all of n.
// Filters for the same atom across several deltas share their Blooms: a
// union of over-approximations still over-approximates.
std::vector<std::vector<AtomFilter>> RulesFor(
    const CachedPlan& plan, const std::vector<Atom>& atoms,
    const std::vector<const DeltaLogEntry*>& deltas) {
  const int num_nodes = static_cast<int>(plan.cacheable.size());
  std::vector<std::vector<AtomFilter>> rules(num_nodes);
  for (const Atom& atom : atoms) {
    std::vector<const Tuple*> changed;
    for (const DeltaLogEntry* delta : deltas) {
      if (delta->relation != atom.relation) continue;
      for (const Tuple& t : delta->changed) changed.push_back(&t);
    }
    if (changed.empty()) continue;
    for (NodeId n = 0; n < num_nodes; ++n) {
      if (!plan.cacheable[n]) continue;  // no entries exist at n
      const int lo = plan.first_depth[n];
      const int hi = plan.subtree_last_depth[n];
      bool participates = false;
      for (const Term& term : atom.terms) {
        if (!term.is_variable) continue;
        const int rank = plan.var_rank[term.var];
        participates = participates || (rank >= lo && rank <= hi);
      }
      if (!participates) continue;
      AtomFilter filter;
      std::vector<int> pos;  // the bound variable's term position per dim
      const std::vector<VarId>& avars = plan.adhesion_vars[n];
      for (std::size_t i = 0; i < avars.size(); ++i) {
        for (std::size_t p = 0; p < atom.terms.size(); ++p) {
          if (atom.terms[p].is_variable && atom.terms[p].var == avars[i]) {
            filter.dims.push_back(static_cast<int>(i));
            pos.push_back(static_cast<int>(p));
            break;
          }
        }
      }
      filter.blooms.resize(pos.size());
      for (const Tuple* t : changed) {
        for (std::size_t d = 0; d < pos.size(); ++d) {
          filter.blooms[d].Insert((*t)[pos[d]]);
        }
      }
      rules[n].push_back(std::move(filter));
    }
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
    const std::vector<std::vector<AtomFilter>> rules =
        RulesFor(*entry.plan, entry.atoms, deltas);
    bool any = false;
    for (const std::vector<AtomFilter>& rule : rules) {
      any = any || !rule.empty();
    }
    if (!any) continue;
    // One sweep per table for all pending deltas.
    const auto pred = [&rules](NodeId node, const Value* values, int dims) {
      for (const AtomFilter& filter : rules[node]) {
        bool passes = true;
        for (std::size_t d = 0; d < filter.dims.size() && passes; ++d) {
          // A key narrower than the adhesion cannot be checked: evict.
          passes = filter.dims[d] >= dims ||
                   filter.blooms[d].MayContain(values[filter.dims[d]]);
        }
        if (passes) return true;
      }
      return false;
    };
    entry.caches->count.EvictIf(pred);
    entry.caches->eval.EvictIf(pred);
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
    // to our sync point.
    std::vector<const DeltaLogEntry*> deltas;
    if (db.DeltasSince(caches_minor_, &deltas)) {
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
      cache_, std::max(stripes_hint_, 1), options_.hot_stripe_reads);
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
