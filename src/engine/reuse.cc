#include "engine/reuse.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "query/shape.h"
#include "util/check.h"
#include "util/timer.h"

namespace clftj {

namespace {

// True iff `atom` has a variable at one of node n's subtree depths: the
// atoms whose tuples the entries cached at n read.
bool Participates(const CachedPlan& plan, NodeId n, const Atom& atom) {
  for (const Term& term : atom.terms) {
    if (!term.is_variable) continue;
    const int rank = plan.var_rank[term.var];
    if (rank >= plan.first_depth[n] && rank <= plan.subtree_last_depth[n]) {
      return true;
    }
  }
  return false;
}

// Each referenced relation's current visible cardinality, in first-mention
// atom order (deterministic; duplicates skipped).
std::vector<std::pair<std::string, std::size_t>> RelationSizes(
    const Query& q, const Database& db) {
  std::vector<std::pair<std::string, std::size_t>> sizes;
  for (const Atom& atom : q.atoms()) {
    bool seen = false;
    for (const auto& [name, n] : sizes) {
      if (name == atom.relation) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    const Relation* rel = db.Find(atom.relation);
    sizes.emplace_back(atom.relation, rel != nullptr ? rel->size() : 0);
  }
  return sizes;
}

// True iff some relation's cardinality moved beyond 2x of the baseline the
// plan was resolved against, or crossed zero — the point where cost-based
// choices (TD selection, variable order) could plausibly flip.
bool StatsDrifted(const std::vector<std::pair<std::string, std::size_t>>& base,
                  const Database& db) {
  for (const auto& [name, n0] : base) {
    const Relation* rel = db.Find(name);
    const std::size_t n1 = rel != nullptr ? rel->size() : 0;
    if ((n0 == 0) != (n1 == 0)) return true;
    if (n1 > 2 * n0 || 2 * n1 < n0) return true;
  }
  return false;
}

// Canonical *subjoin signatures* for cross-shape cache seeding (see
// docs/serving.md "Batch admission"). For each cacheable node n of `plan`,
// the signature renders the subjoin that node's cache entries summarize —
// the atoms touching the subtree's owned depths, with adhesion variables
// numbered by their AdhesionKey packing position (`a0`, `a1`, ...), owned
// variables by first occurrence across the participating atoms in textual
// order (`v0`, `v1`, ...), and constants verbatim (`=c`). Two nodes with
// equal signatures cache, for every adhesion key, the count of the *same*
// subjoin — so count-mode entries are interchangeable between shapes even
// when the surrounding queries differ (a 2-path's deep node seeds a
// 3-path's; a 4-cycle's seeds a 5-cycle's).
//
// Entries are "" (never matchable) for non-cacheable nodes and for nodes
// whose participating atoms reach variables that are neither owned by the
// subtree nor in the adhesion — such a subjoin depends on context the
// signature cannot canonicalize. Eval-mode payloads are plan-structured
// (factorized sets reference sibling nodes) and must never be seeded
// across plans; this signature deliberately describes only the count
// semantics.
std::vector<std::string> SubtreeSignatures(const CachedPlan& plan,
                                           const std::vector<Atom>& atoms) {
  const int num_nodes = static_cast<int>(plan.cacheable.size());
  std::vector<std::string> out(num_nodes);
  for (NodeId n = 0; n < num_nodes; ++n) {
    if (!plan.cacheable[n] || !plan.HasSubtree(n)) continue;
    const int lo = plan.first_depth[n];
    const int hi = plan.subtree_last_depth[n];
    const std::vector<VarId>& adhesion = plan.adhesion_vars[n];
    const auto owned = [&](VarId x) {
      const int r = plan.var_rank[x];
      return r >= lo && r <= hi;
    };
    const auto adhesion_index = [&](VarId x) {
      for (std::size_t i = 0; i < adhesion.size(); ++i) {
        if (adhesion[i] == x) return static_cast<int>(i);
      }
      return kNone;
    };
    // Canonical owned-variable numbering: first occurrence scanning the
    // participating atoms in textual order (the same scheme
    // CanonicalShapeKey uses for whole queries).
    std::vector<int> owned_number(plan.var_rank.size(), kNone);
    int next_owned = 0;
    std::string sig;
    bool matchable = true;
    for (const Atom& atom : atoms) {
      if (!Participates(plan, n, atom)) continue;
      sig += atom.relation;
      sig += '(';
      bool first = true;
      for (const Term& t : atom.terms) {
        if (!first) sig += ',';
        first = false;
        if (!t.is_variable) {
          sig += '=';
          sig += std::to_string(t.constant);
          continue;
        }
        if (owned(t.var)) {
          if (owned_number[t.var] == kNone) owned_number[t.var] = next_owned++;
          sig += 'v';
          sig += std::to_string(owned_number[t.var]);
          continue;
        }
        const int ai = adhesion_index(t.var);
        if (ai == kNone) {
          // The subjoin depends on a bound variable that is not part of
          // the adhesion key: its cached counts are conditioned on context
          // the signature cannot name. Never matchable.
          matchable = false;
          break;
        }
        sig += 'a';
        sig += std::to_string(ai);
      }
      if (!matchable) break;
      sig += ");";
    }
    // Pin the adhesion arity: a bag may carry an adhesion variable that
    // appears in no participating atom, and keys of different dims must
    // never match positionally.
    sig += '#';
    sig += std::to_string(adhesion.size());
    if (matchable) out[n] = std::move(sig);
  }
  return out;
}

// The key of an atom's view in the shared trie map. A view's trie depends
// on the relation's rows (pinned by the store's data versions, which
// SyncVersions keeps current), which term positions carry which constants,
// the repeated-variable equality pattern, and the level -> term-position
// mapping — not on the query's variable *identities*. The key encodes
// exactly that: variables as indices into the atom's distinct-variable
// list (first-occurrence order), levels as those indices in trie-level
// order.
std::string ViewKey(const Atom& atom, const std::vector<VarId>& level_vars) {
  const std::vector<VarId> distinct = atom.Vars();
  const auto local_index = [&distinct](VarId v) {
    const auto it = std::find(distinct.begin(), distinct.end(), v);
    CLFTJ_CHECK(it != distinct.end());
    return std::to_string(it - distinct.begin());
  };
  std::string key = atom.relation;
  key += '|';
  for (const Term& term : atom.terms) {
    if (term.is_variable) {
      key += 'v';
      key += local_index(term.var);
    } else {
      key += 'c';
      key += std::to_string(term.constant);
    }
    key += '.';
  }
  key += '|';
  for (const VarId v : level_vars) {
    key += local_index(v);
    key += '.';
  }
  return key;
}

// One participating atom's per-atom test at one TD node: for each adhesion
// dimension the atom binds, the sorted distinct values the changed tuples
// carry at that variable's term position. A key passes when every
// dimension holds one of them; a filter with no dimensions passes every
// key.
struct AtomFilter {
  std::vector<int> dims;                   // adhesion indices the atom binds
  std::vector<std::vector<Value>> values;  // one sorted set per entry of dims
};

// A variable order for `join` that starts at atom `seed`'s variables and
// then grows along shared atoms, so each later variable is reached from the
// changed tuples instead of enumerated on its own.
std::vector<VarId> SeedOrder(const Query& join, AtomId seed) {
  std::vector<VarId> order = join.atom(seed).Vars();
  std::vector<bool> placed(join.num_vars(), false);
  for (const VarId v : order) placed[v] = true;
  const std::vector<std::vector<VarId>> graph = join.GaifmanGraph();
  while (static_cast<int>(order.size()) < join.num_vars()) {
    VarId next = kNone;
    for (VarId v = 0; v < join.num_vars() && next == kNone; ++v) {
      if (placed[v]) continue;
      for (const VarId u : graph[v]) {
        if (placed[u]) next = v;
      }
    }
    // A part of the join no variable placed so far reaches.
    for (VarId v = 0; next == kNone; ++v) {
      if (!placed[v]) next = v;
    }
    placed[next] = true;
    order.push_back(next);
  }
  return order;
}

// Enumerates the substrate's join depth by depth, calling emit(assignment)
// (indexed by VarId) on every full assignment; stops and returns false as
// soon as emit does.
template <typename Emit>
bool Enumerate(TrieJoinContext& ctx, int d, Tuple* assignment,
               const Emit& emit) {
  if (d == ctx.num_vars()) return emit(*assignment);
  LeapfrogJoin* join = ctx.EnterDepth(d);
  bool ok = true;
  for (; ok && !join->AtEnd(); join->Next()) {
    (*assignment)[ctx.VarAtDepth(d)] = join->Key();
    ok = Enumerate(ctx, d + 1, assignment, emit);
  }
  ctx.LeaveDepth(d);
  return ok;
}

// The data of one invalidation sweep (docs/incremental.md, "Targeted cache
// invalidation"). For each relation the pending deltas changed, it keeps
// the changed tuples — every tuple whose presence differs between the data
// the tables were filled from and the data now is among them — and, built
// on first use, the relation now together with them, which holds both
// versions. The atom views the exact rule's joins read are built on first
// use too, and shared by every shape and node of the sweep.
class DeltaSweep {
 public:
  DeltaSweep(const Database& db,
             const std::vector<const DeltaLogEntry*>& deltas)
      : db_(db) {
    std::unordered_map<std::string, std::vector<Tuple>> tuples;
    for (const DeltaLogEntry* delta : deltas) {
      std::vector<Tuple>& into = tuples[delta->relation];
      into.insert(into.end(), delta->changed.begin(), delta->changed.end());
    }
    for (auto& [name, changed] : tuples) {
      if (changed.empty()) continue;  // only no-op batches
      Relation rel(name, static_cast<int>(changed.front().size()));
      rel.ApplyDelta(changed, {});
      changed_.emplace(name, std::move(rel));
    }
  }

  bool empty() const { return changed_.empty(); }

  // The per-atom test at node n: one filter per participating atom over a
  // changed relation (none: the node keeps every entry).
  std::vector<AtomFilter> PerAtomFilters(const CachedPlan& plan,
                                         const std::vector<Atom>& atoms,
                                         NodeId n) const {
    std::vector<AtomFilter> filters;
    const std::vector<VarId>& avars = plan.adhesion_vars[n];
    for (const Atom& atom : atoms) {
      const auto changed = changed_.find(atom.relation);
      if (changed == changed_.end() || !Participates(plan, n, atom)) continue;
      AtomFilter filter;
      for (std::size_t i = 0; i < avars.size(); ++i) {
        for (std::size_t p = 0; p < atom.terms.size(); ++p) {
          if (!atom.terms[p].is_variable || atom.terms[p].var != avars[i]) {
            continue;
          }
          const ColumnSpan column = changed->second.Column(static_cast<int>(p));
          std::vector<Value> values(column.begin(), column.end());
          std::sort(values.begin(), values.end());
          values.erase(std::unique(values.begin(), values.end()), values.end());
          filter.dims.push_back(static_cast<int>(i));
          filter.values.push_back(std::move(values));
          break;
        }
      }
      filters.push_back(std::move(filter));
    }
    return filters;
  }

  // The exact rule at node n: appends to *keys, once per assignment, every
  // adhesion key of n that an assignment of n's subtree join reaches while
  // it reads a changed tuple at one participating atom and, at every
  // other, a tuple of the data now or a changed one. Returns false when
  // these joins produce more than `limit` assignments, or when no
  // participating atom binds some adhesion variable (every value of it is
  // then reached); the caller then takes the per-atom test.
  bool ReachableKeys(const CachedPlan& plan, const std::vector<Atom>& atoms,
                     NodeId n, std::uint64_t limit,
                     std::vector<PackedKey>* keys) {
    // The participating atoms, their variables renumbered 0..k-1 by first
    // occurrence.
    Query join;
    std::vector<VarId> local(plan.var_rank.size(), kNone);
    for (const Atom& atom : atoms) {
      if (!Participates(plan, n, atom)) continue;
      Atom renumbered = atom;
      for (Term& term : renumbered.terms) {
        if (!term.is_variable) continue;
        if (local[term.var] == kNone) {
          local[term.var] =
              join.AddVariable("v" + std::to_string(join.num_vars()));
        }
        term.var = local[term.var];
      }
      join.AddAtom(std::move(renumbered));
    }
    bool touched = false;
    for (const Atom& atom : join.atoms()) {
      touched = touched || changed_.count(atom.relation) > 0;
    }
    if (!touched) return true;
    const std::vector<VarId>& adhesion = plan.adhesion_vars[n];
    for (const VarId x : adhesion) {
      if (local[x] == kNone) return false;
    }
    const int dims = static_cast<int>(adhesion.size());
    std::uint64_t assignments = 0;
    for (AtomId seed = 0; seed < join.num_atoms(); ++seed) {
      if (changed_.count(join.atom(seed).relation) == 0) continue;
      const std::vector<VarId> order = SeedOrder(join, seed);
      std::vector<int> var_rank(order.size());
      for (int d = 0; d < static_cast<int>(order.size()); ++d) {
        var_rank[order[d]] = d;
      }
      std::vector<AtomView> views;
      for (AtomId a = 0; a < join.num_atoms(); ++a) {
        views.push_back(View(join.atom(a), var_rank, a == seed));
      }
      const TrieJoinSubstrate substrate(join, order, std::move(views));
      if (substrate.HasEmptyAtom()) continue;
      ExecStats uncharged;  // maintenance, like EvictIf: no run pays for it
      TrieJoinContext ctx(substrate, &uncharged);
      Tuple assignment(join.num_vars(), kNullValue);
      const bool within =
          Enumerate(ctx, 0, &assignment, [&](const Tuple& t) {
            if (++assignments > limit) return false;
            Value values[PackedKey::kInlineDims] = {0, 0};
            for (int i = 0; i < dims; ++i) values[i] = t[local[adhesion[i]]];
            keys->push_back(PackedKey::Pack(values, dims));
            return true;
          });
      if (!within) return false;
    }
    return true;
  }

 private:
  // The view of `atom` for `var_rank` over the changed tuples alone, or
  // over the data now together with them. Atoms that project a relation
  // the same way share one trie, as in the store's views_.
  AtomView View(const Atom& atom, const std::vector<int>& var_rank,
                bool changed_only) {
    AtomView view;
    view.level_vars = LevelVarsFor(atom, var_rank);
    std::string key = changed_only ? "changed|" : "both|";
    key += ViewKey(atom, view.level_vars);
    auto it = tries_.find(key);
    if (it == tries_.end()) {
      it = tries_.emplace(std::move(key),
                          BuildAtomView(Source(atom.relation, changed_only),
                                        atom, var_rank)
                              .trie)
               .first;
    }
    view.trie = it->second;
    view.non_empty = view.trie->num_tuples() > 0;
    return view;
  }

  const Relation& Source(const std::string& relation, bool changed_only) {
    const auto changed = changed_.find(relation);
    if (changed == changed_.end()) return db_.Get(relation);
    if (changed_only) return changed->second;
    auto it = both_.find(relation);
    if (it == both_.end()) {
      Relation both = db_.Get(relation);
      std::vector<Tuple> tuples;
      for (std::size_t i = 0; i < changed->second.size(); ++i) {
        tuples.push_back(changed->second.TupleAt(i));
      }
      both.ApplyDelta(tuples, {});  // one merge pass, no sort
      it = both_.emplace(relation, std::move(both)).first;
    }
    return it->second;
  }

  const Database& db_;
  std::unordered_map<std::string, Relation> changed_;  // sorted, distinct
  std::unordered_map<std::string, Relation> both_;
  std::unordered_map<std::string, std::shared_ptr<const Trie>> tries_;
};


}  // namespace

CrossQueryReuse::CrossQueryReuse(const ReuseOptions& options,
                                 PlannerOptions planner, CacheOptions cache,
                                 int stripes_hint)
    : options_(options),
      planner_(planner),
      cache_(cache),
      stripes_hint_(std::max(stripes_hint, 0)) {}

CrossQueryReuse::Prepared CrossQueryReuse::Prepare(const Query& q,
                                                   const Database& db,
                                                   ExecStats* stats) {
  Prepared out;
  if (!options_.enabled) return out;
  const std::string key = CanonicalShapeKey(q);
  std::unique_lock<std::mutex> lock(mu_);
  SyncVersions(db);
  auto it = index_.find(key);
  if (it != index_.end() && !StatsDrifted(it->second->sizes, db)) {
    if (stats != nullptr) ++stats->plan_cache_hits;
  } else {
    // A cold shape, or statistics drifted past the plan's baseline:
    // resolve outside the lock, since planning can be expensive and must
    // not serialize unrelated shapes behind one mutex.
    lock.unlock();
    Timer timer;
    auto plan = std::make_shared<const CachedPlan>(
        CachedPlan::Resolve(q, db, std::nullopt, planner_, cache_));
    if (stats != nullptr) {
      ++stats->plan_cache_misses;
      stats->plan_resolve_ns +=
          static_cast<std::uint64_t>(timer.Seconds() * 1e9);
    }
    std::vector<std::pair<std::string, std::size_t>> sizes =
        RelationSizes(q, db);
    lock.lock();
    it = index_.find(key);
    if (it == index_.end()) {
      shapes_.push_front(Shape{key, std::move(plan), std::move(sizes),
                               q.atoms(), {}, {}, {}});
      it = index_.emplace(key, shapes_.begin()).first;
    } else if (StatsDrifted(it->second->sizes, db)) {
      // The resident plan is the stale one we bypassed. Its tables belong
      // to the old plan's NodeId keyspace and must not be probed under the
      // new one, and its substrate to the old plan's order, so they go
      // with it.
      Shape& stale = *it->second;
      stale.plan = std::move(plan);
      stale.sizes = std::move(sizes);
      stale.caches = nullptr;
      stale.substrate = nullptr;
    }
    // Otherwise a racing request installed a current plan first: adopt it,
    // so every caller shares one instance.
  }
  shapes_.splice(shapes_.begin(), shapes_, it->second);
  Shape& shape = shapes_.front();
  if (shape.caches == nullptr) {
    shape.caches = std::make_shared<ShapeCaches>(
        cache_, std::max(stripes_hint_, 1), options_.hot_stripe_reads);
    if (options_.cross_shape_seed) {
      shape.signatures = SubtreeSignatures(*shape.plan, shape.atoms);
      SeedFromResidentShapes(shape, stats);
    }
  }
  out.plan = shape.plan;
  out.caches = shape.caches;
  out.substrate = shape.substrate;
  // Only the max_shape_caches most recent shapes keep tables. Moving one
  // shape to the front pushes at most one other past that boundary.
  if (options_.max_shape_caches > 0 &&
      shapes_.size() > options_.max_shape_caches) {
    std::next(shapes_.begin(), options_.max_shape_caches)->caches = nullptr;
  }
  while (options_.plan_cache_capacity > 0 &&
         shapes_.size() > options_.plan_cache_capacity) {
    index_.erase(shapes_.back().key);
    shapes_.pop_back();
  }
  if (out.substrate != nullptr) {
    if (stats != nullptr) stats->substrate_reuses += q.num_atoms();
    return out;
  }
  out.substrate = AssembleSubstrate(q, db, out.plan->order, stats, lock);
  // Keep it for the shape's next request, unless the shape was evicted or
  // re-planned while the lock was released.
  it = index_.find(key);
  if (it != index_.end() && it->second->plan == out.plan) {
    it->second->substrate = out.substrate;
  }
  return out;
}

std::shared_ptr<const TrieJoinSubstrate> CrossQueryReuse::AssembleSubstrate(
    const Query& q, const Database& db, const std::vector<VarId>& order,
    ExecStats* stats, std::unique_lock<std::mutex>& lock) {
  std::vector<int> var_rank(q.num_vars(), kNone);
  for (int d = 0; d < static_cast<int>(order.size()); ++d) {
    var_rank[order[d]] = d;
  }
  std::vector<AtomView> views;
  views.reserve(q.num_atoms());
  for (const Atom& atom : q.atoms()) {
    AtomView view;
    view.level_vars = LevelVarsFor(atom, var_rank);
    const std::string key = ViewKey(atom, view.level_vars);
    const auto it = views_.find(key);
    if (it != views_.end()) {
      view.trie = it->second.trie;
      view.non_empty = view.trie->num_tuples() > 0;
      if (stats != nullptr) ++stats->substrate_reuses;
    } else {
      // Cold view: build outside the lock (can be seconds of work and may
      // throw), publish under it. Views published before a later atom's
      // build fails stay cached — a retried request only redoes the
      // failed build.
      const Relation& rel = db.Get(atom.relation);
      lock.unlock();
      Timer timer;
      view = BuildAtomView(rel, atom, var_rank);
      if (stats != nullptr) {
        ++stats->substrate_builds;
        stats->substrate_build_ns +=
            static_cast<std::uint64_t>(timer.Seconds() * 1e9);
      }
      lock.lock();
      // A request that raced on the same view published first: adopt its
      // trie, so concurrent queries converge on one instance and the
      // duplicate is freed.
      view.trie = views_.try_emplace(key, View{atom.relation,
                                               rel.compactions(), view.trie})
                      .first->second.trie;
    }
    views.push_back(std::move(view));
  }
  return std::make_shared<const TrieJoinSubstrate>(q, order, std::move(views));
}

std::size_t CrossQueryReuse::NumShapes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shapes_.size();
}

void CrossQueryReuse::SyncVersions(const Database& db) {
  const std::uint64_t generation = db.generation();
  const std::uint64_t minor = db.minor_version();
  if (generation_ != generation) {
    // Bulk data change: every plan, trie and table is stale. Outstanding
    // shared_ptrs keep in-flight requests' plans, tries and tables alive.
    index_.clear();
    shapes_.clear();
    views_.clear();
  } else if (minor_ != minor) {
    // Delta-only change. A view cut at an older version of its relation
    // can never be hit again, so it goes, and every substrate is
    // reassembled on its shape's next request: one build per changed
    // view, shared by every shape. Plans revalidate against drift when
    // next hit, and the tables lose just the entries the deltas can touch
    // — or all of them when the delta log no longer reaches back to our
    // sync point.
    for (auto it = views_.begin(); it != views_.end();) {
      const Relation* rel = db.Find(it->second.relation);
      if (rel == nullptr || rel->compactions() != it->second.version) {
        it = views_.erase(it);
      } else {
        ++it;
      }
    }
    std::vector<const DeltaLogEntry*> deltas;
    const bool logged = db.DeltasSince(minor_, &deltas);
    for (Shape& shape : shapes_) {
      shape.substrate = nullptr;
      if (!logged) shape.caches = nullptr;
    }
    if (logged) InvalidateForDeltas(db, deltas);
  }
  generation_ = generation;
  minor_ = minor;
}

void CrossQueryReuse::InvalidateForDeltas(
    const Database& db, const std::vector<const DeltaLogEntry*>& deltas) {
  DeltaSweep sweep(db, deltas);
  if (sweep.empty()) return;
  for (Shape& shape : shapes_) {
    if (shape.caches == nullptr) continue;
    const CachedPlan& plan = *shape.plan;
    // A node whose joins outgrow the tables costs the sweep no more than
    // the per-atom test's one pass over them.
    const std::uint64_t limit =
        shape.caches->count.size() + shape.caches->eval.size();
    std::vector<std::vector<AtomFilter>> fallback(plan.cacheable.size());
    bool any_fallback = false;
    for (NodeId n = 0; n < static_cast<NodeId>(plan.cacheable.size()); ++n) {
      if (!plan.cacheable[n]) continue;  // no entries exist at n
      std::vector<PackedKey> keys;
      if (sweep.ReachableKeys(plan, shape.atoms, n, limit, &keys)) {
        shape.caches->count.Erase(n, keys);
        shape.caches->eval.Erase(n, keys);
      } else {
        fallback[n] = sweep.PerAtomFilters(plan, shape.atoms, n);
        any_fallback = true;
      }
    }
    if (!any_fallback) continue;
    // One pass per table for every node that fell back.
    const auto pred = [&fallback](NodeId node, const Value* values,
                                  int dims) {
      for (const AtomFilter& filter : fallback[node]) {
        bool passes = true;
        for (std::size_t d = 0; d < filter.dims.size() && passes; ++d) {
          // A key narrower than the adhesion cannot be checked: evict.
          passes = filter.dims[d] >= dims ||
                   std::binary_search(filter.values[d].begin(),
                                      filter.values[d].end(),
                                      values[filter.dims[d]]);
        }
        if (passes) return true;
      }
      return false;
    };
    shape.caches->count.EvictIf(pred);
    shape.caches->eval.EvictIf(pred);
  }
}

void CrossQueryReuse::SeedFromResidentShapes(Shape& target,
                                             ExecStats* stats) {
  // For each matchable node of the cold shape, scan the resident shapes
  // MRU-first and copy count entries from the first node whose subjoin
  // signature matches. Equal signatures mean both nodes cache, per adhesion
  // key, the count of the same subjoin over the same data — the payloads
  // are interchangeable (SubtreeSignatures). Only count mode: eval payloads
  // are factorized sets structured by their own plan. Admission policies
  // may differ between plans, but admission only gates *inserts*; a seeded
  // entry the target would not have admitted is still a correct value, and
  // targeted invalidation evaluates entries against the target plan's own
  // rules, so delta soundness is unaffected.
  std::uint64_t seeded = 0;
  for (NodeId n = 0; n < static_cast<NodeId>(target.signatures.size()); ++n) {
    const std::string& sig = target.signatures[n];
    if (sig.empty()) continue;
    for (Shape& source : shapes_) {
      if (&source == &target || source.caches == nullptr) continue;
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

}  // namespace clftj
