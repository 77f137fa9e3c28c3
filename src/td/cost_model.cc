#include "td/cost_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "trie/trie.h"
#include "util/check.h"

namespace clftj {

namespace {

// The weights of StructuralTdCost's three terms.
constexpr double kBagExpBase = 3.0;      // Σ base^|bag| over all bags
constexpr double kAdhesionWeight = 1.0;  // per squared adhesion cardinality
constexpr double kDepthWeight = 0.5;     // penalty per level of tree depth

}  // namespace

double StructuralTdCost(const Query& q, const TreeDecomposition& td) {
  double cost = 0.0;
  for (NodeId v = 0; v < td.num_nodes(); ++v) {
    const std::vector<VarId>& bag = td.bag(v);
    // A bag variable constrained by no atom within the bag is enumerated
    // as a cross product over its whole active domain; treat each such
    // variable as doubling the bag's effective width.
    int uncovered = 0;
    for (const VarId x : bag) {
      bool covered = false;
      for (const Atom& atom : q.atoms()) {
        std::vector<VarId> vars = atom.Vars();
        std::sort(vars.begin(), vars.end());
        const bool contained =
            std::includes(bag.begin(), bag.end(), vars.begin(), vars.end());
        if (contained &&
            std::find(vars.begin(), vars.end(), x) != vars.end()) {
          covered = true;
          break;
        }
      }
      if (!covered) ++uncovered;
    }
    const double width = std::min(
        30.0, static_cast<double>(bag.size() + uncovered));
    cost += std::pow(kBagExpBase, width);
    if (v != td.root()) {
      const double a = static_cast<double>(td.Adhesion(v).size());
      cost += kAdhesionWeight * a * a;
    }
  }
  cost += kDepthWeight * static_cast<double>(td.Depth());
  return cost;
}

namespace {

// Variable ranks of an order: var_rank[order[d]] = d.
std::vector<int> RanksOf(const Query& q, const std::vector<VarId>& order) {
  CLFTJ_CHECK(static_cast<int>(order.size()) == q.num_vars());
  std::vector<int> var_rank(q.num_vars(), kNone);
  for (int d = 0; d < static_cast<int>(order.size()); ++d) {
    var_rank[order[d]] = d;
  }
  return var_rank;
}

// Per-atom trie level statistics under an order (shared by the two
// data-aware cost models).
struct AtomLevelStats {
  std::vector<VarId> level_vars;
  std::vector<double> level_counts;  // distinct prefixes per level
};

// Collects every atom's level statistics; returns false if some view is
// empty (the join is empty, any order is free). A plain atom keeps every
// row of its relation, so its level sizes are the relation's memoized
// PrefixDistinct under the atom's column order and no trie is built. An
// atom with constants or repeated variables filters its relation first;
// it builds its (small) view, which a relation-level memo keyed on the
// constants could not bound.
bool CollectAtomStats(const Query& q, const Database& db,
                      const std::vector<int>& var_rank,
                      std::vector<AtomLevelStats>* stats) {
  for (const Atom& atom : q.atoms()) {
    const Relation& rel = db.Get(atom.relation);
    AtomLevelStats s;
    if (atom.IsPlain()) {
      // Trie levels are the atom's variables in rank order; each level
      // reads the column where its variable sits.
      std::vector<int> cols(atom.terms.size());
      std::iota(cols.begin(), cols.end(), 0);
      std::sort(cols.begin(), cols.end(), [&](int a, int b) {
        return var_rank[atom.terms[a].var] < var_rank[atom.terms[b].var];
      });
      const std::vector<std::size_t>& counts = rel.PrefixDistinct(cols);
      if (counts.back() == 0) return false;
      for (const int col : cols) s.level_vars.push_back(atom.terms[col].var);
      s.level_counts.assign(counts.begin(), counts.end());
    } else {
      const AtomView view = BuildAtomView(rel, atom, var_rank);
      if (view.trie->depth() == 0 || view.trie->num_tuples() == 0) {
        return false;
      }
      s.level_vars = view.level_vars;
      for (int l = 0; l < view.trie->depth(); ++l) {
        s.level_counts.push_back(
            static_cast<double>(view.trie->values(l).size()));
      }
    }
    stats->push_back(std::move(s));
  }
  return true;
}

// Minimum branching factor of any atom at the depth of variable x.
double MinBranch(const std::vector<AtomLevelStats>& stats, VarId x) {
  double best = -1.0;
  for (const AtomLevelStats& s : stats) {
    for (std::size_t l = 0; l < s.level_vars.size(); ++l) {
      if (s.level_vars[l] != x) continue;
      const double denom = l == 0 ? 1.0 : s.level_counts[l - 1];
      const double branch = s.level_counts[l] / std::max(1.0, denom);
      best = best < 0.0 ? branch : std::min(best, branch);
    }
  }
  CLFTJ_CHECK_MSG(best >= 0.0, "variable not covered by any atom");
  return best;
}

// Collision-based effective distinct count of variable x's values: the
// minimum over the base columns where x occurs of (Σf)² / Σf². Equals the
// true distinct count for uniform data and shrinks sharply under skew —
// skewed adhesion values recur, so fewer distinct cache keys are seen.
// The per-column value is Relation's memoized ColumnStats, so the planner
// can re-ask for every candidate TD and order without re-scanning data.
double EffectiveDistinct(const Query& q, const Database& db, VarId x) {
  double best = -1.0;
  for (const Atom& atom : q.atoms()) {
    for (std::size_t pos = 0; pos < atom.terms.size(); ++pos) {
      if (!atom.terms[pos].is_variable || atom.terms[pos].var != x) continue;
      const double eff =
          db.Get(atom.relation).Stats(static_cast<int>(pos)).effective_distinct;
      best = best < 0.0 ? eff : std::min(best, eff);
    }
  }
  return best < 0.0 ? 1.0 : std::max(1.0, best);
}

}  // namespace

double ChuOrderCost(const Query& q, const Database& db,
                    const std::vector<VarId>& order) {
  std::vector<AtomLevelStats> stats;
  if (!CollectAtomStats(q, db, RanksOf(q, order), &stats)) return 0.0;
  double cost = 0.0;
  double prefix_count = 1.0;
  for (const VarId x : order) {
    prefix_count *= MinBranch(stats, x);
    cost += prefix_count;
  }
  return cost;
}

double CachedPlanCost(const Query& q, const Database& db,
                      const TreeDecomposition& td,
                      const std::vector<VarId>& order) {
  std::vector<AtomLevelStats> stats;
  if (!CollectAtomStats(q, db, RanksOf(q, order), &stats)) return 0.0;

  const std::vector<NodeId> owners = td.Owners(q.num_vars());
  // Owned depths per node, in order.
  std::vector<std::vector<VarId>> owned(td.num_nodes());
  for (const VarId x : order) owned[owners[x]].push_back(x);

  // reach[v]: estimated number of times execution enters v (cache lookups);
  // distinct[v]: estimated distinct adhesion assignments (cache misses, each
  // paying the node's local enumeration).
  double total = 0.0;
  std::vector<double> reach(td.num_nodes(), 1.0);
  std::vector<double> end_count(td.num_nodes(), 1.0);
  for (const NodeId v : td.Preorder()) {
    const NodeId parent = td.parent(v);
    reach[v] = parent == kNone
                   ? 1.0
                   : reach[parent] * end_count[parent];
    double distinct = reach[v];
    if (parent != kNone) {
      double keys = 1.0;
      for (const VarId x : td.Adhesion(v)) {
        keys *= EffectiveDistinct(q, db, x);
      }
      distinct = std::min(distinct, keys);
    }
    // Local enumeration cost per distinct adhesion assignment.
    double n = 1.0;
    double local_work = 0.0;
    for (const VarId x : owned[v]) {
      n *= MinBranch(stats, x);
      local_work += n;
    }
    end_count[v] = n;
    total += distinct * local_work + reach[v];  // misses + lookup traffic
  }
  return total;
}

}  // namespace clftj
