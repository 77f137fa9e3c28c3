#include "clftj/plan.h"

#include <algorithm>
#include <unordered_map>

#include "util/check.h"

namespace clftj {

AdmissionFilter AdmissionFilter::Build(
    std::vector<std::vector<Value>> admissible, bool admit_all) {
  AdmissionFilter filter;
  filter.admit_all_ = admit_all;
  if (admit_all) return filter;
  filter.vars_.resize(admissible.size());
  for (std::size_t x = 0; x < admissible.size(); ++x) {
    std::vector<Value>& values = admissible[x];
    VarFilter& f = filter.vars_[x];
    if (values.empty()) continue;  // nothing admissible: empty dense bitmap
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    const Value lo = values.front();
    const Value hi = values.back();
    // Subtract in unsigned space: hi - lo can overflow Value when the
    // admissible values span more than half the int64 domain.
    const std::uint64_t range = static_cast<std::uint64_t>(hi) -
                                static_cast<std::uint64_t>(lo) + 1;
    // Dense bitmap when the range is compact relative to the population
    // (typical for graph node ids); sorted-array fallback otherwise so a
    // pathological domain cannot blow up plan memory.
    if (range != 0 && range <= 64 * values.size() + 4096) {
      f.base = lo;
      f.bits.assign((range + 63) / 64, 0);
      for (const Value v : values) {
        const std::uint64_t idx =
            static_cast<std::uint64_t>(v) - static_cast<std::uint64_t>(lo);
        f.bits[idx >> 6] |= std::uint64_t{1} << (idx & 63);
      }
    } else {
      f.sorted = std::move(values);
    }
  }
  return filter;
}

CachedPlan CachedPlan::Build(const Query& q, const Database& db, TdPlan base,
                             const CacheOptions& cache_options) {
  CLFTJ_CHECK_MSG(cache_options.max_dimension >= 0 &&
                      cache_options.max_dimension <= PackedKey::kInlineDims,
                  "CacheOptions::max_dimension must be 0-2");
  CachedPlan plan;
  plan.order = base.order;
  const int n = q.num_vars();
  CLFTJ_CHECK(static_cast<int>(plan.order.size()) == n);
  CLFTJ_CHECK_MSG(base.td.IsStronglyCompatibleWith(plan.order),
                  "order is not strongly compatible with the TD");
  plan.var_rank.assign(n, kNone);
  for (int d = 0; d < n; ++d) plan.var_rank[plan.order[d]] = d;

  const TreeDecomposition& td = base.td;
  const int m = td.num_nodes();
  plan.root = td.root();
  const std::vector<NodeId> owners = td.Owners(n);

  plan.owner_of_depth.assign(n, kNone);
  plan.first_depth.assign(m, n);
  plan.last_depth.assign(m, -1);
  for (int d = 0; d < n; ++d) {
    const NodeId v = owners[plan.order[d]];
    CLFTJ_CHECK(v != kNone);
    plan.owner_of_depth[d] = v;
    plan.first_depth[v] = std::min(plan.first_depth[v], d);
    plan.last_depth[v] = std::max(plan.last_depth[v], d);
  }
  for (NodeId v = 0; v < m; ++v) {
    CLFTJ_CHECK_MSG(plan.last_depth[v] >= 0,
                    "a TD node owns no variable; eliminate redundant bags");
    // Owned depths must be contiguous and all belong to v.
    for (int d = plan.first_depth[v]; d <= plan.last_depth[v]; ++d) {
      CLFTJ_CHECK(plan.owner_of_depth[d] == v);
    }
  }

  plan.children.assign(m, {});
  plan.subtree_last_depth.assign(m, -1);
  for (NodeId v = 0; v < m; ++v) plan.children[v] = td.children(v);
  // Subtree intervals: process nodes in reverse preorder so children are
  // done before parents.
  const std::vector<NodeId> pre = td.Preorder();
  for (auto it = pre.rbegin(); it != pre.rend(); ++it) {
    const NodeId v = *it;
    int last = plan.last_depth[v];
    for (const NodeId c : plan.children[v]) {
      last = std::max(last, plan.subtree_last_depth[c]);
    }
    plan.subtree_last_depth[v] = last;
    // Contiguity of the subtree interval (strong compatibility in action):
    // children segments must follow the node's own segment back to back.
    int expected = plan.last_depth[v] + 1;
    for (const NodeId c : plan.children[v]) {
      CLFTJ_CHECK_MSG(plan.first_depth[c] == expected,
                      "subtree depth interval is not contiguous");
      expected = plan.subtree_last_depth[c] + 1;
    }
  }

  plan.adhesion_vars.assign(m, {});
  plan.cacheable.assign(m, false);
  plan.maintain.assign(m, false);
  for (NodeId v = 0; v < m; ++v) {
    std::vector<VarId> adhesion = td.Adhesion(v);
    std::sort(adhesion.begin(), adhesion.end(),
              [&plan](VarId a, VarId b) {
                return plan.var_rank[a] < plan.var_rank[b];
              });
    // All adhesion variables are owned by ancestors, hence assigned before
    // this node is entered.
    for (const VarId x : adhesion) {
      CLFTJ_CHECK(plan.var_rank[x] < plan.first_depth[v]);
    }
    plan.adhesion_vars[v] = std::move(adhesion);
    plan.cacheable[v] =
        cache_options.enabled && v != plan.root &&
        static_cast<int>(plan.adhesion_vars[v].size()) <=
            cache_options.max_dimension;
  }
  for (const NodeId v : pre) {
    const NodeId p = td.parent(v);
    plan.maintain[v] = plan.cacheable[v] || (p != kNone && plan.maintain[p]);
  }
  // Invariant relied upon by EvalRun: the cache insert for a cacheable node
  // sits on the maintain path, so a cacheable node must be maintained.
  for (NodeId v = 0; v < m; ++v) {
    CLFTJ_CHECK(!plan.cacheable[v] || plan.maintain[v]);
  }

  // Support statistics for the threshold admission policy: for each
  // variable, the maximum occurrence count of each value over all columns
  // where the variable appears, folded into an O(1) per-value filter.
  const bool need_support =
      cache_options.enabled &&
      cache_options.admission == CacheOptions::Admission::kSupportThreshold &&
      cache_options.support_threshold > 0;
  if (need_support) {
    std::vector<std::unordered_map<Value, std::uint64_t>> support(n);
    for (const Atom& atom : q.atoms()) {
      const Relation& rel = db.Get(atom.relation);
      for (std::size_t pos = 0; pos < atom.terms.size(); ++pos) {
        if (!atom.terms[pos].is_variable) continue;
        const VarId x = atom.terms[pos].var;
        // Stream the column as one contiguous span; the histogram is the
        // only per-value work left. No reserve: sizing the map from
        // Stats().distinct would force a whole column-stats build, and the
        // row count over-allocates badly on skewed columns.
        std::unordered_map<Value, std::uint64_t> column_counts;
        for (const Value v : rel.Column(static_cast<int>(pos))) {
          ++column_counts[v];
        }
        auto& agg = support[x];
        for (const auto& [value, count] : column_counts) {
          auto [it, inserted] = agg.emplace(value, count);
          if (!inserted) it->second = std::max(it->second, count);
        }
      }
    }
    std::vector<std::vector<Value>> admissible(n);
    for (int x = 0; x < n; ++x) {
      for (const auto& [value, count] : support[x]) {
        if (count >= cache_options.support_threshold) {
          admissible[x].push_back(value);
        }
      }
    }
    plan.admission = AdmissionFilter::Build(std::move(admissible),
                                            /*admit_all=*/false);
  }

  plan.base = std::move(base);
  return plan;
}

CachedPlan CachedPlan::Resolve(const Query& q, const Database& db,
                               const std::optional<TdPlan>& explicit_plan,
                               const PlannerOptions& planner,
                               const CacheOptions& cache_options) {
  TdPlan base =
      explicit_plan.has_value() ? *explicit_plan : PlanQuery(q, db, planner);
  return Build(q, db, std::move(base), cache_options);
}

}  // namespace clftj
