#ifndef CLFTJ_CLFTJ_PLAN_H_
#define CLFTJ_CLFTJ_PLAN_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "clftj/cache.h"
#include "data/database.h"
#include "query/query.h"
#include "td/planner.h"
#include "util/check.h"
#include "util/common.h"
#include "util/packed_key.h"

namespace clftj {

/// Precomputed per-value admission filter for the support-threshold policy
/// (line 21 of Figure 2). Instead of probing a per-variable hash map of
/// occurrence counts on every cache insert, CachedPlan::Build folds the
/// threshold into a per-variable membership structure over the *admissible*
/// values: a dense bitmap over the value range when the range is compact
/// (graph node ids usually are), or a sorted array fallback when it is not.
/// Admission then costs O(1) bit tests per key on the hot path.
class AdmissionFilter {
 public:
  /// True when every key is admissible (kAll policy, or threshold 0 — any
  /// value has support >= 0).
  bool admit_all() const { return admit_all_; }

  /// True iff value `v` of variable `x` may appear in a cached key.
  bool Admits(VarId x, Value v) const {
    if (admit_all_) return true;
    const VarFilter& f = vars_[x];
    if (!f.sorted.empty()) {
      return std::binary_search(f.sorted.begin(), f.sorted.end(), v);
    }
    if (v < f.base) return false;
    // Unsigned subtraction: v - base can overflow Value for extreme spans.
    const std::uint64_t idx =
        static_cast<std::uint64_t>(v) - static_cast<std::uint64_t>(f.base);
    if (idx >= 64 * f.bits.size()) return false;
    return (f.bits[idx >> 6] >> (idx & 63)) & 1;
  }

  /// Builds the filter from per-variable admissible value lists (values
  /// with support >= threshold). Pass admit_all = true to disable
  /// filtering entirely.
  static AdmissionFilter Build(std::vector<std::vector<Value>> admissible,
                               bool admit_all);

 private:
  struct VarFilter {
    Value base = 0;
    std::vector<std::uint64_t> bits;  // dense bitmap over [base, base+64*n)
    std::vector<Value> sorted;        // fallback when the range is sparse
  };
  std::vector<VarFilter> vars_;
  bool admit_all_ = true;
};

/// The fully precomputed execution plan of CLFTJ: a TdPlan (ordered TD +
/// strongly compatible variable order) lowered to depth-indexed arrays so
/// the inner join loop does no tree walking. Built once per run.
///
/// Depth d refers to position d of the variable order; by strong
/// compatibility the depths owned by any TD node form one contiguous
/// interval and the depths of a node's whole subtree likewise.
struct CachedPlan {
  TdPlan base;
  std::vector<VarId> order;          // = base.order
  std::vector<int> var_rank;         // inverse of order

  NodeId root = kNone;
  std::vector<NodeId> owner_of_depth;        // per depth
  std::vector<int> first_depth;              // per node: first owned depth
  std::vector<int> last_depth;               // per node: last owned depth
  std::vector<int> subtree_last_depth;       // per node
  std::vector<std::vector<NodeId>> children; // per node, TD child order
  std::vector<std::vector<VarId>> adhesion_vars;  // per node, by depth order

  /// cacheable[v]: v is a non-root node whose adhesion fits the cache
  /// dimension bound, with caching enabled.
  std::vector<bool> cacheable;
  /// maintain[v]: intermediate results must be collected at v (v or an
  /// ancestor is cacheable); downward closed. Evaluation mode only builds
  /// factorized sets under maintained nodes, preserving LFTJ's footprint
  /// everywhere else (Section 3.4). Invariant: cacheable[v] implies
  /// maintain[v] — EvalRun's cache insert lives on the maintain path and
  /// relies on it.
  std::vector<bool> maintain;

  /// O(1)-per-value admission test, populated from the support statistics
  /// when the admission policy needs it (admit-all otherwise).
  AdmissionFilter admission;

  /// True if a hit at `node` can skip anything (its subtree owns depths).
  bool HasSubtree(NodeId node) const {
    return subtree_last_depth[node] >= first_depth[node];
  }

  /// Packs the adhesion assignment µ|α of `node` from the global partial
  /// assignment (indexed by VarId). Only cacheable nodes are keyed, and
  /// their adhesions fit PackedKey (max_dimension <= kInlineDims).
  PackedKey AdhesionKey(NodeId node, const Tuple& assignment) const {
    const std::vector<VarId>& vars = adhesion_vars[node];
    const int n = static_cast<int>(vars.size());
    CLFTJ_DCHECK(n <= PackedKey::kInlineDims);
    Value values[PackedKey::kInlineDims] = {0, 0};
    for (int i = 0; i < n; ++i) {
      CLFTJ_DCHECK(assignment[vars[i]] != kNullValue);
      values[i] = assignment[vars[i]];
    }
    return PackedKey::Pack(values, n);
  }

  /// The admission decision of line 21 of Figure 2 for node `node` and its
  /// packed adhesion key: every key value must be admissible.
  bool AdmitsKey(NodeId node, PackedKey key) const {
    if (admission.admit_all()) return true;
    const std::vector<VarId>& vars = adhesion_vars[node];
    for (std::uint32_t i = 0; i < key.dims; ++i) {
      if (!admission.Admits(vars[i], key.At(static_cast<int>(i)))) {
        return false;
      }
    }
    return true;
  }

  /// Lowers a TdPlan. Aborts if the order is not strongly compatible, some
  /// node owns no variable (run EliminateRedundantBags first), subtree
  /// depth intervals are not contiguous, or cache_options.max_dimension is
  /// outside 0..PackedKey::kInlineDims.
  static CachedPlan Build(const Query& q, const Database& db, TdPlan base,
                          const CacheOptions& cache_options);

  /// Resolves the plan for one run: `explicit_plan` when present, otherwise
  /// the planner's choice, lowered via Build. Shared by the single-thread
  /// and sharded engines so both execute the identical plan — a
  /// precondition for the sharded executor's bit-identical-results
  /// guarantee. The returned plan is immutable in execution and safe for
  /// concurrent shared reads (AdhesionKey/AdmitsKey are const).
  static CachedPlan Resolve(const Query& q, const Database& db,
                            const std::optional<TdPlan>& explicit_plan,
                            const PlannerOptions& planner,
                            const CacheOptions& cache_options);
};

}  // namespace clftj

#endif  // CLFTJ_CLFTJ_PLAN_H_
