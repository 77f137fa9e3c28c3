#ifndef CLFTJ_TD_PLANNER_H_
#define CLFTJ_TD_PLANNER_H_

#include <vector>

#include "data/database.h"
#include "query/query.h"
#include "td/cost_model.h"
#include "td/decompose.h"
#include "td/tree_decomposition.h"

namespace clftj {

/// A fully resolved caching plan for CLFTJ (and YTD): an ordered TD plus a
/// variable order the TD is strongly compatible with.
struct TdPlan {
  TreeDecomposition td;
  std::vector<VarId> order;
  double structural_cost = 0.0;
  /// Chu et al. order cost (cache-oblivious; reported for analysis).
  double order_cost = 0.0;
  /// Cache-aware plan cost (CachedPlanCost) — the planner's ranking key
  /// within a structural-cost bucket.
  double cached_cost = 0.0;
};

struct PlannerOptions {
  DecomposeOptions decompose;
};

/// Builds a TdPlan from an explicit TD: derives the canonical strongly
/// compatible order and fills in costs. Aborts if the TD is invalid for q.
TdPlan MakePlanFromTd(const Query& q, const Database& db,
                      TreeDecomposition td);

/// Enumerates candidate TDs (Section 4), scores each (structural cost
/// first, Chu order cost as tie-break/secondary), and returns the best
/// plan. Always succeeds: for indecomposable queries (cliques) the plan is
/// the singleton TD, under which CLFTJ degenerates to plain LFTJ.
TdPlan PlanQuery(const Query& q, const Database& db,
                 const PlannerOptions& options = {});

/// All scored candidate plans, best first (for analysis and benches).
std::vector<TdPlan> EnumeratePlans(const Query& q, const Database& db,
                                   const PlannerOptions& options = {});

/// Process-wide number of planner searches (EnumeratePlans invocations)
/// since startup. Observability for the serving loop's plan cache: a warm
/// request must not move this counter — tests pin "0 TD enumerations on a
/// repeat" on its delta.
std::uint64_t PlannerSearchCount();

}  // namespace clftj

#endif  // CLFTJ_TD_PLANNER_H_
