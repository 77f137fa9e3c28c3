#include "td/planner.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "util/check.h"

namespace clftj {

namespace {

std::atomic<std::uint64_t> planner_searches{0};

}  // namespace

std::uint64_t PlannerSearchCount() {
  return planner_searches.load(std::memory_order_relaxed);
}

TdPlan MakePlanFromTd(const Query& q, const Database& db,
                      TreeDecomposition td) {
  std::string why;
  CLFTJ_CHECK_MSG(td.IsValidFor(q, &why), why.c_str());
  TdPlan plan;
  plan.order = StronglyCompatibleOrder(td, q.num_vars());
  plan.structural_cost = StructuralTdCost(q, td);
  plan.order_cost = ChuOrderCost(q, db, plan.order);
  plan.cached_cost = CachedPlanCost(q, db, td, plan.order);
  plan.td = std::move(td);
  CLFTJ_CHECK(plan.td.IsStronglyCompatibleWith(plan.order));
  return plan;
}

std::vector<TdPlan> EnumeratePlans(const Query& q, const Database& db,
                                   const PlannerOptions& options) {
  planner_searches.fetch_add(1, std::memory_order_relaxed);
  std::vector<TdPlan> plans;
  for (TreeDecomposition& td : EnumerateTds(q, options.decompose)) {
    plans.push_back(MakePlanFromTd(q, db, std::move(td)));
  }
  // Structural cost is a heuristic: treat plans within a factor of two as
  // equivalent and let the data-aware order cost decide among them —
  // exactly the role the paper assigns to the Chu et al. model.
  const auto bucket = [](double cost) {
    return static_cast<int>(std::floor(std::log2(std::max(1.0, cost))));
  };
  std::stable_sort(plans.begin(), plans.end(),
                   [&bucket](const TdPlan& a, const TdPlan& b) {
                     const int ba = bucket(a.structural_cost);
                     const int bb = bucket(b.structural_cost);
                     if (ba != bb) return ba < bb;
                     if (a.cached_cost != b.cached_cost) {
                       return a.cached_cost < b.cached_cost;
                     }
                     return a.structural_cost < b.structural_cost;
                   });
  return plans;
}

TdPlan PlanQuery(const Query& q, const Database& db,
                 const PlannerOptions& options) {
  std::vector<TdPlan> plans = EnumeratePlans(q, db, options);
  CLFTJ_CHECK(!plans.empty());
  return std::move(plans.front());
}

}  // namespace clftj
