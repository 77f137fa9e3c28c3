#ifndef CLFTJ_YANNAKAKIS_YTD_H_
#define CLFTJ_YANNAKAKIS_YTD_H_

#include <optional>

#include "engine/engine.h"
#include "td/planner.h"

namespace clftj {

/// YTD — Yannakakis's acyclic-join algorithm over a tree decomposition
/// (Gottlob et al.; the DunceCap/EmptyHeaded execution model the paper
/// compares against): each bag's subquery is materialized with a
/// worst-case-optimal join, then the bag relations are combined along the
/// tree. For counting, only adhesion-grouped counts are stored per bag (the
/// paper's optimization); for evaluation, subtree joins are materialized
/// bottom-up after a full semijoin reduction — which is exactly where YTD's
/// memory consumption explodes on large outputs (Figures 8–9).
class YannakakisTd : public JoinEngine {
 public:
  struct Options {
    /// Explicit TD; when absent, PlanQuery chooses one per query.
    std::optional<TreeDecomposition> td;
  };

  YannakakisTd() = default;
  explicit YannakakisTd(Options options) : options_(std::move(options)) {}

  std::string name() const override { return "YTD"; }

  RunResult Count(const Query& q, const Database& db,
                  const RunLimits& limits) override;

  RunResult Evaluate(const Query& q, const Database& db,
                     const TupleCallback& cb, const RunLimits& limits) override;

 private:
  TreeDecomposition ResolveTd(const Query& q, const Database& db) const;

  Options options_;
};

}  // namespace clftj

#endif  // CLFTJ_YANNAKAKIS_YTD_H_
