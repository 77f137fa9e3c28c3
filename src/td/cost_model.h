#ifndef CLFTJ_TD_COST_MODEL_H_
#define CLFTJ_TD_COST_MODEL_H_

#include <vector>

#include "data/database.h"
#include "query/query.h"
#include "td/tree_decomposition.h"

namespace clftj {

/// Heuristic cost of a TD as a caching scheme (Section 4.3); lower is
/// better. Wide bags are exponentially bad (a bag is solved with a WCOJ
/// whose cost grows with bag width, and a singleton decomposition disables
/// caching entirely), small adhesions are good (low-dimension cache keys
/// hit more often), shallow trees are good: Σ 3^|bag| over all bags, plus
/// the squared adhesion cardinality of every non-root bag, plus 0.5 per
/// level of tree depth. Splitting into more, narrower bags lowers the
/// dominant exponential term, which is exactly the paper's "many bags are
/// better" preference. `q` is used to detect "Cartesian" bags — bags
/// containing variables that no atom inside the bag constrains;
/// enumerating such a bag degenerates to a cross product, so each
/// uncovered variable multiplies the bag's exponential term.
double StructuralTdCost(const Query& q, const TreeDecomposition& td);

/// Cache-aware cost of a full CLFTJ plan: models that each TD node's
/// subtree is computed once per *distinct* adhesion assignment (later
/// occurrences hit the cache). The number of distinct assignments is
/// estimated per adhesion variable with the collision-based "effective
/// distinct count" (Σf)²/Σf² of its column histogram, which shrinks under
/// skew — this is what makes the planner prefer caching on skewed
/// attributes (the paper's Section 4.3 discussion and Figure 13). Lower is
/// better.
double CachedPlanCost(const Query& q, const Database& db,
                      const TreeDecomposition& td,
                      const std::vector<VarId>& order);

/// Cardinality-based cost of a variable elimination order in the style of
/// Chu, Balazinska and Suciu (SIGMOD'15): estimates the number of partial
/// assignments the trie join materializes at each depth,
///
///   N_0 = 1,  N_d = N_{d-1} * min over atoms A containing x_d of the
///   average trie branching factor of A at x_d's level,
///
/// and returns sum_d N_d. Branching factors come from the actual per-atom
/// trie level cardinalities under this order, so the estimate reflects the
/// data, not just the query shape. A plain atom's cardinalities are read
/// from Relation::PrefixDistinct, so costing builds no trie for it. Lower
/// is better.
double ChuOrderCost(const Query& q, const Database& db,
                    const std::vector<VarId>& order);

}  // namespace clftj

#endif  // CLFTJ_TD_COST_MODEL_H_
