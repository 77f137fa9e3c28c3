#include "yannakakis/ytd.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/check.h"
#include "util/hash.h"
#include "yannakakis/bag_solver.h"

namespace clftj {

namespace {

// Positions of `key_vars` within `columns` (both sorted VarId lists).
std::vector<int> KeyPositions(const std::vector<VarId>& columns,
                              const std::vector<VarId>& key_vars) {
  std::vector<int> pos;
  pos.reserve(key_vars.size());
  for (const VarId x : key_vars) {
    const auto it = std::find(columns.begin(), columns.end(), x);
    CLFTJ_CHECK(it != columns.end());
    pos.push_back(static_cast<int>(it - columns.begin()));
  }
  return pos;
}

Tuple Project(const Tuple& row, const std::vector<int>& positions) {
  Tuple key;
  key.reserve(positions.size());
  for (const int p : positions) key.push_back(row[p]);
  return key;
}

using KeyCountMap = std::unordered_map<Tuple, std::uint64_t, TupleHash>;
using KeyRowsMap = std::unordered_map<Tuple, std::vector<int>, TupleHash>;

}  // namespace

TreeDecomposition YannakakisTd::ResolveTd(const Query& q,
                                          const Database& db) const {
  if (options_.td.has_value()) return *options_.td;
  return PlanQuery(q, db).td;
}

RunResult YannakakisTd::Count(const Query& q, const Database& db,
                              const RunLimits& limits) {
  RunResult result;
  Timer timer;
  const TreeDecomposition td = ResolveTd(q, db);
  std::string why;
  CLFTJ_CHECK_MSG(td.IsValidFor(q, &why), why.c_str());
  DeadlineChecker deadline(limits.timeout_seconds, limits.cancel);
  bool timed_out = false;
  bool out_of_memory = false;

  // Bottom-up dynamic program: per bag tuple, the number of subtree
  // extensions; children are folded in as adhesion-grouped count maps, so
  // only counts (not intermediate relations) are stored — the paper's
  // count-mode YTD.
  const std::vector<NodeId> preorder = td.Preorder();
  std::vector<KeyCountMap> folded(td.num_nodes());  // adhesion -> sum count
  for (auto it = preorder.rbegin(); it != preorder.rend(); ++it) {
    const NodeId v = *it;
    const BagRelation bag =
        SolveBag(q, db, td.bag(v), &result.stats, limits);
    if (bag.timed_out) {
      timed_out = true;
      break;
    }
    if (limits.max_intermediate_tuples > 0 &&
        result.stats.intermediate_tuples > limits.max_intermediate_tuples) {
      out_of_memory = true;
      break;
    }
    // Child fold maps keyed by the child's adhesion (its intersection with
    // this bag).
    std::vector<std::vector<int>> child_positions;
    for (const NodeId c : td.children(v)) {
      child_positions.push_back(KeyPositions(bag.columns, td.Adhesion(c)));
    }
    const std::vector<int> own_adhesion_positions =
        KeyPositions(bag.columns, td.Adhesion(v));
    KeyCountMap& mine = folded[v];
    for (const Tuple& row : bag.rows) {
      if (deadline.Expired()) {
        timed_out = true;
        break;
      }
      std::uint64_t count = 1;
      std::size_t child_index = 0;
      for (const NodeId c : td.children(v)) {
        result.stats.memory_accesses += 1;
        const auto hit = folded[c].find(Project(row, child_positions[child_index]));
        count = hit == folded[c].end() ? 0 : count * hit->second;
        ++child_index;
        if (count == 0) break;
      }
      if (count == 0) continue;
      result.stats.memory_accesses += 1;
      mine[Project(row, own_adhesion_positions)] += count;
    }
    if (timed_out) break;
    // Child maps are no longer needed.
    for (const NodeId c : td.children(v)) folded[c].clear();
  }
  if (!timed_out && !out_of_memory) {
    // The root's adhesion is empty: a single entry keyed by the empty tuple.
    const auto& root_map = folded[td.root()];
    for (const auto& [key, count] : root_map) result.count += count;
  }
  result.status = MergeRunStatus(timed_out, out_of_memory, limits.cancel);
  result.stats.output_tuples = result.count;
  result.seconds = timer.Seconds();
  return result;
}

RunResult YannakakisTd::Evaluate(const Query& q, const Database& db,
                                 const TupleCallback& cb,
                                 const RunLimits& limits) {
  RunResult result;
  Timer timer;
  const TreeDecomposition td = ResolveTd(q, db);
  std::string why;
  CLFTJ_CHECK_MSG(td.IsValidFor(q, &why), why.c_str());
  DeadlineChecker deadline(limits.timeout_seconds, limits.cancel);
  bool timed_out = false;
  bool out_of_memory = false;

  const auto over_memory = [&result, &limits, &out_of_memory]() {
    if (limits.max_intermediate_tuples > 0 &&
        result.stats.intermediate_tuples > limits.max_intermediate_tuples) {
      out_of_memory = true;
    }
    return out_of_memory;
  };

  // Stage 1: materialize all bag relations.
  const std::vector<NodeId> preorder = td.Preorder();
  std::vector<BagRelation> bags(td.num_nodes());
  for (const NodeId v : preorder) {
    bags[v] = SolveBag(q, db, td.bag(v), &result.stats, limits);
    if (bags[v].timed_out) timed_out = true;
    if (timed_out || over_memory()) break;
  }

  // Stage 2: full reducer. Bottom-up then top-down semijoins on adhesions
  // guarantee no dangling tuples, so stage 3 joins never shrink.
  if (!timed_out && !out_of_memory) {
    const auto semijoin = [&result](BagRelation* target,
                                    const BagRelation& source,
                                    const std::vector<VarId>& on) {
      const std::vector<int> tpos = KeyPositions(target->columns, on);
      const std::vector<int> spos = KeyPositions(source.columns, on);
      std::unordered_set<Tuple, TupleHash> keys;
      for (const Tuple& row : source.rows) {
        keys.insert(Project(row, spos));
        result.stats.memory_accesses += 1;
      }
      std::vector<Tuple> kept;
      for (Tuple& row : target->rows) {
        result.stats.memory_accesses += 1;
        if (keys.count(Project(row, tpos)) > 0) {
          kept.push_back(std::move(row));
        }
      }
      target->rows = std::move(kept);
    };
    for (auto it = preorder.rbegin(); it != preorder.rend(); ++it) {
      const NodeId v = *it;
      for (const NodeId c : td.children(v)) {
        semijoin(&bags[v], bags[c], td.Adhesion(c));
      }
    }
    for (const NodeId v : preorder) {
      for (const NodeId c : td.children(v)) {
        semijoin(&bags[c], bags[v], td.Adhesion(c));
      }
    }
  }

  // Stage 3: bottom-up join, materializing each subtree relation — the
  // memory-hungry part the paper's evaluation figures highlight.
  std::vector<BagRelation> joined(td.num_nodes());
  if (!timed_out && !out_of_memory) {
    for (auto it = preorder.rbegin(); it != preorder.rend(); ++it) {
      const NodeId v = *it;
      BagRelation current = std::move(bags[v]);
      for (const NodeId c : td.children(v)) {
        const std::vector<VarId> on = td.Adhesion(c);
        BagRelation& child = joined[c];
        // Group child rows by adhesion key.
        const std::vector<int> cpos = KeyPositions(child.columns, on);
        KeyRowsMap groups;
        for (int r = 0; r < static_cast<int>(child.rows.size()); ++r) {
          groups[Project(child.rows[r], cpos)].push_back(r);
          result.stats.memory_accesses += 1;
        }
        // Child columns not already present in `current`.
        std::vector<int> extra_positions;
        std::vector<VarId> extra_vars;
        for (std::size_t i = 0; i < child.columns.size(); ++i) {
          if (std::find(current.columns.begin(), current.columns.end(),
                        child.columns[i]) == current.columns.end()) {
            extra_positions.push_back(static_cast<int>(i));
            extra_vars.push_back(child.columns[i]);
          }
        }
        const std::vector<int> my_on = KeyPositions(current.columns, on);
        BagRelation next;
        next.columns = current.columns;
        next.columns.insert(next.columns.end(), extra_vars.begin(),
                            extra_vars.end());
        for (const Tuple& row : current.rows) {
          if (deadline.Expired()) {
            timed_out = true;
            break;
          }
          result.stats.memory_accesses += 1;
          const auto hit = groups.find(Project(row, my_on));
          if (hit == groups.end()) continue;  // cannot happen after reducer
          for (const int r : hit->second) {
            Tuple combined = row;
            for (const int p : extra_positions) {
              combined.push_back(child.rows[r][p]);
            }
            result.stats.memory_accesses += combined.size();
            ++result.stats.intermediate_tuples;
            next.rows.push_back(std::move(combined));
            if (over_memory()) break;
          }
          if (over_memory()) break;
        }
        child.rows.clear();
        current = std::move(next);
        if (timed_out || over_memory()) break;
      }
      joined[v] = std::move(current);
      if (timed_out || over_memory()) break;
    }
  }

  if (!timed_out && !out_of_memory) {
    // Emit root rows re-indexed by VarId. The union of all bags covers all
    // query variables, so the root's joined relation is the full result.
    const BagRelation& root = joined[td.root()];
    CLFTJ_CHECK(static_cast<int>(root.columns.size()) == q.num_vars());
    Tuple assignment(q.num_vars(), kNullValue);
    for (const Tuple& row : root.rows) {
      for (std::size_t i = 0; i < root.columns.size(); ++i) {
        assignment[root.columns[i]] = row[i];
      }
      ++result.count;
      cb(assignment);
    }
  }
  result.status = MergeRunStatus(timed_out, out_of_memory, limits.cancel);
  result.stats.output_tuples = result.count;
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace clftj
