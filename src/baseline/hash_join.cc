#include "baseline/hash_join.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "trie/trie.h"
#include "util/check.h"
#include "util/hash.h"

namespace clftj {

namespace {

// One materialized intermediate: rows over `columns` (VarIds in first-bound
// order).
struct Intermediate {
  std::vector<VarId> columns;
  std::vector<Tuple> rows;
};

// The atom's filtered/projected tuples and its distinct variables (in
// first-occurrence order). Reuses the trie builder's filtering by asking
// for the natural order.
struct AtomTable {
  std::vector<VarId> vars;
  std::vector<Tuple> rows;
};

AtomTable MaterializeAtom(const Query& q, const Database& db,
                          const Atom& atom) {
  std::vector<int> var_rank(q.num_vars());
  for (int i = 0; i < q.num_vars(); ++i) var_rank[i] = i;
  const AtomView view =
      BuildAtomView(db.Get(atom.relation), atom, var_rank);
  AtomTable table;
  table.vars = view.level_vars;
  Tuple row(view.level_vars.size());
  // Walk the trie back into flat rows. The filtering/projection above it
  // streams the relation's columns (BuildAtomView), so this walk is the
  // only row materialization the baseline pays.
  const Trie& trie = *view.trie;
  if (trie.depth() == 0) return table;
  table.rows.reserve(trie.num_tuples());
  const std::function<void(int, std::size_t, std::size_t)> walk =
      [&](int level, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          row[level] = trie.values(level)[i];
          if (level + 1 == trie.depth()) {
            table.rows.push_back(row);
          } else {
            walk(level + 1, trie.starts(level)[i], trie.starts(level)[i + 1]);
          }
        }
      };
  walk(0, 0, trie.values(0).size());
  return table;
}

// Greedy left-deep ordering: start from the smallest atom table; repeatedly
// append the atom sharing the most variables with the bound set (ties:
// smaller table). Disconnected queries fall back to cross products.
std::vector<int> PlanOrder(const Query& q,
                           const std::vector<AtomTable>& tables) {
  const int m = q.num_atoms();
  std::vector<bool> used(m, false);
  std::vector<bool> bound(q.num_vars(), false);
  std::vector<int> order;
  for (int step = 0; step < m; ++step) {
    int best = -1;
    int best_shared = -1;
    for (int i = 0; i < m; ++i) {
      if (used[i]) continue;
      int shared = 0;
      for (const VarId x : tables[i].vars) shared += bound[x] ? 1 : 0;
      if (step == 0) shared = 0;  // first pick purely by size
      if (best == -1 || shared > best_shared ||
          (shared == best_shared &&
           tables[i].rows.size() < tables[best].rows.size())) {
        best = i;
        best_shared = shared;
      }
    }
    used[best] = true;
    order.push_back(best);
    for (const VarId x : tables[best].vars) bound[x] = true;
  }
  return order;
}

// Joins `left` with one atom table by hashing the atom on the shared
// variables and probing with the intermediate rows.
bool JoinStep(Intermediate* left, const AtomTable& atom, ExecStats* stats,
              DeadlineChecker* deadline, std::uint64_t max_rows,
              bool* out_of_memory) {
  std::vector<int> shared_left;   // positions in left->columns
  std::vector<int> shared_right;  // positions in atom.vars
  std::vector<int> extra_right;   // atom positions adding new columns
  for (std::size_t i = 0; i < atom.vars.size(); ++i) {
    const auto it =
        std::find(left->columns.begin(), left->columns.end(), atom.vars[i]);
    if (it == left->columns.end()) {
      extra_right.push_back(static_cast<int>(i));
    } else {
      shared_left.push_back(static_cast<int>(it - left->columns.begin()));
      shared_right.push_back(static_cast<int>(i));
    }
  }
  std::unordered_map<Tuple, std::vector<int>, TupleHash> index;
  for (int r = 0; r < static_cast<int>(atom.rows.size()); ++r) {
    Tuple key;
    for (const int p : shared_right) key.push_back(atom.rows[r][p]);
    index[key].push_back(r);
    stats->memory_accesses += 1 + key.size();
  }
  Intermediate next;
  next.columns = left->columns;
  for (const int p : extra_right) next.columns.push_back(atom.vars[p]);
  for (const Tuple& row : left->rows) {
    if (deadline->Expired()) return false;
    Tuple key;
    for (const int p : shared_left) key.push_back(row[p]);
    stats->memory_accesses += 1 + key.size();
    const auto hit = index.find(key);
    if (hit == index.end()) continue;
    for (const int r : hit->second) {
      Tuple combined = row;
      for (const int p : extra_right) combined.push_back(atom.rows[r][p]);
      stats->memory_accesses += combined.size();
      ++stats->intermediate_tuples;
      next.rows.push_back(std::move(combined));
      if (max_rows > 0 && stats->intermediate_tuples > max_rows) {
        *out_of_memory = true;
        return false;
      }
    }
  }
  *left = std::move(next);
  return true;
}

RunResult RunPairwise(const Query& q, const Database& db,
                      const RunLimits& limits, const TupleCallback* cb) {
  RunResult result;
  Timer timer;
  CLFTJ_CHECK(q.AllVarsCovered());
  DeadlineChecker deadline(limits.timeout_seconds, limits.cancel);

  std::vector<AtomTable> tables;
  tables.reserve(q.num_atoms());
  for (const Atom& atom : q.atoms()) {
    tables.push_back(MaterializeAtom(q, db, atom));
  }
  const std::vector<int> order = PlanOrder(q, tables);

  Intermediate acc;
  acc.columns = tables[order[0]].vars;
  acc.rows = tables[order[0]].rows;
  bool alive = true;
  bool out_of_memory = false;
  for (std::size_t step = 1; step < order.size() && alive; ++step) {
    alive = JoinStep(&acc, tables[order[step]], &result.stats, &deadline,
                     limits.max_intermediate_tuples, &out_of_memory);
  }
  result.status =
      MergeRunStatus(!alive && !out_of_memory, out_of_memory, limits.cancel);
  if (alive) {
    result.count = acc.rows.size();
    if (cb != nullptr) {
      Tuple assignment(q.num_vars(), kNullValue);
      for (const Tuple& row : acc.rows) {
        for (std::size_t i = 0; i < acc.columns.size(); ++i) {
          assignment[acc.columns[i]] = row[i];
        }
        (*cb)(assignment);
      }
    }
  }
  result.stats.output_tuples = result.count;
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace

RunResult PairwiseHashJoin::Count(const Query& q, const Database& db,
                                  const RunLimits& limits) {
  return RunPairwise(q, db, limits, nullptr);
}

RunResult PairwiseHashJoin::Evaluate(const Query& q, const Database& db,
                                     const TupleCallback& cb,
                                     const RunLimits& limits) {
  return RunPairwise(q, db, limits, &cb);
}

}  // namespace clftj
