#include "baseline/generic_join.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <unordered_map>

#include "trie/trie.h"
#include "util/check.h"
#include "util/hash.h"

namespace clftj {

namespace {

// Hash index of one atom under a variable order: for each level l (the
// atom's l-th variable in global order), a map from the length-l prefix to
// the sorted distinct values extending it.
struct AtomIndex {
  std::vector<VarId> level_vars;
  std::vector<std::unordered_map<Tuple, std::vector<Value>, TupleHash>> maps;
  bool non_empty = false;
};

AtomIndex BuildIndex(const Database& db, const Atom& atom,
                     const std::vector<int>& var_rank) {
  // The filtered/projected tuples come out of BuildAtomView, which streams
  // the relation's columns; this walk only re-shapes the sorted trie into
  // per-prefix hash buckets.
  const AtomView view = BuildAtomView(db.Get(atom.relation), atom, var_rank);
  AtomIndex index;
  index.level_vars = view.level_vars;
  index.non_empty = view.non_empty;
  const Trie& trie = *view.trie;
  index.maps.resize(trie.depth());
  Tuple prefix;
  const std::function<void(int, std::size_t, std::size_t)> walk =
      [&](int level, std::size_t begin, std::size_t end) {
        auto& values = index.maps[level][prefix];
        for (std::size_t i = begin; i < end; ++i) {
          const Value v = trie.values(level)[i];
          values.push_back(v);  // trie order is sorted already
          if (level + 1 < trie.depth()) {
            prefix.push_back(v);
            walk(level + 1, trie.starts(level)[i], trie.starts(level)[i + 1]);
            prefix.pop_back();
          }
        }
      };
  if (trie.depth() > 0) walk(0, 0, trie.values(0).size());
  return index;
}

class Run {
 public:
  Run(const Query& q, const Database& db, const std::vector<VarId>& order,
      const RunLimits& limits, ExecStats* stats)
      : order_(order),
        deadline_(limits.timeout_seconds, limits.cancel),
        stats_(stats) {
    CLFTJ_CHECK(q.AllVarsCovered());
    var_rank_.assign(q.num_vars(), kNone);
    for (int d = 0; d < static_cast<int>(order.size()); ++d) {
      var_rank_[order[d]] = d;
    }
    for (const Atom& atom : q.atoms()) {
      indexes_.push_back(BuildIndex(db, atom, var_rank_));
      if (!indexes_.back().non_empty) empty_ = true;
    }
    // Participants per depth: (atom, level) pairs.
    at_depth_.resize(order.size());
    for (std::size_t a = 0; a < indexes_.size(); ++a) {
      for (std::size_t l = 0; l < indexes_[a].level_vars.size(); ++l) {
        at_depth_[var_rank_[indexes_[a].level_vars[l]]].push_back(
            {static_cast<int>(a), static_cast<int>(l)});
      }
    }
    prefixes_.resize(indexes_.size());
  }

  template <typename Emit>
  bool Go(const Emit& emit) {
    if (empty_) return true;
    Tuple assignment(var_rank_.size(), kNullValue);
    return Rec(0, &assignment, emit);
  }

  bool timed_out() const { return timed_out_; }

 private:
  template <typename Emit>
  bool Rec(int d, Tuple* assignment, const Emit& emit) {
    if (d == static_cast<int>(order_.size())) {
      emit(*assignment);
      return true;
    }
    // Pick the participating atom with the fewest extensions.
    const std::vector<Value>* candidates = nullptr;
    for (const auto& [a, l] : at_depth_[d]) {
      stats_->memory_accesses += 1;
      const auto it = indexes_[a].maps[l].find(prefixes_[a]);
      const std::vector<Value>* values =
          it == indexes_[a].maps[l].end() ? nullptr : &it->second;
      if (values == nullptr) return true;  // no extension: dead branch
      if (candidates == nullptr || values->size() < candidates->size()) {
        candidates = values;
      }
    }
    CLFTJ_CHECK(candidates != nullptr);
    for (const Value v : *candidates) {
      if (deadline_.Expired()) {
        timed_out_ = true;
        return false;
      }
      // Verify v against all other participants via hash membership.
      bool ok = true;
      for (const auto& [a, l] : at_depth_[d]) {
        stats_->memory_accesses += 1;
        const auto it = indexes_[a].maps[l].find(prefixes_[a]);
        if (it == indexes_[a].maps[l].end() ||
            !std::binary_search(it->second.begin(), it->second.end(), v)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      (*assignment)[order_[d]] = v;
      for (const auto& [a, l] : at_depth_[d]) prefixes_[a].push_back(v);
      const bool keep_going = Rec(d + 1, assignment, emit);
      for (const auto& [a, l] : at_depth_[d]) prefixes_[a].pop_back();
      (*assignment)[order_[d]] = kNullValue;
      if (!keep_going) return false;
    }
    return true;
  }

  std::vector<VarId> order_;
  std::vector<int> var_rank_;
  std::vector<AtomIndex> indexes_;
  std::vector<std::vector<std::pair<int, int>>> at_depth_;
  std::vector<Tuple> prefixes_;  // per atom: values of its bound variables
  DeadlineChecker deadline_;
  ExecStats* stats_;
  bool empty_ = false;
  bool timed_out_ = false;
};

std::vector<VarId> ResolveOrder(const Query& q,
                                const std::vector<VarId>& requested) {
  if (!requested.empty()) return requested;
  std::vector<VarId> order(q.num_vars());
  std::iota(order.begin(), order.end(), 0);
  return order;
}

}  // namespace

RunResult GenericJoin::Count(const Query& q, const Database& db,
                             const RunLimits& limits) {
  RunResult result;
  Timer timer;
  Run run(q, db, ResolveOrder(q, options_.order), limits, &result.stats);
  std::uint64_t count = 0;
  run.Go([&count](const Tuple&) { ++count; });
  result.count = count;
  result.status = MergeRunStatus(
      run.timed_out(), /*any_out_of_memory=*/false, limits.cancel);
  result.stats.output_tuples = result.count;
  result.seconds = timer.Seconds();
  return result;
}

RunResult GenericJoin::Evaluate(const Query& q, const Database& db,
                                const TupleCallback& cb,
                                const RunLimits& limits) {
  RunResult result;
  Timer timer;
  Run run(q, db, ResolveOrder(q, options_.order), limits, &result.stats);
  std::uint64_t count = 0;
  run.Go([&count, &cb](const Tuple& t) {
    ++count;
    cb(t);
  });
  result.count = count;
  result.status = MergeRunStatus(
      run.timed_out(), /*any_out_of_memory=*/false, limits.cancel);
  result.stats.output_tuples = result.count;
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace clftj
