#include "lftj/trie_join.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace clftj {

std::vector<int> TrieJoinSubstrate::CheckOrder(const Query& q) const {
  CLFTJ_CHECK_MSG(q.AllVarsCovered(), "query has an atom-free variable");
  CLFTJ_CHECK(static_cast<int>(order_.size()) == q.num_vars());
  std::vector<int> var_rank(q.num_vars(), kNone);
  for (int d = 0; d < static_cast<int>(order_.size()); ++d) {
    CLFTJ_CHECK(order_[d] >= 0 && order_[d] < q.num_vars());
    CLFTJ_CHECK_MSG(var_rank[order_[d]] == kNone,
                    "variable order is not a permutation");
    var_rank[order_[d]] = d;
  }
  return var_rank;
}

void TrieJoinSubstrate::IndexDepths(const std::vector<int>& var_rank) {
  atoms_at_depth_.resize(order_.size());
  for (std::size_t a = 0; a < views_.size(); ++a) {
    for (const VarId v : views_[a].level_vars) {
      atoms_at_depth_[var_rank[v]].push_back(static_cast<int>(a));
    }
  }
  for (std::size_t d = 0; d < order_.size(); ++d) {
    CLFTJ_CHECK_MSG(!atoms_at_depth_[d].empty(),
                    "no atom constrains a variable at this depth");
  }
}

TrieJoinSubstrate::TrieJoinSubstrate(const Query& q, const Database& db,
                                     const std::vector<VarId>& order)
    : order_(order) {
  const std::vector<int> var_rank = CheckOrder(q);
  views_ = BuildAtomViews(q, db, var_rank, &has_empty_atom_);
  IndexDepths(var_rank);
}

TrieJoinSubstrate::TrieJoinSubstrate(const Query& q,
                                     const std::vector<VarId>& order,
                                     std::vector<AtomView> views)
    : order_(order), views_(std::move(views)) {
  const std::vector<int> var_rank = CheckOrder(q);
  CLFTJ_CHECK(views_.size() == static_cast<std::size_t>(q.num_atoms()));
  for (const AtomView& view : views_) {
    CLFTJ_CHECK(view.trie != nullptr);
    if (!view.non_empty) has_empty_atom_ = true;
  }
  IndexDepths(var_rank);
}

TrieJoinContext::TrieJoinContext(const TrieJoinSubstrate& substrate,
                                 ExecStats* stats)
    : substrate_(&substrate) {
  Attach(stats);
}

TrieJoinContext::TrieJoinContext(const Query& q, const Database& db,
                                 const std::vector<VarId>& order,
                                 ExecStats* stats)
    : owned_(std::make_unique<TrieJoinSubstrate>(q, db, order)),
      substrate_(owned_.get()) {
  Attach(stats);
}

void TrieJoinContext::Attach(ExecStats* stats) {
  const std::vector<AtomView>& views = substrate_->views();
  iters_.reserve(views.size());  // joins_ hold pointers into iters_
  for (const AtomView& view : views) {
    iters_.emplace_back(view.trie.get(), stats);
  }
  const std::size_t depths = substrate_->order().size();
  joins_.reserve(depths);
  for (std::size_t d = 0; d < depths; ++d) {
    std::vector<TrieIterator*> participants;
    for (const int a : substrate_->atoms_at_depth()[d]) {
      participants.push_back(&iters_[a]);
    }
    joins_.emplace_back(std::move(participants));
  }
}

namespace {

// Shared recursive driver for count and evaluation. Emit is called with the
// full assignment when depth n is reached; it returns false to abort.
class LftjRun {
 public:
  LftjRun(TrieJoinContext* ctx, DeadlineChecker* deadline)
      : ctx_(ctx), deadline_(deadline) {}

  // Returns false if the deadline expired.
  template <typename Emit>
  bool Join(int d, Tuple* assignment, const Emit& emit) {
    if (d == ctx_->num_vars()) {
      emit(*assignment);
      return true;
    }
    LeapfrogJoin* join = ctx_->EnterDepth(d);
    bool ok = true;
    while (!join->AtEnd()) {
      if (deadline_->Expired()) {
        ok = false;
        break;
      }
      (*assignment)[ctx_->VarAtDepth(d)] = join->Key();
      if (!Join(d + 1, assignment, emit)) {
        ok = false;
        break;
      }
      join->Next();
    }
    (*assignment)[ctx_->VarAtDepth(d)] = kNullValue;
    ctx_->LeaveDepth(d);
    return ok;
  }

 private:
  TrieJoinContext* ctx_;
  DeadlineChecker* deadline_;
};

std::vector<VarId> ResolveOrder(const Query& q,
                                const std::vector<VarId>& requested) {
  if (!requested.empty()) return requested;
  std::vector<VarId> order(q.num_vars());
  std::iota(order.begin(), order.end(), 0);
  return order;
}

}  // namespace

RunResult LeapfrogTrieJoin::Count(const Query& q, const Database& db,
                                  const RunLimits& limits) {
  RunResult result;
  Timer timer;
  TrieJoinContext ctx(q, db, ResolveOrder(q, options_.order), &result.stats);
  if (!ctx.HasEmptyAtom()) {
    DeadlineChecker deadline(limits.timeout_seconds, limits.cancel);
    LftjRun run(&ctx, &deadline);
    Tuple assignment(q.num_vars(), kNullValue);
    std::uint64_t count = 0;
    const bool ok =
        run.Join(0, &assignment, [&count](const Tuple&) { ++count; });
    result.count = count;
    result.status =
        MergeRunStatus(!ok, /*any_out_of_memory=*/false, limits.cancel);
  }
  result.stats.output_tuples = result.count;
  result.seconds = timer.Seconds();
  return result;
}

RunResult LeapfrogTrieJoin::Evaluate(const Query& q, const Database& db,
                                     const TupleCallback& cb,
                                     const RunLimits& limits) {
  RunResult result;
  Timer timer;
  TrieJoinContext ctx(q, db, ResolveOrder(q, options_.order), &result.stats);
  if (!ctx.HasEmptyAtom()) {
    DeadlineChecker deadline(limits.timeout_seconds, limits.cancel);
    LftjRun run(&ctx, &deadline);
    Tuple assignment(q.num_vars(), kNullValue);
    std::uint64_t count = 0;
    ExecStats* stats = &result.stats;
    const bool ok = run.Join(0, &assignment,
                             [&count, &cb, stats](const Tuple& t) {
                               ++count;
                               // Materializing one output row.
                               stats->memory_accesses += t.size();
                               cb(t);
                             });
    result.count = count;
    result.status =
        MergeRunStatus(!ok, /*any_out_of_memory=*/false, limits.cancel);
  }
  result.stats.output_tuples = result.count;
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace clftj
