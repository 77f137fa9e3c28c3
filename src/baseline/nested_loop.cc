#include "baseline/nested_loop.h"

#include "util/check.h"

namespace clftj {

namespace {

class Run {
 public:
  Run(const Query& q, const Database& db, const RunLimits& limits,
      ExecStats* stats)
      : q_(q),
        deadline_(limits.timeout_seconds, limits.cancel),
        stats_(stats) {
    // Per-atom column spans, resolved once: the scan loop walks contiguous
    // columns instead of re-fetching the relation per recursion level.
    atom_cols_.resize(q.num_atoms());
    for (int a = 0; a < q.num_atoms(); ++a) {
      const Atom& atom = q.atom(a);
      const Relation& rel = db.Get(atom.relation);
      CLFTJ_CHECK(static_cast<int>(atom.terms.size()) == rel.arity());
      for (int p = 0; p < rel.arity(); ++p) {
        atom_cols_[a].push_back(rel.Column(p));
      }
    }
  }

  template <typename Emit>
  bool Go(const Emit& emit) {
    Tuple assignment(q_.num_vars(), kNullValue);
    return Rec(0, &assignment, emit);
  }

  bool timed_out() const { return timed_out_; }

 private:
  template <typename Emit>
  bool Rec(int atom_index, Tuple* assignment, const Emit& emit) {
    if (atom_index == q_.num_atoms()) {
      emit(*assignment);
      return true;
    }
    const Atom& atom = q_.atom(atom_index);
    const std::vector<ColumnSpan>& cols = atom_cols_[atom_index];
    // arity >= 1 is a Relation invariant, so the row count is the first
    // span's size.
    for (std::size_t i = 0; i < cols.front().size(); ++i) {
      if (deadline_.Expired()) {
        timed_out_ = true;
        return false;
      }
      stats_->memory_accesses += atom.terms.size();
      // Check consistency and collect the variables this tuple binds.
      bool ok = true;
      std::vector<VarId> bound;
      for (std::size_t p = 0; p < atom.terms.size() && ok; ++p) {
        const Value value = cols[p][i];
        const Term& t = atom.terms[p];
        if (!t.is_variable) {
          ok = value == t.constant;
        } else if ((*assignment)[t.var] == kNullValue) {
          (*assignment)[t.var] = value;
          bound.push_back(t.var);
        } else {
          ok = (*assignment)[t.var] == value;
        }
      }
      if (ok && !Rec(atom_index + 1, assignment, emit)) {
        for (const VarId x : bound) (*assignment)[x] = kNullValue;
        return false;
      }
      for (const VarId x : bound) (*assignment)[x] = kNullValue;
    }
    return true;
  }

  const Query& q_;
  std::vector<std::vector<ColumnSpan>> atom_cols_;  // per atom, per position
  DeadlineChecker deadline_;
  ExecStats* stats_;
  bool timed_out_ = false;
};

}  // namespace

RunResult NestedLoopJoin::Count(const Query& q, const Database& db,
                                const RunLimits& limits) {
  RunResult result;
  Timer timer;
  CLFTJ_CHECK(q.AllVarsCovered());
  Run run(q, db, limits, &result.stats);
  std::uint64_t count = 0;
  run.Go([&count](const Tuple&) { ++count; });
  result.count = count;
  result.status = MergeRunStatus(
      run.timed_out(), /*any_out_of_memory=*/false, limits.cancel);
  result.stats.output_tuples = result.count;
  result.seconds = timer.Seconds();
  return result;
}

RunResult NestedLoopJoin::Evaluate(const Query& q, const Database& db,
                                   const TupleCallback& cb,
                                   const RunLimits& limits) {
  RunResult result;
  Timer timer;
  CLFTJ_CHECK(q.AllVarsCovered());
  Run run(q, db, limits, &result.stats);
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
