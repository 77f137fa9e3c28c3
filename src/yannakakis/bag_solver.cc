#include "yannakakis/bag_solver.h"

#include <algorithm>
#include <string>

#include "lftj/trie_join.h"
#include "util/check.h"

namespace clftj {

BagRelation SolveBag(const Query& q, const Database& db,
                     const std::vector<VarId>& bag_vars, ExecStats* stats,
                     const RunLimits& limits) {
  BagRelation out;
  out.columns = bag_vars;
  CLFTJ_CHECK(std::is_sorted(bag_vars.begin(), bag_vars.end()));

  // Local query over reindexed variables 0..|bag|-1.
  std::vector<int> local_of(q.num_vars(), kNone);
  Query local;
  for (std::size_t i = 0; i < bag_vars.size(); ++i) {
    local_of[bag_vars[i]] = static_cast<int>(i);
    local.AddVariable(q.var_name(bag_vars[i]));
  }
  Database local_db;
  std::vector<bool> covered(bag_vars.size(), false);
  for (const Atom& atom : q.atoms()) {
    const std::vector<VarId> vars = atom.Vars();
    const bool contained =
        std::all_of(vars.begin(), vars.end(),
                    [&local_of](VarId x) { return local_of[x] != kNone; });
    if (!contained) continue;
    Atom remapped;
    remapped.relation = atom.relation;
    for (const Term& t : atom.terms) {
      remapped.terms.push_back(
          t.is_variable ? Term::Var(local_of[t.var]) : t);
    }
    local.AddAtom(std::move(remapped));
    if (!local_db.Contains(atom.relation)) {
      local_db.Put(db.Get(atom.relation));
    }
    for (const VarId x : vars) covered[local_of[x]] = true;
  }
  // Domain views for uncovered bag variables: project the first position of
  // the variable in some covering atom. Sound (a superset constraint) and
  // finite.
  for (std::size_t i = 0; i < bag_vars.size(); ++i) {
    if (covered[i]) continue;
    const VarId x = bag_vars[i];
    bool made = false;
    for (const Atom& atom : q.atoms()) {
      for (std::size_t p = 0; p < atom.terms.size() && !made; ++p) {
        if (!atom.terms[p].is_variable || atom.terms[p].var != x) continue;
        const Relation& rel = db.Get(atom.relation);
        const std::string dom_name = "__dom_" + q.var_name(x);
        // One contiguous column copy; Put() normalizes it into a set.
        const ColumnSpan col = rel.Column(static_cast<int>(p));
        Relation dom = Relation::FromColumns(
            dom_name, {std::vector<Value>(col.begin(), col.end())});
        local_db.Put(std::move(dom));
        Atom dom_atom;
        dom_atom.relation = dom_name;
        dom_atom.terms = {Term::Var(static_cast<VarId>(i))};
        local.AddAtom(std::move(dom_atom));
        made = true;
      }
      if (made) break;
    }
    CLFTJ_CHECK_MSG(made, "bag variable not covered by any atom");
  }

  LeapfrogTrieJoin lftj;
  const RunResult r = lftj.Evaluate(
      local, local_db,
      [&out](const Tuple& t) { out.rows.push_back(t); }, limits);
  out.timed_out = r.status == RunStatus::kTimeout;
  stats->Merge(r.stats);
  stats->intermediate_tuples += out.rows.size();
  return out;
}

}  // namespace clftj
