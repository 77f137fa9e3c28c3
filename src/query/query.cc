#include "query/query.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace clftj {

std::vector<VarId> Atom::Vars() const {
  std::vector<VarId> vars;
  for (const Term& t : terms) {
    if (t.is_variable &&
        std::find(vars.begin(), vars.end(), t.var) == vars.end()) {
      vars.push_back(t.var);
    }
  }
  return vars;
}

bool Atom::IsPlain() const {
  return std::all_of(terms.begin(), terms.end(),
                     [](const Term& t) { return t.is_variable; }) &&
         Vars().size() == terms.size();
}

VarId Query::AddVariable(const std::string& name) {
  const VarId existing = FindVariable(name);
  if (existing != kNone) return existing;
  var_names_.push_back(name);
  return static_cast<VarId>(var_names_.size()) - 1;
}

void Query::AddAtom(Atom atom) {
  for (const Term& t : atom.terms) {
    if (t.is_variable) {
      CLFTJ_CHECK(t.var >= 0 && t.var < num_vars());
    }
  }
  atoms_.push_back(std::move(atom));
}

VarId Query::FindVariable(const std::string& name) const {
  for (VarId v = 0; v < num_vars(); ++v) {
    if (var_names_[v] == name) return v;
  }
  return kNone;
}

std::vector<AtomId> Query::AtomsWithVar(VarId v) const {
  std::vector<AtomId> out;
  for (AtomId i = 0; i < num_atoms(); ++i) {
    const std::vector<VarId> vars = atoms_[i].Vars();
    if (std::find(vars.begin(), vars.end(), v) != vars.end()) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<std::vector<VarId>> Query::GaifmanGraph() const {
  std::vector<std::vector<VarId>> adj(num_vars());
  for (const Atom& atom : atoms_) {
    const std::vector<VarId> vars = atom.Vars();
    for (std::size_t i = 0; i < vars.size(); ++i) {
      for (std::size_t j = i + 1; j < vars.size(); ++j) {
        adj[vars[i]].push_back(vars[j]);
        adj[vars[j]].push_back(vars[i]);
      }
    }
  }
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return adj;
}

bool Query::AllVarsCovered() const {
  std::vector<bool> seen(num_vars(), false);
  for (const Atom& atom : atoms_) {
    for (VarId v : atom.Vars()) seen[v] = true;
  }
  return std::all_of(seen.begin(), seen.end(), [](bool b) { return b; });
}

std::string Query::ToString() const {
  std::ostringstream os;
  for (int i = 0; i < num_atoms(); ++i) {
    if (i > 0) os << ", ";
    os << atoms_[i].relation << "(";
    for (std::size_t j = 0; j < atoms_[i].terms.size(); ++j) {
      if (j > 0) os << ",";
      const Term& t = atoms_[i].terms[j];
      if (t.is_variable) {
        os << var_names_[t.var];
      } else {
        os << t.constant;
      }
    }
    os << ")";
  }
  return os.str();
}

}  // namespace clftj
