#ifndef CLFTJ_QUERY_QUERY_H_
#define CLFTJ_QUERY_QUERY_H_

#include <string>
#include <vector>

#include "util/common.h"

namespace clftj {

/// One argument position of an atom: either a query variable or a constant.
struct Term {
  bool is_variable = true;
  VarId var = kNone;      // valid when is_variable
  Value constant = 0;     // valid when !is_variable

  static Term Var(VarId v) { return Term{true, v, 0}; }
  static Term Const(Value c) { return Term{false, kNone, c}; }
};

/// A subgoal R(t1, ..., tk).
struct Atom {
  std::string relation;
  std::vector<Term> terms;

  /// The distinct variables of this atom in order of first occurrence.
  std::vector<VarId> Vars() const;

  /// True iff every term is a variable and no variable repeats: the atom's
  /// view keeps every row of its relation, one trie level per column.
  bool IsPlain() const;
};

/// A full conjunctive query (no projection): a sequence of atoms over a set
/// of named variables. Variables are identified by their index into
/// var_names; the canonical variable order used by the join engines is a
/// separate input (see td/ordering.h).
class Query {
 public:
  Query() = default;

  /// Registers a variable name and returns its id; returns the existing id
  /// if the name is already registered.
  VarId AddVariable(const std::string& name);

  /// Appends an atom. All variable ids must already be registered.
  void AddAtom(Atom atom);

  int num_vars() const { return static_cast<int>(var_names_.size()); }
  int num_atoms() const { return static_cast<int>(atoms_.size()); }
  const std::vector<Atom>& atoms() const { return atoms_; }
  const Atom& atom(AtomId i) const { return atoms_[i]; }
  const std::string& var_name(VarId v) const { return var_names_[v]; }
  const std::vector<std::string>& var_names() const { return var_names_; }

  /// Returns the id of a named variable, or kNone if not registered.
  VarId FindVariable(const std::string& name) const;

  /// Atom ids whose atoms contain variable v.
  std::vector<AtomId> AtomsWithVar(VarId v) const;

  /// Adjacency lists of the Gaifman graph: an edge between every two
  /// variables that co-occur in an atom. Indexed by VarId; lists are sorted
  /// and deduplicated, no self loops.
  std::vector<std::vector<VarId>> GaifmanGraph() const;

  /// True if every variable occurs in at least one atom (required by all
  /// engines: a variable with no atom has an unbounded domain).
  bool AllVarsCovered() const;

  /// Renders the query as parsable text, e.g. "E(x,y), E(y,z)".
  std::string ToString() const;

 private:
  std::vector<std::string> var_names_;
  std::vector<Atom> atoms_;
};

}  // namespace clftj

#endif  // CLFTJ_QUERY_QUERY_H_
