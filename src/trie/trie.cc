#include "trie/trie.h"

#include <algorithm>

#include "util/check.h"
#include "util/fault.h"
#include "util/simd.h"

namespace clftj {

Trie Trie::Build(int depth, std::vector<Tuple> rows) {
  CLFTJ_CHECK(depth >= 0);
  for (const Tuple& r : rows) {
    CLFTJ_CHECK(static_cast<int>(r.size()) == depth);
  }
  std::vector<std::vector<Value>> columns(depth);
  for (int l = 0; l < depth; ++l) {
    columns[l].reserve(rows.size());
    for (const Tuple& r : rows) columns[l].push_back(r[l]);
  }
  return FromColumns(depth, rows.size(), std::move(columns));
}

Trie Trie::FromColumns(int depth, std::size_t num_rows,
                       std::vector<std::vector<Value>> columns) {
  // Injected allocation failure while building the trie substrate: the
  // throw unwinds through substrate construction, which callers must treat
  // as a transient internal failure (nothing partial is published).
  fault::MaybeThrowAlloc(fault::Site::kTrieBuild);
  CLFTJ_CHECK(depth >= 0);
  CLFTJ_CHECK(static_cast<int>(columns.size()) == depth);
  for (const auto& column : columns) {
    CLFTJ_CHECK(column.size() == num_rows);
  }
  Trie trie;
  trie.depth_ = depth;
  if (depth == 0) {
    trie.num_tuples_ = num_rows == 0 ? 0 : 1;
    return trie;
  }
  CLFTJ_CHECK(num_rows < 0xFFFFFFFFull);

  // Sort a permutation of row indices instead of the rows themselves: the
  // columns stay put, only 4-byte indices move.
  std::vector<std::uint32_t> perm(num_rows);
  for (std::size_t i = 0; i < num_rows; ++i) {
    perm[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(perm.begin(), perm.end(),
            [&columns, depth](std::uint32_t a, std::uint32_t b) {
              for (int l = 0; l < depth; ++l) {
                const Value va = columns[l][a];
                const Value vb = columns[l][b];
                if (va != vb) return va < vb;
              }
              return false;
            });

  trie.values_.resize(depth);
  trie.starts_.resize(depth - 1);

  // Single pass over the sorted permutation: a new value is emitted at
  // level l whenever the prefix of length l+1 changes; child boundaries
  // are recorded at the same moment. Rows fully equal to their predecessor
  // (first_diff == depth) are duplicates and contribute nothing.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < num_rows; ++i) {
    const std::uint32_t row = perm[i];
    int first_diff = 0;
    if (i > 0) {
      const std::uint32_t prev = perm[i - 1];
      while (first_diff < depth &&
             columns[first_diff][row] == columns[first_diff][prev]) {
        ++first_diff;
      }
      if (first_diff == depth) continue;  // duplicate row
    }
    ++kept;
    for (int l = first_diff; l < depth; ++l) {
      if (l + 1 < depth) {
        // A fresh node at level l opens a new child group at level l+1.
        trie.starts_[l].push_back(
            static_cast<std::uint32_t>(trie.values_[l + 1].size()));
      }
      trie.values_[l].push_back(columns[l][row]);
    }
  }
  trie.num_tuples_ = kept;
  // Sentinels: starts_[l] has one entry per level-l value plus one.
  for (int l = 0; l + 1 < depth; ++l) {
    trie.starts_[l].push_back(
        static_cast<std::uint32_t>(trie.values_[l + 1].size()));
    CLFTJ_CHECK(trie.starts_[l].size() == trie.values_[l].size() + 1);
  }
  return trie;
}

std::size_t Trie::MemoryBytes() const {
  std::size_t bytes = 0;
  for (const auto& v : values_) bytes += v.size() * sizeof(Value);
  for (const auto& s : starts_) bytes += s.size() * sizeof(std::uint32_t);
  return bytes;
}

std::vector<VarId> LevelVarsFor(const Atom& atom,
                                const std::vector<int>& var_rank) {
  std::vector<VarId> level_vars = atom.Vars();
  std::sort(level_vars.begin(), level_vars.end(),
            [&var_rank](VarId a, VarId b) {
              return var_rank[a] < var_rank[b];
            });
  return level_vars;
}

namespace {

// For each level variable, the first term position where it occurs.
std::vector<int> LevelPosFor(const Atom& atom,
                             const std::vector<VarId>& level_vars) {
  std::vector<int> level_pos(level_vars.size(), kNone);
  for (std::size_t l = 0; l < level_vars.size(); ++l) {
    for (std::size_t p = 0; p < atom.terms.size(); ++p) {
      if (atom.terms[p].is_variable && atom.terms[p].var == level_vars[l]) {
        level_pos[l] = static_cast<int>(p);
        break;
      }
    }
    CLFTJ_CHECK(level_pos[l] != kNone);
  }
  return level_pos;
}

// The filter + projection core of BuildAtomView: applies the atom's
// constant and repeated-variable filters to `total_rows` rows given per-term
// source columns, projects to the level variables, and builds the trie.
Trie BuildFilteredTrie(const Atom& atom, const std::vector<VarId>& level_vars,
                       const std::vector<int>& level_pos,
                       const std::vector<ColumnSpan>& term_col,
                       std::size_t total_rows) {
  const std::size_t levels = level_vars.size();
  // An atom with only distinct variables (no constants, no repeats) keeps
  // every row: each level column is a straight contiguous copy.
  std::vector<std::vector<Value>> columns(levels);
  std::size_t num_rows = 0;
  if (atom.IsPlain()) {
    for (std::size_t l = 0; l < levels; ++l) {
      const ColumnSpan src = term_col[level_pos[l]];
      columns[l].assign(src.begin(), src.end());
    }
    num_rows = total_rows;
  } else {
    // Compile the atom's predicates into a simd::RowFilter — one
    // constant-term predicate per non-variable position and one equality
    // predicate per repeated occurrence of a variable (pinned to its first
    // occurrence at level_pos) — then run the dispatched compare+compress
    // kernel to a keep list and project the surviving rows columnwise.
    // Both kernel arms emit the same ascending keep list, so the view
    // tuples are bit-identical across dispatch modes.
    std::vector<simd::ConstPredicate> consts;
    std::vector<simd::EqPredicate> eqs;
    for (std::size_t p = 0; p < atom.terms.size(); ++p) {
      if (!atom.terms[p].is_variable) {
        consts.push_back({term_col[p].data(), atom.terms[p].constant});
        continue;
      }
      for (std::size_t l = 0; l < levels; ++l) {
        if (atom.terms[p].var == level_vars[l] &&
            static_cast<int>(p) != level_pos[l]) {
          eqs.push_back(
              {term_col[p].data(), term_col[level_pos[l]].data()});
          break;
        }
      }
    }
    const simd::RowFilter filter = {consts.data(), consts.size(), eqs.data(),
                                    eqs.size()};
    std::vector<std::uint32_t> keep;
    simd::FilterRows(filter, total_rows, &keep);
    // No reserve on the columns: this is exactly the path where filters
    // drop rows, and pre-allocating levels x total_rows would spike memory
    // for selective atoms (e.g. a constant over a large relation).
    for (std::size_t l = 0; l < levels; ++l) {
      const ColumnSpan src = term_col[level_pos[l]];
      for (const std::uint32_t i : keep) columns[l].push_back(src[i]);
    }
    num_rows = keep.size();
  }
  return Trie::FromColumns(static_cast<int>(levels), num_rows,
                           std::move(columns));
}

}  // namespace

AtomView BuildAtomView(const Relation& relation, const Atom& atom,
                       const std::vector<int>& var_rank) {
  CLFTJ_CHECK(static_cast<int>(atom.terms.size()) == relation.arity());
  AtomView view;
  view.level_vars = LevelVarsFor(atom, var_rank);
  const std::vector<int> level_pos = LevelPosFor(atom, view.level_vars);

  // Columnar staging: one value vector per trie level instead of one heap
  // tuple per row, feeding Trie::FromColumns' permutation sort. The source
  // columns are streamed as contiguous ColumnSpans.
  std::vector<ColumnSpan> term_col(atom.terms.size());
  for (std::size_t p = 0; p < atom.terms.size(); ++p) {
    term_col[p] = relation.Column(static_cast<int>(p));
  }
  view.trie = std::make_shared<Trie>(BuildFilteredTrie(
      atom, view.level_vars, level_pos, term_col, relation.size()));
  view.non_empty = view.trie->num_tuples() > 0;
  return view;
}

std::vector<AtomView> BuildAtomViews(const Query& q, const Database& db,
                                     const std::vector<int>& var_rank,
                                     bool* any_empty) {
  std::vector<AtomView> views;
  views.reserve(q.num_atoms());
  *any_empty = false;
  for (const Atom& atom : q.atoms()) {
    views.push_back(BuildAtomView(db.Get(atom.relation), atom, var_rank));
    if (!views.back().non_empty) *any_empty = true;
  }
  return views;
}

}  // namespace clftj
