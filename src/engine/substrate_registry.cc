#include "engine/substrate_registry.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/timer.h"

namespace clftj {

namespace {

// The trie of an atom view depends on the relation's data (pinned by the
// generation plus the relation's version), which term positions carry which
// constants, the repeated-variable equality pattern, and the level ->
// term-position mapping — not on the query's variable *identities*. The key encodes exactly that: variables as
// indices into the atom's distinct-variable list (first-occurrence order),
// levels as those indices in trie-level order.
std::string ViewKey(std::uint64_t generation, std::uint64_t version,
                    const Atom& atom, const std::vector<int>& var_rank) {
  const std::vector<VarId> distinct = atom.Vars();
  const auto local_index = [&distinct](VarId v) {
    for (std::size_t k = 0; k < distinct.size(); ++k) {
      if (distinct[k] == v) return k;
    }
    CLFTJ_CHECK(false);
    return std::size_t{0};
  };
  std::string key = std::to_string(generation);
  key += '#';
  key += std::to_string(version);
  key += '|';
  key += atom.relation;
  key += '|';
  for (const Term& term : atom.terms) {
    if (term.is_variable) {
      key += 'v';
      key += std::to_string(local_index(term.var));
    } else {
      key += 'c';
      key += std::to_string(term.constant);
    }
    key += '.';
  }
  key += '|';
  std::vector<VarId> levels = distinct;
  std::sort(levels.begin(), levels.end(), [&var_rank](VarId a, VarId b) {
    return var_rank[a] < var_rank[b];
  });
  for (const VarId v : levels) {
    key += std::to_string(local_index(v));
    key += '.';
  }
  return key;
}

std::vector<VarId> LevelVars(const Atom& atom,
                             const std::vector<int>& var_rank) {
  std::vector<VarId> levels = atom.Vars();
  std::sort(levels.begin(), levels.end(), [&var_rank](VarId a, VarId b) {
    return var_rank[a] < var_rank[b];
  });
  return levels;
}

}  // namespace

std::shared_ptr<const TrieJoinSubstrate> SubstrateRegistry::Acquire(
    const Query& q, const Database& db, const std::vector<VarId>& order,
    ExecStats* stats) {
  // Generation turnover: drop every stale entry in one sweep. The keys
  // embed the generation too, so a missed sweep is a leak, never a wrong
  // result.
  const std::uint64_t generation = db.generation();
  if (generation_.load(std::memory_order_acquire) != generation) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (generation_.load(std::memory_order_relaxed) != generation) {
      tries_.clear();
      bytes_ = 0;
      generation_.store(generation, std::memory_order_release);
    }
  }
  // Minor-version turnover: entries cut at an older version of their
  // relation can never be hit again (their key embeds the version) — drop
  // them now.
  const std::uint64_t minor = db.minor_version();
  if (minor_.load(std::memory_order_acquire) != minor) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (minor_.load(std::memory_order_relaxed) != minor) {
      for (auto it = tries_.begin(); it != tries_.end();) {
        const Relation* rel = db.Find(it->second.relation);
        if (rel == nullptr || rel->compactions() != it->second.version) {
          bytes_ -= it->second.trie->MemoryBytes();
          it = tries_.erase(it);
        } else {
          ++it;
        }
      }
      minor_.store(minor, std::memory_order_release);
    }
  }

  std::vector<int> var_rank(q.num_vars(), kNone);
  for (int d = 0; d < static_cast<int>(order.size()); ++d) {
    var_rank[order[d]] = d;
  }

  std::vector<AtomView> views;
  views.reserve(q.num_atoms());
  for (const Atom& atom : q.atoms()) {
    const Relation& rel = db.Get(atom.relation);
    const std::string key =
        ViewKey(generation, rel.compactions(), atom, var_rank);
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      const auto it = tries_.find(key);
      if (it != tries_.end()) {
        const Entry& entry = it->second;
        AtomView view;
        view.level_vars = LevelVars(atom, var_rank);
        view.trie = entry.trie;
        view.non_empty = entry.trie->num_tuples() > 0;
        views.push_back(std::move(view));
        if (stats != nullptr) ++stats->substrate_reuses;
        continue;
      }
    }
    // Cold view: build outside any lock (can be seconds of work and may
    // throw), publish under the exclusive lock. Views published before a
    // later atom's build fails stay cached — a retried request only redoes
    // the failed build.
    Timer timer;
    AtomView view = BuildAtomView(rel, atom, var_rank);
    if (stats != nullptr) {
      ++stats->substrate_builds;
      stats->substrate_build_ns +=
          static_cast<std::uint64_t>(timer.Seconds() * 1e9);
    }
    Publish(key, rel, &view);
    views.push_back(std::move(view));
  }
  return std::make_shared<TrieJoinSubstrate>(q, order, std::move(views));
}

void SubstrateRegistry::Publish(const std::string& key, const Relation& rel,
                                AtomView* view) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  const auto [it, inserted] =
      tries_.try_emplace(key, Entry{rel.name(), rel.compactions(), view->trie});
  if (!inserted) {
    // Lost a build race: adopt the published trie so concurrent queries
    // converge on one instance and the duplicate is freed.
    view->trie = it->second.trie;
    return;
  }
  bytes_ += view->trie->MemoryBytes();
}

std::uint64_t SubstrateRegistry::CachedBytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return bytes_;
}

std::size_t SubstrateRegistry::NumTries() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return tries_.size();
}

}  // namespace clftj
