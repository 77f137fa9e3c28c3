#ifndef CLFTJ_ENGINE_SUBSTRATE_REGISTRY_H_
#define CLFTJ_ENGINE_SUBSTRATE_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/database.h"
#include "data/relation.h"
#include "lftj/trie_join.h"
#include "query/query.h"
#include "trie/trie.h"
#include "util/stats.h"

namespace clftj {

/// Long-lived store of atom-view tries, shared across queries and across
/// concurrent workers — tries stop being per-request throwaways. Entries
/// are keyed on (database generation, relation + its version, term pattern,
/// level permutation): everything the trie's *contents* depend on, with
/// query variable identities erased. Two different queries whose atoms
/// project the same relation the same way (same constants, same
/// repeated-variable pattern, same level ordering) share one immutable
/// Trie; the query-specific parts of an AtomView (level_vars) are assembled
/// per Acquire call, which is O(arity), not O(data).
///
/// Incremental maintenance (docs/incremental.md): the relation's version is
/// Relation::compactions(), bumped by every ApplyDelta batch that changes a
/// row. A delta therefore turns the relation's keys over: the next Acquire
/// builds each view once from the new rows, and every read after it shares
/// that build until the next delta. Entries cut at an older version can
/// never be hit again and are swept on the next minor-version turnover.
///
/// Concurrency: lookups take a shared lock and copy out the shared_ptrs, so
/// the read-mostly steady state never serializes workers; builds happen
/// outside any lock and are published one at a time under the exclusive
/// lock (a lost race adopts the winner's trie). A bulk data change bumps
/// the database generation, and the next Acquire drops every stale entry.
/// Those two sweeps are the only eviction: the registry holds one trie per
/// live view and has no byte budget of its own. Outstanding shared_ptrs
/// keep a swept trie alive until its last running query finishes.
class SubstrateRegistry {
 public:
  /// Builds (or reuses) every atom view of `q` over `db` for the variable
  /// order `order` and assembles them into a fresh substrate. Charges
  /// substrate_builds / substrate_reuses / substrate_build_ns to *stats
  /// (may be null). Throws whatever the trie build throws (e.g. injected
  /// bad_alloc); already-published views survive a mid-build failure.
  std::shared_ptr<const TrieJoinSubstrate> Acquire(const Query& q,
                                                   const Database& db,
                                                   const std::vector<VarId>& order,
                                                   ExecStats* stats);

  /// Retained trie bytes / entry count right now (observability, tests).
  std::uint64_t CachedBytes() const;
  std::size_t NumTries() const;

 private:
  struct Entry {
    std::string relation;
    std::uint64_t version = 0;  // the relation's compactions() at the build
    std::shared_ptr<const Trie> trie;
  };

  /// Inserts (or adopts) the entry for `key` under the exclusive lock. On
  /// return view->trie is the retained trie.
  void Publish(const std::string& key, const Relation& rel, AtomView* view);

  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, Entry> tries_;
  std::uint64_t bytes_ = 0;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> minor_{0};
};

}  // namespace clftj

#endif  // CLFTJ_ENGINE_SUBSTRATE_REGISTRY_H_
