#ifndef CLFTJ_DATA_DATABASE_H_
#define CLFTJ_DATA_DATABASE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/dictionary.h"
#include "data/relation.h"

namespace clftj {

/// One incremental mutation request: tuples to append to and delete from a
/// single relation, applied atomically under one minor-version bump.
/// Deletes apply before adds (see Relation::ApplyDelta).
struct DeltaBatch {
  std::string relation;
  std::vector<Tuple> adds;
  std::vector<Tuple> deletes;
};

/// One applied batch as remembered by the bounded delta log — everything a
/// reuse layer needs to invalidate in a targeted way instead of wholesale.
struct DeltaLogEntry {
  std::uint64_t minor = 0;  ///< minor_version() right after this batch
  std::string relation;
  /// The tuples whose visibility the batch flipped (Relation::ApplyDelta's
  /// `changed`): a no-op add or delete is not among them, so a retried
  /// batch invalidates nothing.
  std::vector<Tuple> changed;
};

/// A named collection of relations (the instance D that queries run over),
/// plus one shared Dictionary interning every string key that appears in
/// any of them. String-typed columns across relations draw ids from this
/// single table, so a name loaded into two relations encodes to the same
/// Value and joins across them just work.
class Database {
 public:
  Database() : dict_(std::make_shared<Dictionary>()) {}

  /// Adds (or replaces) a relation under its own name. The relation is
  /// normalized on insertion so all engines see set semantics. Bumps the
  /// database generation: any cross-query state keyed on the old generation
  /// (cached plans, shared tries, persistent result caches) is invalidated.
  void Put(Relation relation);

  /// Monotone data-version counter, starting at 1 and bumped by every
  /// Put(). Cross-query reuse layers key their entries on (generation,
  /// shape) so a data change invalidates them without any callback wiring.
  std::uint64_t generation() const { return generation_; }

  /// Applies an incremental batch to an existing relation, bumping
  /// minor_version() but NOT generation(): reuse state keyed on the
  /// generation survives, re-keyed or invalidated in a targeted way (see
  /// docs/incremental.md). Returns false with *error set (nothing
  /// applied, no version bump) when the relation does not exist or a tuple
  /// arity mismatches. Mutation requires exclusive access to the database,
  /// like any container (QueryService interlocks this with running
  /// queries).
  bool ApplyDelta(const DeltaBatch& batch, std::string* error = nullptr,
                  DeltaResult* result = nullptr);

  /// The check ApplyDelta runs before it changes anything, for callers
  /// that admit a batch now and apply it later: false with *error set
  /// ("unknown relation: R" or "arity mismatch for relation R") when the
  /// relation does not exist or a tuple's arity mismatches.
  bool ValidateDelta(const DeltaBatch& batch, std::string* error) const;

  /// Monotone minor data-version, starting at 0 and bumped by every
  /// successful ApplyDelta(). Never reset — a (generation, minor) pair
  /// identifies a data state unambiguously.
  std::uint64_t minor_version() const { return minor_version_; }

  /// Collects pointers to the delta log entries with minor > since, oldest
  /// first. Returns false when the bounded log no longer reaches back that
  /// far (trimmed, or reset by a Put()): the caller cannot know what
  /// changed and must fall back to full invalidation. The pointers are
  /// invalidated by the next mutation.
  bool DeltasSince(std::uint64_t since,
                   std::vector<const DeltaLogEntry*>* out) const;

  /// Returns the relation with the given name, or nullptr if absent.
  const Relation* Find(const std::string& name) const;

  /// Returns the relation with the given name; aborts if absent.
  const Relation& Get(const std::string& name) const;

  /// Whether a relation with this name exists.
  bool Contains(const std::string& name) const;

  /// Names of all stored relations (sorted).
  std::vector<std::string> Names() const;

  /// Total number of tuples across all relations.
  std::size_t TotalTuples() const;

  /// Approximate heap footprint of all relations' column storage plus the
  /// dictionary's retained string table, in bytes.
  std::size_t MemoryBytes() const;

  /// The database-wide string dictionary. The loader encodes through it;
  /// the output boundary decodes through it. Always non-null; empty for
  /// pure-integer databases. Copying a Database shares the dictionary
  /// (append-only ids make sharing safe and keep encoded relations valid
  /// across copies).
  Dictionary& dict() { return *dict_; }
  const Dictionary& dict() const { return *dict_; }

 private:
  /// Bound on the delta log: far more batches than any reuse layer falls
  /// behind by in practice, small enough that the log never matters for
  /// memory accounting.
  static constexpr std::size_t kMaxDeltaLog = 64;

  std::map<std::string, Relation> relations_;
  std::shared_ptr<Dictionary> dict_;
  std::uint64_t generation_ = 1;
  std::uint64_t minor_version_ = 0;
  std::deque<DeltaLogEntry> delta_log_;
  /// Every entry with minor > delta_log_floor_ is present in delta_log_.
  std::uint64_t delta_log_floor_ = 0;
};

}  // namespace clftj

#endif  // CLFTJ_DATA_DATABASE_H_
