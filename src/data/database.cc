#include "data/database.h"

#include <utility>

#include "util/check.h"

namespace clftj {

void Database::Put(Relation relation) {
  relation.Normalize();
  const std::string name = relation.name();
  relations_.insert_or_assign(name, std::move(relation));
  ++generation_;
  // A generation bump invalidates every reuse layer wholesale, so the delta
  // history up to here is useless — drop it and move the floor so stale
  // DeltasSince callers are told to do a full reset.
  delta_log_.clear();
  delta_log_floor_ = minor_version_;
}

bool Database::ValidateDelta(const DeltaBatch& batch,
                             std::string* error) const {
  const Relation* rel = Find(batch.relation);
  if (rel == nullptr) {
    if (error != nullptr) *error = "unknown relation: " + batch.relation;
    return false;
  }
  const int arity = rel->arity();
  for (const auto* tuples : {&batch.adds, &batch.deletes}) {
    for (const Tuple& t : *tuples) {
      if (static_cast<int>(t.size()) != arity) {
        if (error != nullptr) {
          *error = "arity mismatch for relation " + batch.relation;
        }
        return false;
      }
    }
  }
  return true;
}

bool Database::ApplyDelta(const DeltaBatch& batch, std::string* error,
                          DeltaResult* result) {
  if (!ValidateDelta(batch, error)) return false;
  Relation& rel = relations_.find(batch.relation)->second;
  DeltaLogEntry entry;
  const DeltaResult res =
      rel.ApplyDelta(batch.adds, batch.deletes, &entry.changed);
  ++minor_version_;
  entry.minor = minor_version_;
  entry.relation = batch.relation;
  delta_log_.push_back(std::move(entry));
  while (delta_log_.size() > kMaxDeltaLog) {
    delta_log_floor_ = delta_log_.front().minor;
    delta_log_.pop_front();
  }
  if (result != nullptr) *result = res;
  return true;
}

bool Database::DeltasSince(std::uint64_t since,
                           std::vector<const DeltaLogEntry*>* out) const {
  if (since < delta_log_floor_) return false;
  for (const DeltaLogEntry& entry : delta_log_) {
    if (entry.minor > since) out->push_back(&entry);
  }
  return true;
}

const Relation* Database::Find(const std::string& name) const {
  const auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

const Relation& Database::Get(const std::string& name) const {
  const Relation* r = Find(name);
  CLFTJ_CHECK_MSG(r != nullptr, name.c_str());
  return *r;
}

bool Database::Contains(const std::string& name) const {
  return relations_.count(name) > 0;
}

std::vector<std::string> Database::Names() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) names.push_back(name);
  return names;
}

std::size_t Database::TotalTuples() const {
  std::size_t total = 0;
  for (const auto& [name, rel] : relations_) total += rel.size();
  return total;
}

std::size_t Database::MemoryBytes() const {
  std::size_t total = dict_->MemoryBytes();
  for (const auto& [name, rel] : relations_) total += rel.MemoryBytes();
  return total;
}

}  // namespace clftj
