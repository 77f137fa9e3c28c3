#include "engine/engine.h"

#include "baseline/generic_join.h"
#include "baseline/hash_join.h"
#include "baseline/nested_loop.h"
#include "clftj/cached_trie_join.h"
#include "lftj/trie_join.h"
#include "yannakakis/ytd.h"

namespace clftj {

const char* RunStatusName(RunStatus status) {
  switch (status) {
    case RunStatus::kOk:
      return "OK";
    case RunStatus::kTimeout:
      return "TIMEOUT";
    case RunStatus::kOutOfMemory:
      return "OUT-OF-MEMORY";
    case RunStatus::kShed:
      return "SHED";
    case RunStatus::kCancelled:
      return "CANCELLED";
    case RunStatus::kBadQuery:
      return "BAD-QUERY";
    case RunStatus::kInternal:
      return "INTERNAL";
  }
  return "INTERNAL";  // unreachable; keeps -Wreturn-type quiet
}

bool ParseRunStatus(const std::string& text, RunStatus* status) {
  static constexpr RunStatus kAll[] = {
      RunStatus::kOk,        RunStatus::kTimeout,  RunStatus::kOutOfMemory,
      RunStatus::kShed,      RunStatus::kCancelled, RunStatus::kBadQuery,
      RunStatus::kInternal};
  for (const RunStatus s : kAll) {
    if (text == RunStatusName(s)) {
      if (status != nullptr) *status = s;
      return true;
    }
  }
  return false;
}

bool IsRetryable(RunStatus status) {
  return status == RunStatus::kShed || status == RunStatus::kInternal;
}

RunStatus MergeRunStatus(bool any_timed_out, bool any_out_of_memory,
                         const AbortFlag* abort) {
  if (any_out_of_memory) return RunStatus::kOutOfMemory;
  if (abort != nullptr && abort->Tripped()) {
    const RunStatus reason = abort->reason();
    // An external cancel makes every worker's deadline checker report
    // expiry; those are artifacts of the stop signal, not real deadlines.
    if (reason == RunStatus::kCancelled) return RunStatus::kCancelled;
    if (reason == RunStatus::kOutOfMemory) return RunStatus::kOutOfMemory;
  }
  if (any_timed_out) return RunStatus::kTimeout;
  return RunStatus::kOk;
}

RunStatus ValidateQueryForDatabase(const Query& q, const Database& db,
                                   std::string* message) {
  const auto fail = [message](std::string why) {
    if (message != nullptr) *message = std::move(why);
    return RunStatus::kBadQuery;
  };
  if (q.num_atoms() == 0) return fail("query has no atoms");
  for (const Atom& atom : q.atoms()) {
    const Relation* rel = db.Find(atom.relation);
    if (rel == nullptr) {
      return fail("unknown relation: " + atom.relation);
    }
    if (rel->arity() != static_cast<int>(atom.terms.size())) {
      return fail("arity mismatch for " + atom.relation + ": relation has " +
                  std::to_string(rel->arity()) + " columns, atom has " +
                  std::to_string(atom.terms.size()));
    }
  }
  if (!q.AllVarsCovered()) {
    return fail("a query variable occurs in no atom (unbounded domain)");
  }
  if (message != nullptr) message->clear();
  return RunStatus::kOk;
}

std::vector<std::string> EngineNames() {
  return {"LFTJ",       "CLFTJ",       "CLFTJ-P",
          "YTD",        "PairwiseHJ",  "GenericJoin",
          "NestedLoop"};
}

bool IsKnownEngine(const std::string& name) {
  for (const std::string& known : EngineNames()) {
    if (name == known) return true;
  }
  return false;
}

std::unique_ptr<JoinEngine> MakeEngine(const std::string& name) {
  return MakeEngine(name, EngineOptions{});
}

std::unique_ptr<JoinEngine> MakeEngine(const std::string& name,
                                       const EngineOptions& options) {
  if (name == "LFTJ") return std::make_unique<LeapfrogTrieJoin>();
  if (name == "CLFTJ" || name == "CLFTJ-P") {
    CachedTrieJoin::Options engine_options;
    engine_options.threads = name == "CLFTJ" ? 1 : options.threads;
    engine_options.cache = options.cache;
    engine_options.prepared_plan = options.prepared_plan;
    engine_options.prepared_substrate = options.prepared_substrate;
    engine_options.shared_count_cache = options.shared_count_cache;
    engine_options.shared_eval_cache = options.shared_eval_cache;
    return std::make_unique<CachedTrieJoin>(engine_options);
  }
  if (name == "YTD") return std::make_unique<YannakakisTd>();
  if (name == "PairwiseHJ") return std::make_unique<PairwiseHashJoin>();
  if (name == "GenericJoin") return std::make_unique<GenericJoin>();
  if (name == "NestedLoop") return std::make_unique<NestedLoopJoin>();
  return nullptr;
}

}  // namespace clftj
