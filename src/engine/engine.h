#ifndef CLFTJ_ENGINE_ENGINE_H_
#define CLFTJ_ENGINE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "clftj/cache.h"
#include "data/database.h"
#include "query/query.h"
#include "util/fault.h"
#include "util/stats.h"
#include "util/timer.h"

namespace clftj {

// Reuse-injection handle types. Forward-declared (with the FactorizedSetPtr
// alias duplicated from clftj/factorized.h) because lftj/trie_join.h includes
// this header — pulling the full definitions here would be circular.
struct CachedPlan;
class TrieJoinSubstrate;
struct FactorizedSet;
using FactorizedSetPtr = std::shared_ptr<const FactorizedSet>;

/// Typed outcome of one run — the failure taxonomy every engine and the
/// query service report through. The paper's evaluation protocol already
/// treats timeouts and materialization budgets as first-class outcomes;
/// serving concurrent queries adds admission (kShed), cooperative
/// cancellation (kCancelled), input rejection (kBadQuery) and a catch-all
/// for faults the system survived but could not classify (kInternal).
enum class RunStatus : std::uint8_t {
  kOk = 0,
  /// The wall-clock budget (RunLimits::timeout_seconds) expired.
  kTimeout = 1,
  /// The materialization budget (RunLimits::max_intermediate_tuples) was
  /// exceeded. Terminal: retrying with the same budget fails the same way.
  kOutOfMemory = 2,
  /// Admission control refused the request (queue depth or aggregate byte
  /// budget exceeded). Retryable after the server's retry-after hint.
  kShed = 3,
  /// The run was cancelled from outside (service drain, client gone).
  kCancelled = 4,
  /// The request never ran: unparsable query, unknown relation, arity
  /// mismatch, corrupted request bytes. Terminal.
  kBadQuery = 5,
  /// The run aborted on an unexpected but survived fault (allocation
  /// failure, injected fault, unclassified exception). Retryable: the
  /// fault may be transient.
  kInternal = 6,
};

/// Canonical upper-case wire/display name, e.g. "TIMEOUT". Stable: the
/// line protocol and CLI diagnostics are built from these.
const char* RunStatusName(RunStatus status);

/// Parses a RunStatusName back; false if `text` names no status.
bool ParseRunStatus(const std::string& text, RunStatus* status);

/// Whether a client should retry a request that ended with this status.
/// Retryable: kShed (admission pressure passes) and kInternal (the fault
/// may be transient). Terminal: kTimeout and kOutOfMemory (budget-driven —
/// the same budget fails the same way), kBadQuery, kCancelled.
bool IsRetryable(RunStatus status);

class AbortFlag;

/// Resource limits for one engine run, mirroring the paper's testing
/// protocol (10-hour timeout; 64 GB materialization budget) at laptop scale.
struct RunLimits {
  /// Wall-clock budget in seconds; 0 means unlimited.
  double timeout_seconds = 0.0;
  /// Budget on materialized intermediate/result tuples (YTD's weakness in
  /// the paper's evaluation figures); 0 means unlimited.
  std::uint64_t max_intermediate_tuples = 0;
  /// Optional cooperative cancellation handle (borrowed; may be null). The
  /// owner trips it — with RunStatus::kCancelled for an external cancel —
  /// and the run halts within one deadline-check stride, reporting the
  /// trip reason. Parallel engines use it directly as the workers' shared
  /// stop flag, so one trip stops every shard.
  AbortFlag* cancel = nullptr;
};

/// Outcome of one engine run. `count` is the number of result tuples (for
/// Count) or the number of tuples emitted (for Evaluate). A run that hits a
/// limit reports partial stats with the typed status set.
struct RunResult {
  std::uint64_t count = 0;
  /// Typed outcome; kOk unless the run terminated abnormally.
  RunStatus status = RunStatus::kOk;
  /// Human-readable detail for non-kOk statuses (may be empty).
  std::string message;
  double seconds = 0.0;
  ExecStats stats;

  bool ok() const { return status == RunStatus::kOk; }
};

/// Receives one full result tuple, indexed by VarId (size = num_vars()).
using TupleCallback = std::function<void(const Tuple&)>;

/// Uniform interface over all join algorithms in the repository.
class JoinEngine {
 public:
  virtual ~JoinEngine() = default;

  /// Short identifier, e.g. "LFTJ", "CLFTJ", "YTD".
  virtual std::string name() const = 0;

  /// Computes |q(D)|.
  virtual RunResult Count(const Query& q, const Database& db,
                          const RunLimits& limits) = 0;

  /// Computes q(D), invoking `cb` once per result tuple.
  virtual RunResult Evaluate(const Query& q, const Database& db,
                             const TupleCallback& cb,
                             const RunLimits& limits) = 0;
};

/// One stop signal shared by every worker of a parallel run: the first
/// worker to hit a limit (deadline, materialization budget) or an external
/// canceller trips the flag and all other workers observe it at their next
/// deadline-check stride. The flag carries the *first* trip's reason so the
/// run can report a typed status (secondary trips keep the original reason:
/// a worker that "times out" because a sibling tripped the flag is an
/// artifact of the stop signal, not a real deadline). Relaxed ordering
/// suffices — the reason is a one-byte enum published before `tripped_`,
/// and readers only act on it after observing the trip.
class AbortFlag {
 public:
  /// Trips with the given reason; the first trip's reason wins.
  void Trip(RunStatus reason = RunStatus::kTimeout) {
    std::uint8_t expected = 0;  // == kOk: not yet tripped
    reason_.compare_exchange_strong(expected,
                                    static_cast<std::uint8_t>(reason),
                                    std::memory_order_relaxed);
    tripped_.store(true, std::memory_order_release);
  }
  bool Tripped() const { return tripped_.load(std::memory_order_acquire); }

  /// The first trip's reason; kOk when never tripped.
  RunStatus reason() const {
    return static_cast<RunStatus>(reason_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<bool> tripped_{false};
  std::atomic<std::uint8_t> reason_{0};
};

/// Cheap cooperative deadline: Expired() samples the clock only once every
/// `kStride` calls so it can sit inside the join's innermost loop. With a
/// shared AbortFlag attached, one checker's expiry trips the flag and every
/// other checker on the flag reports expiry within its own stride — K
/// workers pay one timer discovery total, not K. A flag tripped *before*
/// this checker's first call is observed immediately (the very first
/// Expired() performs a check), so a fresh run handed an already-cancelled
/// flag terminates before doing any work.
class DeadlineChecker {
 public:
  /// Calls between clock samples / shared-flag checks; the worst-case halt
  /// latency after a trip is one stride of innermost-loop iterations.
  static constexpr std::uint64_t kStride = 1 << 14;

  explicit DeadlineChecker(double timeout_seconds, AbortFlag* shared = nullptr)
      : timeout_seconds_(timeout_seconds), shared_(shared) {}

  bool Expired() {
    if (expired_) return true;
    if (timeout_seconds_ <= 0.0 && shared_ == nullptr) return false;
    if ((calls_++ & (kStride - 1)) != 0) return false;
    if (shared_ != nullptr && shared_->Tripped()) {
      expired_ = true;
      return true;
    }
    if ((timeout_seconds_ > 0.0 && timer_.Seconds() > timeout_seconds_) ||
        fault::Fire(fault::Site::kDeadlineTrip)) {
      expired_ = true;
      if (shared_ != nullptr) shared_->Trip(RunStatus::kTimeout);
    }
    return expired_;
  }

 private:
  double timeout_seconds_;
  AbortFlag* shared_;
  Timer timer_;
  std::uint64_t calls_ = 0;
  bool expired_ = false;
};

/// Folds per-worker failure flags and the shared stop flag into one typed
/// status. Precedence: kOutOfMemory (a real budget violation somewhere)
/// dominates, then an external kCancelled trip, then kTimeout; secondary
/// "timeouts" that are artifacts of the stop signal inherit the trip's
/// reason instead of masquerading as deadlines. `abort` may be null.
RunStatus MergeRunStatus(bool any_timed_out, bool any_out_of_memory,
                         const AbortFlag* abort);

/// Pre-flight request validation: every atom's relation must exist in `db`
/// with matching arity, and every variable must be covered by some atom.
/// Returns kOk or kBadQuery (with a diagnostic in *message). Engines
/// CLFTJ_CHECK these invariants; a serving loop must reject them as typed
/// client errors instead of aborting the process.
RunStatus ValidateQueryForDatabase(const Query& q, const Database& db,
                                   std::string* message);

/// Names accepted by MakeEngine, in display order.
std::vector<std::string> EngineNames();

/// Whether MakeEngine accepts `name`. Lets callers validate a request
/// without constructing (and immediately discarding) an engine.
bool IsKnownEngine(const std::string& name);

/// Cross-engine construction knobs for MakeEngine. Engines that have no
/// use for a knob ignore it (only CLFTJ/CLFTJ-P consume `cache`, only
/// CLFTJ-P consumes `threads` — MakeEngine("CLFTJ") fixes one thread).
struct EngineOptions {
  /// CLFTJ-P worker count; <= 0 means one per hardware thread.
  int threads = 0;
  /// CLFTJ / CLFTJ-P cache configuration (admission, capacity, eviction).
  /// Defaults to the unbounded always-admit cache.
  CacheOptions cache;

  // Cross-query reuse injection (CLFTJ / CLFTJ-P only; others ignore it).
  // All borrowed from the serving loop's CrossQueryReuse::Prepared, which
  // must outlive the engine run. Null = the engine resolves/builds its own,
  // exactly the pre-reuse behavior.

  /// Pre-resolved plan for the query's shape. Must match the query the
  /// engine is run with (same shape at the same database generation).
  std::shared_ptr<const CachedPlan> prepared_plan;
  /// Pre-built trie substrate for prepared_plan->order.
  std::shared_ptr<const TrieJoinSubstrate> prepared_substrate;
  /// Persistent subtree-result caches warmed across requests of this shape.
  /// At most one is consulted per run (count mode vs eval mode).
  StripedCacheManager<std::uint64_t>* shared_count_cache = nullptr;
  StripedCacheManager<FactorizedSetPtr>* shared_eval_cache = nullptr;
};

/// Factory over all engines: "LFTJ", "CLFTJ", "CLFTJ-P" (parallel sharded
/// CLFTJ, one worker per hardware thread by default), "YTD", "PairwiseHJ"
/// (the PostgreSQL stand-in), "GenericJoin" (the SYS1 stand-in),
/// "NestedLoop" (the reference). Returns nullptr for an unknown name.
/// Engines built here use their default planning policies.
std::unique_ptr<JoinEngine> MakeEngine(const std::string& name);

/// As above, with explicit thread/cache configuration.
std::unique_ptr<JoinEngine> MakeEngine(const std::string& name,
                                       const EngineOptions& options);

}  // namespace clftj

#endif  // CLFTJ_ENGINE_ENGINE_H_
