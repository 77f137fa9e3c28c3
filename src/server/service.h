#ifndef CLFTJ_SERVER_SERVICE_H_
#define CLFTJ_SERVER_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/database.h"
#include "engine/engine.h"
#include "engine/reuse.h"

namespace clftj {

/// One request as the service admits it. Text is parsed and validated at
/// admission (a kBadQuery never occupies a queue slot); per-request limits
/// default to the service-wide ones.
struct QueryRequest {
  /// "run" (a query) or "delta" (a mutation applying `delta` to the
  /// service's database; requires the mutable-database constructor).
  std::string kind = "run";
  std::string query_text;
  /// "count" (return |q(D)|) or "eval" (return the result tuples too).
  std::string mode = "count";
  /// Engine name for MakeEngine; empty uses the service default.
  std::string engine;
  /// Wall-clock budget in milliseconds; 0 uses the service default.
  std::uint64_t timeout_ms = 0;
  /// Materialization budget in tuples; 0 uses the service default.
  std::uint64_t max_tuples = 0;
  /// The mutation of a kind == "delta" request (see docs/incremental.md).
  DeltaBatch delta;
};

/// Typed outcome of one request. Exactly one response per admitted
/// request — that is the service's core guarantee: whatever faults fire,
/// a request ends with a RunStatus, never a hang and never a crash.
struct QueryResponse {
  RunStatus status = RunStatus::kOk;
  std::string message;
  std::uint64_t count = 0;
  double seconds = 0.0;
  /// For kShed: how long the client should wait before retrying.
  std::uint64_t retry_after_ms = 0;
  /// Result tuples (eval mode only), indexed by VarId.
  std::vector<Tuple> tuples;
  ExecStats stats;
};

/// Batch-admission configuration (docs/serving.md "Batch admission"): how
/// the serving loop groups co-resident queue entries that share work.
struct BatchOptions {
  /// Master switch. Off = pure FIFO one-per-worker dispatch (the pre-batch
  /// behavior, bit for bit).
  bool enabled = true;
  /// Largest batch one leader may assemble (members, head included).
  int max_size = 32;
  /// How long a leader holds its batch open for late-arriving matches
  /// after draining the co-resident ones. 0 = no wait: only entries
  /// already queued when the head is popped can join. This bounds any
  /// member's extra latency: a batch executes at most window_ms after its
  /// head was dispatched.
  std::uint64_t window_ms = 0;
  /// Escalate a shared count-mode run with >= 2 identical members from
  /// CLFTJ to CLFTJ-P, fanning the batch across shards of one shared run
  /// context (counts are bit-identical at every thread count — the PR 2
  /// guarantee). Eval runs are never escalated: the sharded executor's
  /// tuple stream is only interleaving-identical, and a shared eval run
  /// must hand every member the same stream a FIFO run would have.
  bool parallelize_shared = true;
};

/// Serving-loop configuration.
struct ServiceOptions {
  /// Worker threads executing admitted requests.
  int workers = 2;
  /// Bounded request queue: admissions beyond this depth are shed.
  std::size_t queue_capacity = 64;
  /// Aggregate byte budget across queued + running requests (0 =
  /// unlimited). Each request is charged an estimate of its
  /// materialization footprint at admission (max_tuples * 8 bytes); a
  /// request with an unlimited tuple budget is charged the whole byte
  /// budget, serializing unlimited requests instead of letting several
  /// of them overcommit memory together.
  std::uint64_t aggregate_budget_bytes = 0;
  /// Default per-request limits when the request leaves them 0.
  std::uint64_t default_timeout_ms = 0;
  std::uint64_t default_max_tuples = 0;
  /// Default engine (MakeEngine name) and its construction knobs.
  std::string engine = "CLFTJ";
  EngineOptions engine_options;
  /// Retry-after hint attached to kShed responses.
  std::uint64_t retry_after_ms = 50;
  /// Cross-query reuse (plan cache, shared substrates, persistent striped
  /// caches) for CLFTJ-family requests. Applies per service instance; all
  /// layers default on and results are bit-identical either way.
  ReuseOptions reuse;
  /// Batch admission over the reuse layer (requires reuse.enabled — with
  /// reuse off there is no shared work to batch and dispatch stays FIFO).
  BatchOptions batch;
};

/// The resilient CLFTJ serving loop: a bounded queue in front of a worker
/// pool over MakeEngine, with per-request deadlines and byte budgets wired
/// through RunLimits/AbortFlag, load shedding at admission, and graceful
/// drain on shutdown. Every admitted request receives exactly one typed
/// QueryResponse; engine-level failures (including injected faults) are
/// caught and mapped onto the RunStatus taxonomy.
class QueryService {
 public:
  /// Read-only service: `db` is borrowed and must outlive the service.
  /// DELTA requests are rejected as kBadQuery. Workers start immediately.
  QueryService(const Database& db, ServiceOptions options);

  /// Read-write service over a mutable database: query requests run under
  /// a shared lock, "delta" requests apply their batch under an exclusive
  /// lock, so reads and writes interleave without tearing. The reuse layer
  /// survives deltas — plans and substrates are revalidated, subtree
  /// caches get targeted invalidation (docs/incremental.md).
  QueryService(Database* db, ServiceOptions options);

  /// Drains (finishes queued work) and joins the workers.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admits `request` and returns a future that resolves to its response.
  /// Admission failures (kBadQuery, kShed, shutdown) resolve the future
  /// immediately without occupying a queue slot.
  std::future<QueryResponse> Submit(const QueryRequest& request);

  /// Submit + wait: the synchronous serving path.
  QueryResponse Execute(const QueryRequest& request);

  /// Stops the service. With `drain` every queued request completes
  /// normally first; without it, queued and in-flight requests are
  /// cancelled (kCancelled) — in-flight runs halt within one deadline
  /// stride via their AbortFlag. Idempotent; new Submits after Shutdown
  /// are shed with a "shutting down" message.
  void Shutdown(bool drain = true);

  /// Queue depth right now (observability/tests).
  std::size_t QueueDepth() const;
  /// Aggregate bytes currently charged against the admission budget.
  std::uint64_t ChargedBytes() const;

 private:
  /// Shared body of the two public constructors.
  QueryService(const Database& db, Database* mutable_db,
               ServiceOptions options);

  struct Pending {
    Query query;
    QueryRequest request;
    RunLimits limits;
    std::uint64_t charge = 0;
    /// Canonical shape key for batch grouping; empty when the request is
    /// not batchable (delta, non-CLFTJ engine, reuse/batching off).
    std::string shape_key;
    AbortFlag cancel;
    std::promise<QueryResponse> promise;
  };

  void WorkerLoop();
  QueryResponse RunDelta(Pending& pending);
  /// Resolves the effective limits for a request and its byte charge.
  void ResolveLimits(const QueryRequest& request, RunLimits* limits,
                     std::uint64_t* charge) const;

  /// Batch admission (docs/serving.md "Batch admission"). The worker that
  /// popped `head` is the batch *leader*: under mu_ it drains every
  /// queue-co-resident entry matching (shape, mode, engine) from the
  /// prefix before the first delta (the consistency barrier), optionally
  /// holding the window open for late arrivals, then executes the whole
  /// batch under one shared data-lock hold.
  void CollectBatchLocked(std::vector<std::shared_ptr<Pending>>* batch,
                          std::unique_lock<std::mutex>& lock);
  /// Executes a popped head plus the matches collected with it and resolves
  /// every member's promise. A lone request is a batch of one; a delta is
  /// always alone and goes on to RunDelta. One reuse Prepare (CLFTJ-family
  /// engines only); members with identical resolved limits share one engine
  /// run.
  void RunBatch(std::vector<std::shared_ptr<Pending>>& batch);
  /// First queue entry a non-leader worker may pop: skips entries claimed
  /// by an open batch collection (the leader will drain them), and treats
  /// a delta as a two-sided dispatch barrier — nothing behind one is
  /// popped around it, and the delta itself only runs from the true head.
  std::deque<std::shared_ptr<Pending>>::iterator FindPoppableLocked();

  const Database& db_;
  /// Non-null only for the read-write constructor; same object as db_.
  Database* const mutable_db_ = nullptr;
  /// Readers (query workers) vs writers (delta workers) over db_. Only
  /// taken when mutable_db_ is set — a read-only service has no writers.
  std::shared_mutex data_mu_;
  const ServiceOptions options_;
  /// The cross-query reuse layer (null when options_.reuse.enabled is
  /// false). Lives for the whole service: this is what successive requests
  /// warm for each other.
  std::unique_ptr<CrossQueryReuse> reuse_;

  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::deque<std::shared_ptr<Pending>> queue_;
  /// (shape, mode, engine) keys of batches whose leaders are currently
  /// holding a window open. Arrivals matching one are left in the queue
  /// for that leader instead of being popped into a rival mini-batch.
  std::vector<std::string> collecting_;
  std::vector<std::shared_ptr<Pending>> in_flight_;
  std::uint64_t charged_bytes_ = 0;
  bool stopping_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace clftj

#endif  // CLFTJ_SERVER_SERVICE_H_
