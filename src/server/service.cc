#include "server/service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <new>
#include <utility>

#include "query/parser.h"
#include "query/shape.h"
#include "util/fault.h"
#include "util/timer.h"

namespace clftj {

namespace {

QueryResponse MakeError(RunStatus status, std::string message,
                        std::uint64_t retry_after_ms = 0) {
  QueryResponse response;
  response.status = status;
  response.message = std::move(message);
  response.retry_after_ms = retry_after_ms;
  return response;
}

}  // namespace

QueryService::QueryService(const Database& db, ServiceOptions options)
    : QueryService(db, nullptr, std::move(options)) {}

QueryService::QueryService(Database* db, ServiceOptions options)
    : QueryService(*db, db, std::move(options)) {}

QueryService::QueryService(const Database& db, Database* mutable_db,
                           ServiceOptions options)
    : db_(db), mutable_db_(mutable_db), options_(std::move(options)) {
  const int workers = std::max(1, options_.workers);
  if (options_.reuse.enabled) {
    // Stripe the persistent caches for the worst-case prober count: every
    // worker may run a CLFTJ-P request whose shards all touch the shape's
    // shared table concurrently.
    const int probers =
        workers * std::max(1, options_.engine_options.threads);
    reuse_ = std::make_unique<CrossQueryReuse>(
        options_.reuse, PlannerOptions{}, options_.engine_options.cache,
        probers);
  }
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(/*drain=*/true); }

void QueryService::ResolveLimits(const QueryRequest& request,
                                 RunLimits* limits,
                                 std::uint64_t* charge) const {
  const std::uint64_t timeout_ms =
      request.timeout_ms > 0 ? request.timeout_ms : options_.default_timeout_ms;
  const std::uint64_t max_tuples =
      request.max_tuples > 0 ? request.max_tuples : options_.default_max_tuples;
  limits->timeout_seconds = static_cast<double>(timeout_ms) / 1000.0;
  limits->max_intermediate_tuples = max_tuples;
  if (options_.aggregate_budget_bytes == 0) {
    *charge = 0;
  } else if (max_tuples == 0 || max_tuples > options_.aggregate_budget_bytes /
                                                 sizeof(std::uint64_t)) {
    // Unlimited materialization: charge the whole budget, so unlimited
    // requests run one at a time instead of overcommitting together. A
    // bound past the budget is charged the same, never more — which also
    // keeps max_tuples * 8 from wrapping.
    *charge = options_.aggregate_budget_bytes;
  } else {
    *charge = max_tuples * sizeof(std::uint64_t);
  }
}

std::future<QueryResponse> QueryService::Submit(const QueryRequest& request) {
  std::promise<QueryResponse> reject;
  std::future<QueryResponse> reject_future = reject.get_future();

  // Parse + validate before taking a queue slot: a malformed request is a
  // client error, not load, and must not push real work out of the queue.
  auto pending = std::make_shared<Pending>();
  if (request.kind == "delta") {
    if (mutable_db_ == nullptr) {
      reject.set_value(MakeError(
          RunStatus::kBadQuery,
          "read-only service: delta requests need a mutable database"));
      return reject_future;
    }
    // Admission-time validation is Database::ApplyDelta's own check (the
    // relation may not disappear later: deltas never add or drop
    // relations). Reads under the shared lock so a concurrent delta worker
    // cannot tear the relation mid-check.
    {
      std::shared_lock<std::shared_mutex> data_lock(data_mu_);
      std::string error;
      if (!db_.ValidateDelta(request.delta, &error)) {
        reject.set_value(MakeError(RunStatus::kBadQuery, error));
        return reject_future;
      }
    }
    pending->request = request;
    pending->limits.cancel = &pending->cancel;
  } else if (request.kind == "run") {
    std::string error;
    auto query = ParseQuery(request.query_text, &error);
    if (!query.has_value()) {
      reject.set_value(MakeError(RunStatus::kBadQuery, error));
      return reject_future;
    }
    {
      std::shared_lock<std::shared_mutex> data_lock(data_mu_);
      const RunStatus valid = ValidateQueryForDatabase(*query, db_, &error);
      if (valid != RunStatus::kOk) {
        reject.set_value(MakeError(valid, error));
        return reject_future;
      }
    }
    if (request.mode != "count" && request.mode != "eval") {
      reject.set_value(
          MakeError(RunStatus::kBadQuery, "unknown mode: " + request.mode));
      return reject_future;
    }
    const std::string engine_name =
        request.engine.empty() ? options_.engine : request.engine;
    if (!IsKnownEngine(engine_name)) {
      reject.set_value(
          MakeError(RunStatus::kBadQuery, "unknown engine: " + engine_name));
      return reject_future;
    }
    pending->query = std::move(*query);
    pending->request = request;
    pending->request.engine = engine_name;
    ResolveLimits(request, &pending->limits, &pending->charge);
    pending->limits.cancel = &pending->cancel;
    // Batch grouping key. Only CLFTJ-family requests batch: the shared work
    // (plan resolution, substrate acquisition, persistent-cache warming) all
    // lives behind the reuse layer, so without it batching has nothing to
    // share and dispatch stays FIFO.
    if (options_.batch.enabled && options_.batch.max_size > 1 &&
        options_.reuse.enabled &&
        (engine_name == "CLFTJ" || engine_name == "CLFTJ-P")) {
      pending->shape_key = CanonicalShapeKey(pending->query);
    }
  } else {
    reject.set_value(
        MakeError(RunStatus::kBadQuery, "unknown kind: " + request.kind));
    return reject_future;
  }
  std::future<QueryResponse> future = pending->promise.get_future();

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      pending->promise.set_value(MakeError(RunStatus::kShed,
                                           "service is shutting down",
                                           options_.retry_after_ms));
      return future;
    }
    if (queue_.size() >= options_.queue_capacity) {
      pending->promise.set_value(MakeError(
          RunStatus::kShed, "request queue is full", options_.retry_after_ms));
      return future;
    }
    if (options_.aggregate_budget_bytes > 0 &&
        charged_bytes_ + pending->charge > options_.aggregate_budget_bytes &&
        charged_bytes_ > 0) {
      // First request always admits (a charge can exceed the whole budget
      // by itself — see ResolveLimits); beyond that the sum is the bound.
      pending->promise.set_value(MakeError(RunStatus::kShed,
                                           "aggregate byte budget exceeded",
                                           options_.retry_after_ms));
      return future;
    }
    charged_bytes_ += pending->charge;
    queue_.push_back(std::move(pending));
    if (!collecting_.empty()) {
      // A leader is holding a window open on this condition variable; a
      // single token could wake an idle worker instead, which would leave
      // the arrival undrained until the window times out.
      work_ready_.notify_all();
    } else {
      work_ready_.notify_one();
    }
    return future;
  }
}

QueryResponse QueryService::Execute(const QueryRequest& request) {
  return Submit(request).get();
}

void QueryService::WorkerLoop() {
  for (;;) {
    std::vector<std::shared_ptr<Pending>> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      std::deque<std::shared_ptr<Pending>>::iterator take;
      for (;;) {
        work_ready_.wait(lock, [this] {
          return FindPoppableLocked() != queue_.end() ||
                 (stopping_ && queue_.empty());
        });
        take = FindPoppableLocked();
        if (take != queue_.end()) break;
        if (queue_.empty()) return;  // stopping and drained
      }
      std::shared_ptr<Pending> head = std::move(*take);
      queue_.erase(take);
      in_flight_.push_back(head);
      batch.push_back(std::move(head));
      // Pop + collect happen in one critical section: sibling workers can
      // never race the leader to the head's matches and split one batch
      // into several mini-batches.
      if (!batch.front()->shape_key.empty()) CollectBatchLocked(&batch, lock);
    }
    RunBatch(batch);
  }
}

std::deque<std::shared_ptr<QueryService::Pending>>::iterator
QueryService::FindPoppableLocked() {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    const Pending& p = **it;
    if (p.request.kind == "delta") {
      // Two-sided barrier: the delta runs only from the true head (so it
      // observes every earlier run's admission), and nothing behind it is
      // popped around it (so later runs observe the post-delta database).
      return it == queue_.begin() ? it : queue_.end();
    }
    if (p.shape_key.empty() ||
        std::find(collecting_.begin(), collecting_.end(),
                  p.shape_key + '\x1f' + p.request.mode + '\x1f' +
                      p.request.engine) == collecting_.end()) {
      return it;
    }
    // Claimed by a collecting leader: leave it for that batch.
  }
  return queue_.end();
}

void QueryService::CollectBatchLocked(
    std::vector<std::shared_ptr<Pending>>* batch,
    std::unique_lock<std::mutex>& lock) {
  const std::string shape_key = batch->front()->shape_key;
  const std::string mode = batch->front()->request.mode;
  const std::string engine = batch->front()->request.engine;
  const std::size_t max_size =
      static_cast<std::size_t>(std::max(1, options_.batch.max_size));
  const auto take_matches = [&] {
    for (auto it = queue_.begin();
         it != queue_.end() && batch->size() < max_size;) {
      const Pending& p = **it;
      // Delta barrier: a member admitted after a queued delta must observe
      // the post-delta database, so it can never share a run with members
      // admitted before it. Matches beyond the first delta stay queued.
      if (p.request.kind == "delta") break;
      if (p.shape_key == shape_key && p.request.mode == mode &&
          p.request.engine == engine) {
        in_flight_.push_back(*it);
        batch->push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  };
  take_matches();
  if (options_.batch.window_ms == 0) return;
  // Claim the key for the duration of the window: sibling workers skip
  // matching arrivals (FindPoppableLocked) so they join this batch instead
  // of seeding rival mini-batches.
  const std::string claim = shape_key + '\x1f' + mode + '\x1f' + engine;
  collecting_.push_back(claim);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.batch.window_ms);
  while (batch->size() < max_size && !stopping_) {
    if (work_ready_.wait_until(lock, deadline) == std::cv_status::timeout) {
      take_matches();
      break;
    }
    take_matches();
    // The leader may have consumed a wakeup meant for a sibling worker;
    // pass the token along so non-matching work is not starved while the
    // window is open.
    if (!queue_.empty()) work_ready_.notify_one();
  }
  collecting_.erase(std::find(collecting_.begin(), collecting_.end(), claim));
  // Matches beyond max_size (or behind a delta) just became poppable again.
  if (!queue_.empty()) work_ready_.notify_all();
}

void QueryService::RunBatch(std::vector<std::shared_ptr<Pending>>& batch) {
  // Injected slow worker, one fire per member: stalls here build real queue
  // pressure (the admission-control chaos scenarios), and the fault site
  // observes the same number of dispatches FIFO would have produced.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    fault::MaybeDelay(fault::Site::kWorkerDelay);
  }
  const std::size_t n = batch.size();
  std::vector<QueryResponse> responses(n);
  std::vector<std::size_t> active;
  active.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (batch[i]->cancel.Tripped()) {
      responses[i] = MakeError(RunStatus::kCancelled, "cancelled while queued");
    } else {
      active.push_back(i);
    }
  }
  if (!active.empty() && batch.front()->request.kind == "delta") {
    // A delta carries no shape key, so it is always a batch of one.
    responses.front() = RunDelta(*batch.front());
  } else if (!active.empty()) {
    // One shared data-lock hold for the whole batch: every member observes
    // the same database state, exactly as if it had run alone between the
    // same two deltas. A read-only service has no writers, so the lock is
    // skipped entirely.
    std::shared_lock<std::shared_mutex> data_lock(data_mu_, std::defer_lock);
    if (mutable_db_ != nullptr) data_lock.lock();
    Pending& head = *batch[active.front()];
    ExecStats reuse_stats;
    // Must outlive the engine runs: engines borrow the striped caches by
    // raw pointer and the plan/substrate by shared_ptr.
    CrossQueryReuse::Prepared prepared;
    bool prepare_ok = true;
    QueryResponse prepare_error;
    try {
      if (reuse_ != nullptr && (head.request.engine == "CLFTJ" ||
                                head.request.engine == "CLFTJ-P")) {
        prepared = reuse_->Prepare(head.query, db_, &reuse_stats);
      }
    } catch (const std::exception& e) {
      prepare_ok = false;
      prepare_error = MakeError(RunStatus::kInternal, e.what());
    }
    if (!prepare_ok) {
      for (const std::size_t i : active) responses[i] = prepare_error;
    } else {
      // Sub-cohorts: members with identical resolved limits share one
      // engine run (same shape key means identical VarId semantics, so the
      // response is member-interchangeable); a member with stricter limits
      // must be able to trip them itself, so it runs separately.
      std::vector<std::vector<std::size_t>> groups;
      for (const std::size_t i : active) {
        const RunLimits& limits = batch[i]->limits;
        bool placed = false;
        for (std::vector<std::size_t>& group : groups) {
          const RunLimits& first = batch[group.front()]->limits;
          if (first.timeout_seconds == limits.timeout_seconds &&
              first.max_intermediate_tuples == limits.max_intermediate_tuples) {
            group.push_back(i);
            placed = true;
            break;
          }
        }
        if (!placed) groups.push_back({i});
      }
      for (const std::vector<std::size_t>& group : groups) {
        Pending& first = *batch[group.front()];
        try {
          EngineOptions engine_options = options_.engine_options;
          engine_options.prepared_plan = prepared.plan;
          engine_options.prepared_substrate = prepared.substrate;
          if (prepared.caches != nullptr) {
            if (first.request.mode == "count") {
              engine_options.shared_count_cache = &prepared.caches->count;
            } else {
              engine_options.shared_eval_cache = &prepared.caches->eval;
            }
          }
          std::string engine_name = first.request.engine;
          if (options_.batch.parallelize_shared && group.size() >= 2 &&
              engine_name == "CLFTJ" && first.request.mode == "count") {
            // Fan the shared run across shards: N requests' worth of work
            // funneled into one run earns the parallel engine. Counts are
            // bit-identical at any thread count (the PR 2 guarantee); eval
            // is never escalated because the sharded tuple stream is only
            // interleaving-equivalent, not stream-identical.
            engine_name = "CLFTJ-P";
            engine_options.threads = std::max(
                1, std::min(static_cast<int>(group.size()),
                            std::max(1, options_.workers)));
          }
          const std::unique_ptr<JoinEngine> engine =
              MakeEngine(engine_name, engine_options);
          QueryResponse shared;
          RunResult result;
          if (first.request.mode == "count") {
            result = engine->Count(first.query, db_, first.limits);
          } else {
            result = engine->Evaluate(
                first.query, db_,
                [&shared](const Tuple& t) { shared.tuples.push_back(t); },
                first.limits);
          }
          shared.status = result.status;
          shared.message = result.message;
          shared.count = result.count;
          shared.seconds = result.seconds;
          shared.stats = result.stats;
          if (shared.status != RunStatus::kOk) shared.tuples.clear();
          if (group.size() >= 2) shared.stats.batch_shared_execs = 1;
          for (std::size_t k = 0; k + 1 < group.size(); ++k) {
            responses[group[k]] = shared;
          }
          responses[group.back()] = std::move(shared);
        } catch (const std::exception& e) {
          for (const std::size_t i : group) {
            responses[i] = MakeError(RunStatus::kInternal, e.what());
          }
        }
      }
    }
    // Reuse counters ride on the first active member only: the batch did
    // one Prepare, so batch-total counters must read as one request's.
    responses[active.front()].stats.Merge(reuse_stats);
  }
  // A lone request reports batch_size 0: it shared nothing.
  if (n > 1) {
    for (QueryResponse& response : responses) {
      response.stats.batch_size = static_cast<std::uint64_t>(n);
    }
  }
  // Release the charges and retire the in-flight entries *before*
  // resolving any future: a caller that observes its response must also
  // observe the budget it held as freed (ChargedBytes() settling is part of
  // the response contract).
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::shared_ptr<Pending>& member : batch) {
      charged_bytes_ -= member->charge;
      in_flight_.erase(
          std::find(in_flight_.begin(), in_flight_.end(), member));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    batch[i]->promise.set_value(std::move(responses[i]));
  }
}

QueryResponse QueryService::RunDelta(Pending& pending) {
  QueryResponse response;
  Timer timer;
  // Exclusive over the query workers' shared lock: the batch applies as one
  // atomic visibility step — no query observes a half-applied delta.
  std::unique_lock<std::shared_mutex> data_lock(data_mu_);
  std::string error;
  DeltaResult result;
  if (!mutable_db_->ApplyDelta(pending.request.delta, &error, &result)) {
    return MakeError(RunStatus::kBadQuery, std::move(error));
  }
  response.count = result.applied_adds + result.applied_deletes;
  response.seconds = timer.Seconds();
  return response;
}

void QueryService::Shutdown(bool drain) {
  std::deque<std::shared_ptr<Pending>> abandoned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    if (!drain) {
      abandoned.swap(queue_);
      for (const auto& pending : in_flight_) {
        pending->cancel.Trip(RunStatus::kCancelled);
      }
    }
  }
  for (const auto& pending : abandoned) {
    pending->cancel.Trip(RunStatus::kCancelled);
    std::lock_guard<std::mutex> lock(mu_);
    charged_bytes_ -= pending->charge;
    pending->promise.set_value(
        MakeError(RunStatus::kCancelled, "cancelled at shutdown"));
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

std::size_t QueryService::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::uint64_t QueryService::ChargedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return charged_bytes_;
}

}  // namespace clftj
