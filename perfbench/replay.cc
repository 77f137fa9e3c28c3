#include "replay.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "engine/engine.h"
#include "engine/reuse.h"
#include "query/parser.h"
#include "query/shape.h"
#include "server/protocol.h"
#include "td/planner.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

class Replayer {
 public:
  Replayer(const clftj::ServiceOptions& options, ReplayResult* out,
           SpanLog* spans)
      : options_(options),
        // Configured as QueryService configures its own reuse layer.
        reuse_(options.reuse, clftj::PlannerOptions{},
               options.engine_options.cache,
               std::max(1, options.workers) *
                   std::max(1, options.engine_options.threads)),
        db_(MakeBenchDatabase()),
        out_(*out),
        spans_(spans) {}

  void Run(const ScheduledRequest& r, bool record) {
    record_ = record;
    const Clock::time_point start = Clock::now();
    std::string root = "replay.request";
    if (r.request.kind == "delta") {
      const Clock::time_point t = Clock::now();
      std::string error;
      db_.ApplyDelta(r.request.delta, &error);
      Span(r.index, "data.apply_delta", root, t, Clock::now(),
           &out_.apply_delta_ms, 1e-3);
      ++deltas_applied_;
    } else {
      RunRead(r, root);
    }
    Span(r.index, root, "", start, Clock::now(), nullptr, 0.0);
  }

  void Finish() {
    for (const auto& caches : shape_caches_) {
      for (const clftj::ExecStats& s :
           {caches->count.AggregatedStats(), caches->eval.AggregatedStats()}) {
        const std::uint64_t entries = out_.cache_stats.cache_entries_peak;
        const std::uint64_t bytes = out_.cache_stats.cache_bytes_peak;
        out_.cache_stats.Merge(s);
        out_.cache_stats.cache_entries_peak = entries + s.cache_entries_peak;
        out_.cache_stats.cache_bytes_peak = bytes + s.cache_bytes_peak;
      }
      out_.cache_hot_hits += caches->count.HotHits() + caches->eval.HotHits();
    }
  }

 private:
  void RunRead(const ScheduledRequest& r, const std::string& root) {
    ReplayAnswer answer;
    answer.index = r.index;
    answer.shape = r.shape;
    answer.mode = r.request.mode;
    answer.state = deltas_applied_;

    Clock::time_point t = Clock::now();
    clftj::QueryRequest request;
    std::string error;
    const bool parsed =
        clftj::ParseRequest(clftj::FormatRequest(r.request), &request, &error);
    Span(r.index, "server.protocol.parse_request", root, t, Clock::now(),
         nullptr, 0.0);
    if (!parsed) return Answer(answer);

    t = Clock::now();
    const auto query = clftj::ParseQuery(request.query_text, &error);
    bool valid = query.has_value() &&
                 clftj::ValidateQueryForDatabase(*query, db_, &error) ==
                     clftj::RunStatus::kOk;
    // The service derives the batch key at admission; time it here too.
    if (valid) last_shape_key_ = clftj::CanonicalShapeKey(*query);
    Span(r.index, "query.parse_validate", root, t, Clock::now(),
         &out_.parse_validate_us, 1.0);
    if (!valid) return Answer(answer);

    clftj::ExecStats reuse_stats;
    t = Clock::now();
    const clftj::CrossQueryReuse::Prepared prepared =
        reuse_.Prepare(*query, db_, &reuse_stats);
    Span(r.index, "engine.reuse.prepare", root, t, Clock::now(),
         &out_.prepare_ms, 1e-3);
    if (record_) {
      out_.prepare_stats.Merge(reuse_stats);
      out_.plan_resolve_ms.push_back(
          static_cast<double>(reuse_stats.plan_resolve_ns) * 1e-6);
      if (prepared.caches != nullptr) shape_caches_.insert(prepared.caches);
    }

    clftj::EngineOptions engine_options = options_.engine_options;
    engine_options.prepared_plan = prepared.plan;
    engine_options.prepared_substrate = prepared.substrate;
    const bool count_mode = request.mode == "count";
    if (prepared.caches != nullptr) {
      if (count_mode) {
        engine_options.shared_count_cache = &prepared.caches->count;
      } else {
        engine_options.shared_eval_cache = &prepared.caches->eval;
      }
    }
    const std::string engine_name =
        request.engine.empty() ? options_.engine : request.engine;
    clftj::RunLimits limits;
    limits.timeout_seconds = static_cast<double>(request.timeout_ms) / 1000.0;
    clftj::QueryResponse response;
    t = Clock::now();
    const std::unique_ptr<clftj::JoinEngine> engine =
        clftj::MakeEngine(engine_name, engine_options);
    clftj::RunResult result;
    if (count_mode) {
      result = engine->Count(*query, db_, limits);
    } else {
      result = engine->Evaluate(
          *query, db_,
          [&response](const clftj::Tuple& tuple) {
            response.tuples.push_back(tuple);
          },
          limits);
    }
    Span(r.index, "clftj.exec", root, t, Clock::now(), nullptr, 0.0);
    if (record_) out_.engine_stats.Merge(result.stats);

    response.status = result.status;
    response.count = result.count;
    response.seconds = result.seconds;
    response.stats = result.stats;
    response.stats.Merge(reuse_stats);
    t = Clock::now();
    const std::vector<std::string> lines = clftj::FormatResponse(response);
    Span(r.index, "server.protocol.format_response", root, t, Clock::now(),
         &out_.format_response_us, 1.0);

    answer.ok = response.status == clftj::RunStatus::kOk && !lines.empty();
    answer.count = response.count;
    for (const clftj::Tuple& tuple : response.tuples) {
      answer.tuple_checksum += TupleHash(tuple);
    }
    Answer(answer);
  }

  void Answer(const ReplayAnswer& answer) {
    if (record_) out_.answers.push_back(answer);
  }

  // Records a span (and, when `values` is set, its duration scaled by
  // `scale` from microseconds) for recorded requests only.
  void Span(std::size_t id, const std::string& name, const std::string& parent,
            Clock::time_point start, Clock::time_point end,
            std::vector<double>* values, double scale) {
    if (!record_) return;
    if (values != nullptr) values->push_back(Micros(start, end) * scale);
    if (spans_ != nullptr) spans_->Add(id, name, parent, start, end);
  }

  const clftj::ServiceOptions& options_;
  clftj::CrossQueryReuse reuse_;
  Database db_;
  ReplayResult& out_;
  SpanLog* spans_;
  bool record_ = false;
  std::size_t deltas_applied_ = 0;
  std::string last_shape_key_;
  std::set<std::shared_ptr<clftj::ShapeCaches>> shape_caches_;
};

}  // namespace

ReplayResult Replay(const Workload& workload,
                    const clftj::ServiceOptions& options, SpanLog* spans) {
  ReplayResult out;
  Replayer replayer(options, &out, spans);
  for (const ScheduledRequest& r : workload.warmup) replayer.Run(r, false);
  const std::uint64_t searches_before = clftj::PlannerSearchCount();
  const std::size_t n = std::min(workload.replay_count, workload.stream.size());
  for (std::size_t i = 0; i < n; ++i) replayer.Run(workload.stream[i], true);
  out.planner_searches = clftj::PlannerSearchCount() - searches_before;
  replayer.Finish();
  return out;
}

}  // namespace perfbench
