// The repository's serving benchmark (see perfbench/README.md).
//
//   serve_bench --workload warm-serve --seed 1 --seconds 15 --trace 0
//
// Starts QueryServer + QueryService in-process on an AF_UNIX socket over
// the wiki-Vote profile, sets up (dataset, service, server, warm-up pass)
// several times and keeps the last, then drives the workload's seeded
// schedule through the socket for --seconds. Every answer is checked
// against a standalone CLFTJ run with no reuse injection, computed after
// the window. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1 (which adds client spans and
// a sequential in-process replay of the same requests). Exits 0 only if
// every answer was right; 2 on a usage or set-up error, with no JSON.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench.h"
#include "engine/engine.h"
#include "query/parser.h"
#include "replay.h"
#include "server/server.h"
#include "socket_driver.h"
#include "util/simd.h"
#include "util/timer.h"

namespace perfbench {
namespace {

constexpr int kSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string socket_path;
  std::string trace_out;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--socket") {
      args->socket_path = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Serving stack

struct Stack {
  std::unique_ptr<Database> db;
  std::unique_ptr<clftj::QueryService> service;
  std::unique_ptr<clftj::QueryServer> server;

  void Stop() {
    if (server != nullptr) server->Stop();
    if (service != nullptr) service->Shutdown(/*drain=*/true);
  }

  // Tears down in dependency order: server, then service, then data.
  void Reset() {
    Stop();
    server.reset();
    service.reset();
    db.reset();
  }
};

bool StartStack(const Workload& w, const clftj::ServiceOptions& options,
                const std::string& socket_path, Stack* stack,
                std::string* error) {
  stack->db = std::make_unique<Database>(MakeBenchDatabase());
  if (w.read_write) {
    stack->service =
        std::make_unique<clftj::QueryService>(stack->db.get(), options);
  } else {
    const Database& db = *stack->db;
    stack->service = std::make_unique<clftj::QueryService>(db, options);
  }
  stack->server = std::make_unique<clftj::QueryServer>(stack->service.get());
  return stack->server->Start(socket_path, error);
}

DriveOptions BaseDrive(const Workload& w, const std::string& socket_path) {
  DriveOptions d;
  d.socket_path = socket_path;
  d.connections = w.connections;
  d.first_read_connection = w.read_write ? 1 : 0;
  return d;
}

// Sends every request at once and waits for all of them; true if all OK.
bool DriveAll(const std::vector<ScheduledRequest>& requests, const Workload& w,
              const std::string& socket_path, std::vector<Outcome>* outcomes,
              std::string* error) {
  std::vector<ScheduledRequest> burst = requests;
  for (ScheduledRequest& r : burst) r.due_s = 0.0;
  DriveOptions d = BaseDrive(w, socket_path);
  d.open_loop = true;
  if (!Drive(burst, d, outcomes, error)) return false;
  ParseOutcomes(outcomes, nullptr);
  for (const Outcome& o : *outcomes) {
    if (!o.parsed || o.response.status != clftj::RunStatus::kOk) {
      *error = "a set-up request failed: " + o.response.message;
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// References: a standalone CLFTJ run per (shape, mode, data state), on a
// database rebuilt from the bench's own edge set — no reuse injection and
// no use of the delta machinery under test.

using RefKey = std::tuple<int, std::string, std::size_t>;

struct RefValue {
  bool ok = false;
  std::uint64_t count = 0;
  std::uint64_t checksum = 0;
};

std::map<RefKey, RefValue> ComputeReferences(
    const std::set<RefKey>& keys, const std::vector<std::string>& shapes,
    const std::vector<clftj::DeltaBatch>& deltas) {
  // Data state k = the initial E with the first k DELTAs applied.
  std::set<std::size_t> states;
  for (const RefKey& k : keys) states.insert(std::get<2>(k));
  std::map<std::size_t, std::shared_ptr<Database>> dbs;
  const Database initial = MakeBenchDatabase();
  std::set<std::pair<clftj::Value, clftj::Value>> edges;
  {
    const clftj::Relation& e = initial.Get("E");
    for (std::size_t i = 0; i < e.size(); ++i) {
      edges.insert({e.At(i, 0), e.At(i, 1)});
    }
  }
  std::size_t applied = 0;
  for (const std::size_t state : states) {
    for (; applied < state && applied < deltas.size(); ++applied) {
      for (const clftj::Tuple& t : deltas[applied].deletes) {
        edges.erase({t[0], t[1]});
      }
      for (const clftj::Tuple& t : deltas[applied].adds) {
        edges.insert({t[0], t[1]});
      }
    }
    clftj::Relation rel("E", 2);
    rel.Reserve(edges.size());
    for (const auto& [u, v] : edges) rel.AddPair(u, v);
    auto db = std::make_shared<Database>();
    db->Put(std::move(rel));
    dbs[state] = std::move(db);
  }

  const std::vector<RefKey> work(keys.begin(), keys.end());
  std::vector<RefValue> values(work.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < work.size(); i = next++) {
      const auto& [shape, mode, state] = work[i];
      const Database& db = *dbs.at(state);
      const auto query = clftj::ParseQuery(shapes[shape]);
      if (!query.has_value()) continue;
      const auto engine = clftj::MakeEngine("CLFTJ");
      RefValue& v = values[i];
      clftj::RunResult result;
      if (mode == "count") {
        result = engine->Count(*query, db, {});
      } else {
        result = engine->Evaluate(
            *query, db,
            [&v](const clftj::Tuple& t) { v.checksum += TupleHash(t); }, {});
      }
      v.ok = result.status == clftj::RunStatus::kOk;
      v.count = result.count;
    }
  };
  const unsigned threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  std::map<RefKey, RefValue> out;
  for (std::size_t i = 0; i < work.size(); ++i) out[work[i]] = values[i];
  return out;
}

// True if `count`/`checksum` equal the reference of some state in
// [lo, hi] for this shape and mode.
bool MatchesSomeState(const std::map<RefKey, RefValue>& refs, int shape,
                      const std::string& mode, std::size_t lo, std::size_t hi,
                      std::uint64_t count, std::uint64_t checksum,
                      std::size_t tuples) {
  for (std::size_t k = lo; k <= hi; ++k) {
    const auto it = refs.find({shape, mode, k});
    if (it == refs.end() || !it->second.ok) continue;
    if (it->second.count != count) continue;
    if (mode == "eval" && (tuples != count || it->second.checksum != checksum)) {
      continue;
    }
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------

std::string MetaJson(const Args& args, const Workload& w,
                     const clftj::ServiceOptions& o, std::size_t e_rows) {
  std::ostringstream s;
  s << "{\"workload\": " << Json(w.name) << ", \"seed\": " << args.seed
    << ", \"seconds\": " << Number(args.seconds)
    << ", \"loop\": " << Json(w.open_loop ? "open" : "closed")
    << ", \"offered_rps\": " << Number(w.rate_rps)
    << ", \"connections\": " << w.connections
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"simd\": " << Json(clftj::simd::Describe())
    << ", \"dataset\": \"wiki-Vote\", \"e_rows\": " << e_rows
    << ", \"setups\": " << kSetups << ", \"commit\": " << Json(args.commit)
    << ", \"service\": {\"workers\": " << o.workers
    << ", \"queue_capacity\": " << o.queue_capacity
    << ", \"aggregate_budget_bytes\": " << o.aggregate_budget_bytes
    << ", \"engine\": " << Json(o.engine)
    << ", \"reuse\": {\"enabled\": " << o.reuse.enabled
    << ", \"plan_cache_capacity\": " << o.reuse.plan_cache_capacity
    << ", \"max_shape_caches\": " << o.reuse.max_shape_caches
    << ", \"hot_stripe_reads\": " << o.reuse.hot_stripe_reads
    << ", \"cross_shape_seed\": " << o.reuse.cross_shape_seed
    << "}, \"batch\": {\"enabled\": " << o.batch.enabled
    << ", \"max_size\": " << o.batch.max_size
    << ", \"window_ms\": " << o.batch.window_ms
    << ", \"parallelize_shared\": " << o.batch.parallelize_shared << "}}}";
  return s.str();
}

// Every ExecStats counter, by its wire key: merge the responses' stats and
// read them back through ToWire, so no counter is left out by hand.
void AddWireMetrics(const clftj::ExecStats& merged, Metrics* m) {
  std::istringstream in(merged.ToWire());
  std::string field;
  while (std::getline(in, field, ',')) {
    const std::size_t colon = field.find(':');
    if (colon == std::string::npos) continue;
    m->Set("wire." + field.substr(0, colon),
           std::strtod(field.c_str() + colon + 1, nullptr), "count");
  }
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--socket <path>] [--trace-out <path>] "
                 "[--commit <id>]\n");
    return 2;
  }
  if (args.socket_path.empty()) {
    args.socket_path = "serve_bench-" + std::to_string(::getpid()) + ".sock";
  }
  const Database initial = MakeBenchDatabase();
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, args.seconds, initial, &w)) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  clftj::ServiceOptions options;  // the defaults users get

  // Set-up, several times: the median is the reported set-up time and the
  // last stack serves the measured window.
  std::vector<double> setup_s;
  double setup_heap_mb = 0.0;
  Stack stack;
  std::string error;
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) {
      stack.Reset();
      // Hand the torn-down stack's heap back, so the peak RSS reported
      // below is one stack's, not the sum of the set-ups' leftovers, and
      // the heap figure is the live stack's alone.
      malloc_trim(0);
    }
    clftj::Timer timer;
    std::vector<Outcome> warm;
    if (!StartStack(w, options, args.socket_path, &stack, &error) ||
        !DriveAll(w.warmup, w, args.socket_path, &warm, &error)) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      stack.Stop();
      return 2;
    }
    setup_s.push_back(timer.Seconds());
    setup_heap_mb = HeapInUseMb();  // outside the timer: it is slow
  }

  // The measured window.
  SpanLog spans(std::chrono::steady_clock::now());
  DriveOptions d = BaseDrive(w, args.socket_path);
  d.open_loop = w.open_loop;
  d.seconds = args.seconds;
  if (args.trace) {
    d.service = stack.service.get();
    d.spans = &spans;
  }
  std::vector<Outcome> outcomes;
  if (!Drive(w.stream, d, &outcomes, &error)) {
    std::fprintf(stderr, "connect failed: %s\n", error.c_str());
    stack.Stop();
    return 2;
  }
  const double rss_mb = PeakRssMb();
  const double heap_mb = HeapInUseMb();
  ParseOutcomes(&outcomes, args.trace ? &spans : nullptr);

  // write-mix: a quiescent final read of every shape and of E itself.
  std::vector<std::string> shapes = w.shapes;
  std::vector<ScheduledRequest> final_reads;
  std::vector<Outcome> final_outcomes;
  std::size_t deltas_sent = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].sent && w.stream[i].shape < 0) ++deltas_sent;
  }
  if (w.read_write) {
    shapes.push_back("E(x,y)");
    for (int s = 0; s < static_cast<int>(shapes.size()); ++s) {
      ScheduledRequest r;
      r.index = final_reads.size();
      r.shape = s;
      r.request.query_text = shapes[s];
      r.request.mode = s + 1 == static_cast<int>(shapes.size()) ? "eval"
                                                                 : "count";
      final_reads.push_back(r);
    }
    std::string final_error;
    if (!DriveAll(final_reads, w, args.socket_path, &final_outcomes,
                  &final_error)) {
      std::fprintf(stderr, "final read: %s\n", final_error.c_str());
    }
  }
  stack.Stop();
  const clftj::Relation* served_e = stack.db->Find("E");
  const double compactions =
      served_e == nullptr ? 0.0 : static_cast<double>(served_e->compactions());

  ReplayResult replay;
  if (args.trace) replay = Replay(w, options, &spans);

  // The correctness gate.
  std::set<RefKey> needed;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    const ScheduledRequest& r = w.stream[i];
    if (!o.parsed || r.shape < 0) continue;
    const std::size_t hi = std::min(o.deltas_sent_at_done, w.deltas.size());
    for (std::size_t k = o.deltas_acked_at_send; k <= hi; ++k) {
      needed.insert({r.shape, r.request.mode, k});
    }
  }
  for (const ScheduledRequest& r : final_reads) {
    needed.insert({r.shape, r.request.mode, deltas_sent});
  }
  for (const ReplayAnswer& a : replay.answers) {
    if (a.shape >= 0) needed.insert({a.shape, a.mode, a.state});
  }
  const std::map<RefKey, RefValue> refs =
      ComputeReferences(needed, shapes, w.deltas);

  std::size_t attempted = 0, failed = 0, shed = 0;
  std::vector<double> read_ms, write_ms;
  std::map<std::pair<int, std::string>, std::vector<double>> by_shape;
  double last_done_s = 0.0;
  std::size_t ok = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    const ScheduledRequest& r = w.stream[i];
    if (!o.sent) continue;
    ++attempted;
    const bool status_ok =
        o.parsed && o.response.status == clftj::RunStatus::kOk;
    if (o.parsed && o.response.status == clftj::RunStatus::kShed) ++shed;
    bool right = status_ok;
    if (right && r.shape >= 0) {
      right = MatchesSomeState(
          refs, r.shape, r.request.mode, o.deltas_acked_at_send,
          std::min(o.deltas_sent_at_done, w.deltas.size()), o.response.count,
          o.tuple_checksum, o.tuple_count);
    } else if (right) {
      right = o.response.count ==
              r.request.delta.adds.size() + r.request.delta.deletes.size();
    }
    if (!right) {
      ++failed;
      continue;
    }
    ++ok;
    last_done_s = std::max(last_done_s, o.done_s);
    const double latency_ms = (o.done_s - o.due_s) * 1e3;
    (r.shape >= 0 ? read_ms : write_ms).push_back(latency_ms);
    if (r.shape >= 0) by_shape[{r.shape, r.request.mode}].push_back(latency_ms);
  }
  bool correct = failed == 0 && attempted > 0;
  std::size_t final_wrong = 0;
  for (std::size_t i = 0; i < final_outcomes.size(); ++i) {
    const Outcome& o = final_outcomes[i];
    const ScheduledRequest& r = final_reads[i];
    if (!o.parsed || o.response.status != clftj::RunStatus::kOk ||
        !MatchesSomeState(refs, r.shape, r.request.mode, deltas_sent,
                          deltas_sent, o.response.count, o.tuple_checksum,
                          o.tuple_count)) {
      ++final_wrong;
    }
  }
  if (w.read_write && final_outcomes.size() != final_reads.size()) {
    final_wrong = final_reads.size();
  }
  std::size_t replay_wrong = 0;
  for (const ReplayAnswer& a : replay.answers) {
    if (a.shape >= 0 &&
        (!a.ok || !MatchesSomeState(refs, a.shape, a.mode, a.state, a.state,
                                    a.count, a.tuple_checksum, a.count))) {
      ++replay_wrong;
    }
  }
  if (final_wrong > 0 || replay_wrong > 0) correct = false;
  failed += final_wrong + replay_wrong;

  const double window_s = std::max(args.seconds, last_done_s);
  Metrics m;
  if (!args.trace) {
    m.Set("latency_p50_ms", Percentile(read_ms, 50), "ms");
    // p95, not p99: it is the highest percentile with ten samples beyond
    // it on every workload (warm-serve answers ~300 reads in 25 s).
    m.Set("latency_p95_ms", Percentile(read_ms, 95), "ms");
    m.Set("throughput_rps", static_cast<double>(ok) / window_s, "1/s");
    m.Set("heap_mb", setup_heap_mb, "MB");
    m.Set("setup_s", Percentile(setup_s, 50), "s");
  } else {
    std::vector<double> residual_ms, exec_ms, decode_us, bytes, delta_ms,
        send_lag_ms, batch_size;
    double shared = 0.0, depth_max = 0.0;
    clftj::ExecStats merged;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const Outcome& o = outcomes[i];
      if (!o.sent) continue;
      send_lag_ms.push_back((o.send_s - o.due_s) * 1e3);
      depth_max = std::max(depth_max, static_cast<double>(o.queue_depth_at_send));
      if (!o.completed) continue;
      decode_us.push_back(o.decode_us);
      bytes.push_back(static_cast<double>(o.response_bytes));
      if (!o.parsed || o.response.status != clftj::RunStatus::kOk) continue;
      const clftj::QueryResponse& resp = o.response;
      merged.Merge(resp.stats);
      if (w.stream[i].shape < 0) {
        delta_ms.push_back(resp.seconds * 1e3);
        continue;
      }
      exec_ms.push_back(resp.seconds * 1e3);
      residual_ms.push_back((o.done_s - o.send_s) * 1e3 - resp.seconds * 1e3 -
                            static_cast<double>(resp.stats.plan_resolve_ns +
                                                resp.stats.substrate_build_ns) *
                                1e-6);
      batch_size.push_back(static_cast<double>(resp.stats.batch_size));
      shared += static_cast<double>(resp.stats.batch_shared_execs);
    }
    const double reads_ok = static_cast<double>(exec_ms.size());
    const clftj::ExecStats& p = replay.prepare_stats;
    const clftj::ExecStats& c = replay.cache_stats;
    const double hits = static_cast<double>(c.cache_hits + replay.cache_hot_hits);
    m.Set("server.residual_ms.p50", Percentile(residual_ms, 50), "ms");
    m.Set("server.residual_ms.p99", Percentile(residual_ms, 99), "ms");
    m.Set("server.protocol.parse_response_us.p50", Percentile(decode_us, 50), "us");
    m.Set("server.protocol.format_response_us.p50",
          Percentile(replay.format_response_us, 50), "us");
    m.Set("server.protocol.response_bytes.mean", Mean(bytes), "bytes");
    m.Set("service.queue_depth.max", depth_max, "count");
    m.Set("service.batch_size.mean", Mean(batch_size), "count");
    m.Set("service.shared_exec_frac", Ratio(shared, reads_ok), "ratio");
    m.Set("service.shed_frac",
          Ratio(static_cast<double>(shed), static_cast<double>(attempted)),
          "ratio");
    m.Set("service.delta_exec_ms.p99", Percentile(delta_ms, 99), "ms");
    m.Set("query.parse_validate_us.p50", Percentile(replay.parse_validate_us, 50),
          "us");
    m.Set("engine.reuse.prepare_ms.p50", Percentile(replay.prepare_ms, 50), "ms");
    m.Set("engine.reuse.prepare_ms.p99", Percentile(replay.prepare_ms, 99), "ms");
    m.Set("engine.reuse.plan_hit_ratio",
          Ratio(static_cast<double>(p.plan_cache_hits),
                static_cast<double>(p.plan_cache_hits + p.plan_cache_misses)),
          "ratio");
    m.Set("engine.reuse.substrate_builds",
          static_cast<double>(p.substrate_builds), "count");
    m.Set("engine.reuse.substrate_reuse_ratio",
          Ratio(static_cast<double>(p.substrate_reuses),
                static_cast<double>(p.substrate_builds + p.substrate_reuses)),
          "ratio");
    m.Set("engine.reuse.prefix_seeds", static_cast<double>(p.batch_prefix_seeds),
          "count");
    m.Set("td.plan_resolve_ms.sum", static_cast<double>(p.plan_resolve_ns) * 1e-6,
          "ms");
    m.Set("td.plan_resolve_ms.p50", Percentile(replay.plan_resolve_ms, 50), "ms");
    m.Set("td.planner_searches", static_cast<double>(replay.planner_searches),
          "count");
    m.Set("trie.substrate_build_ms.sum",
          static_cast<double>(p.substrate_build_ns) * 1e-6, "ms");
    m.Set("clftj.exec_ms.p50", Percentile(exec_ms, 50), "ms");
    m.Set("clftj.exec_ms.p99", Percentile(exec_ms, 99), "ms");
    m.Set("clftj.memory_accesses.sum",
          static_cast<double>(replay.engine_stats.memory_accesses +
                              c.memory_accesses),
          "count");
    m.Set("clftj.intermediate_tuples.sum",
          static_cast<double>(replay.engine_stats.intermediate_tuples), "count");
    m.Set("clftj.cache_hit_ratio",
          Ratio(hits, hits + static_cast<double>(c.cache_misses)), "ratio");
    m.Set("clftj.cache_hot_hits.sum", static_cast<double>(replay.cache_hot_hits),
          "count");
    m.Set("clftj.cache_inserts.sum", static_cast<double>(c.cache_inserts), "count");
    m.Set("clftj.cache_evictions.sum", static_cast<double>(c.cache_evictions),
          "count");
    m.Set("clftj.cache_entries_peak", static_cast<double>(c.cache_entries_peak),
          "count");
    m.Set("clftj.cache_bytes_peak", static_cast<double>(c.cache_bytes_peak),
          "bytes");
    m.Set("data.apply_delta_ms.p50", Percentile(replay.apply_delta_ms, 50), "ms");
    m.Set("data.apply_delta_ms.p99", Percentile(replay.apply_delta_ms, 99), "ms");
    m.Set("data.compactions", compactions, "count");
    m.Set("process.heap_after_window_mb", heap_mb, "MB");
    m.Set("process.rss_peak_mb", rss_mb, "MB");
    m.Set("client.send_lag_ms.p99", Percentile(send_lag_ms, 99), "ms");
    m.Set("client.latency_p50_ms", Percentile(read_ms, 50), "ms");
    m.Set("client.latency_p99_ms", Percentile(read_ms, 99), "ms");
    m.Set("client.write_latency_p50_ms", Percentile(write_ms, 50), "ms");
    m.Set("client.write_latency_p99_ms", Percentile(write_ms, 99), "ms");
    AddWireMetrics(merged, &m);
  }

  // Human-readable lines first; the JSON result is the last stdout line.
  std::printf("meta %s\n",
              MetaJson(args, w, options, initial.Get("E").size()).c_str());
  std::printf("requests attempted=%zu ok=%zu failed=%zu (final-read wrong=%zu, "
              "replay wrong=%zu) reads=%zu writes=%zu\n",
              attempted, ok, failed, final_wrong, replay_wrong, read_ms.size(),
              write_ms.size());
  std::printf("latency_p99_ms %.4f ms (%zu reads)\n", Percentile(read_ms, 99),
              read_ms.size());
  std::printf("failed_frac %.6f ratio\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  if (!write_ms.empty()) {
    std::printf("write_latency_p50_ms %.4f ms\nwrite_latency_p99_ms %.4f ms\n",
                Percentile(write_ms, 50), Percentile(write_ms, 99));
  }
  if (w.open_loop) {  // adhoc-cold sends every shape once: nothing to group
    for (const auto& [key, values] : by_shape) {
      std::printf("latency_by_shape %s/%s n=%zu p50=%.3f p99=%.3f ms\n",
                  shapes[key.first].c_str(), key.second.c_str(), values.size(),
                  Percentile(values, 50), Percentile(values, 99));
    }
  }
  for (const auto& [name, value] : m.items()) {
    std::printf("%s %.6g %s\n", name.c_str(), value.first, value.second.c_str());
  }
  if (args.trace) {
    for (const auto& [name, ms] : spans.SelfTimeMs()) {
      std::printf("self_ms %s %.3f\n", name.c_str(), ms);
    }
    if (!args.trace_out.empty()) {
      std::ofstream file(args.trace_out);
      file << "{\"meta\": " << MetaJson(args, w, options, initial.Get("E").size())
           << "}\n";
      for (const Span& s : spans.spans()) {
        file << "{\"id\": " << s.id << ", \"name\": " << Json(s.name)
             << ", \"parent\": " << Json(s.parent)
             << ", \"start_us\": " << Number(s.start_us)
             << ", \"dur_us\": " << Number(s.dur_us) << "}\n";
      }
    }
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : m.items()) {
    json << (first ? "" : ", ") << Json(name) << ": {\"value\": "
         << Number(value.first) << ", \"unit\": " << Json(value.second) << "}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
