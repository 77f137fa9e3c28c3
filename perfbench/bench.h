#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared types of the serving benchmark (see perfbench/README.md): the
// seeded request schedule a workload generates, what the socket driver
// records per request, and the span/metric sinks the report is built from.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "data/database.h"
#include "server/service.h"

namespace perfbench {

using clftj::Database;
using clftj::QueryRequest;
using clftj::QueryResponse;

/// One request of a workload's schedule. The index is the request's id in
/// every span and outcome record.
struct ScheduledRequest {
  std::size_t index = 0;
  /// Open loop: when the request is due, in seconds after the window
  /// opens. Closed loop: unused (the next request goes when the last ends).
  double due_s = 0.0;
  /// Connection the request must use, or -1 for the least-loaded one.
  int connection = -1;
  QueryRequest request;
  /// Index into Workload::shapes for reads; -1 for a DELTA.
  int shape = -1;
  /// For a DELTA: its position in the delta stream (0-based).
  std::size_t delta_seq = 0;
};

/// A workload: the server configuration it needs plus its seeded inputs.
/// The server only ever sees `warmup` and `stream`.
struct Workload {
  std::string name;
  bool open_loop = true;
  /// Offered rate of the open-loop schedule (0 for closed loop).
  double rate_rps = 0.0;
  /// Persistent client connections (at most nproc).
  int connections = 1;
  /// Serve through QueryService(Database*, ...) and send DELTAs.
  bool read_write = false;
  /// Query text of each read shape, indexed by ScheduledRequest::shape.
  std::vector<std::string> shapes;
  /// Sent (and awaited) during set-up; not measured.
  std::vector<ScheduledRequest> warmup;
  /// The measured requests. Open loop: every request due inside the
  /// window. Closed loop: a stream longer than the window can consume.
  std::vector<ScheduledRequest> stream;
  /// DELTA batches in stream order (write-mix), applied by the bench to its
  /// own copy of the data for the correctness gate and the replay.
  std::vector<clftj::DeltaBatch> deltas;
  /// Number of stream entries the traced in-process replay runs.
  std::size_t replay_count = 0;
};

/// The dataset every workload runs on (the wiki-Vote profile's "E").
Database MakeBenchDatabase();

/// Builds workload `name` for `seed` and a window of `seconds`. Returns
/// false if the name is unknown.
bool MakeWorkload(const std::string& name, std::uint64_t seed, double seconds,
                  const Database& db, Workload* out);

/// What the socket driver saw for one request.
struct Outcome {
  bool sent = false;
  /// A terminal OK/ERR line arrived for the request.
  bool completed = false;
  /// The response lines parsed as a protocol response.
  bool parsed = false;
  int connection = -1;
  double due_s = 0.0;   // scheduled send time (open loop) or actual send
  double send_s = 0.0;  // actual send time
  double done_s = 0.0;  // terminal line received
  double decode_us = 0.0;
  std::size_t response_bytes = 0;
  /// DELTAs acknowledged before this request was sent, and DELTAs sent
  /// before its response arrived: the data states it may have observed.
  std::size_t deltas_acked_at_send = 0;
  std::size_t deltas_sent_at_done = 0;
  /// QueueDepth() sampled at send (traced runs only).
  std::size_t queue_depth_at_send = 0;
  QueryResponse response;  // tuples dropped after checksumming
  std::uint64_t tuple_checksum = 0;
  std::size_t tuple_count = 0;
  std::string raw;  // raw response lines, freed once parsed
};

/// Order-independent checksum of a tuple multiset.
std::uint64_t TupleHash(const clftj::Tuple& tuple);

/// One timed span. `id` is the request's schedule index; `parent` names
/// the enclosing span of the same request ("" for a root).
struct Span {
  std::size_t id = 0;
  std::string name;
  std::string parent;
  double start_us = 0.0;
  double dur_us = 0.0;
};

/// Spans stay in memory during the run and are written out at exit.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  void Add(std::size_t id, std::string name, std::string parent,
           Clock::time_point start, Clock::time_point end);
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span (duration minus its children's), summed per
  /// span name, in milliseconds.
  std::map<std::string, double> SelfTimeMs() const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Named metric values with units, in insertion order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Bytes the allocator has handed out and not taken back, in MiB
/// (mallinfo2: arena + mmapped chunks in use). Unlike RSS it does not
/// depend on which arena freed memory landed in. Slow (it walks every
/// arena's free lists under their locks): never call it inside a window.
double HeapInUseMb();

/// Linear-interpolated percentile (q in [0, 100]) of `values`; 0 if empty.
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
