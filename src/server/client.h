#ifndef CLFTJ_SERVER_CLIENT_H_
#define CLFTJ_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "server/service.h"

namespace clftj {

/// Client retry/backoff policy. Backoff is exponential with
/// deterministic, seeded jitter (util/rng.h): attempt k sleeps a uniform
/// draw from [backoff/2, backoff] where backoff = min(initial *
/// multiplier^k, max), floored at the server's retry_after_ms hint when
/// one was returned. Only transport failures and retryable statuses
/// (IsRetryable: SHED, INTERNAL) are retried; terminal statuses
/// (TIMEOUT, OUT-OF-MEMORY, BAD-QUERY, CANCELLED) return immediately —
/// retrying a budget-driven failure burns server capacity to fail the
/// same way.
struct ClientOptions {
  /// Total tries, including the first (1 = no retries).
  int max_attempts = 4;
  std::uint64_t initial_backoff_ms = 20;
  double backoff_multiplier = 2.0;
  std::uint64_t max_backoff_ms = 2000;
  /// Per-request wall-clock cap on waiting for the response bytes.
  std::uint64_t request_timeout_ms = 30000;
  /// Seed for the jitter Rng: equal seeds replay equal backoff schedules,
  /// which keeps chaos tests deterministic.
  std::uint64_t jitter_seed = 1;
};

/// Outcome of one QueryClient call: the final response plus transport
/// metadata the CLI surfaces.
struct ClientResult {
  /// False only when every attempt failed at the transport layer
  /// (connect/send/recv); `transport_error` then explains.
  bool transport_ok = false;
  std::string transport_error;
  /// Attempts actually made (>= 1 unless max_attempts < 1).
  int attempts = 0;
  QueryResponse response;
};

/// Minimal blocking client for QueryServer's line protocol with timeout,
/// bounded retries and exponential backoff. Each attempt uses a fresh
/// connection: after a shed or a transport error the old connection's
/// state is suspect by definition.
class QueryClient {
 public:
  QueryClient(std::string socket_path, ClientOptions options);

  /// Runs one request to completion under the retry policy. Each attempt
  /// is RunBatch of that one request, over a fresh connection.
  ClientResult Run(const QueryRequest& request);

  /// Runs all requests pipelined over ONE connection: every request is
  /// sent before any response is read, so they land in the server's queue
  /// together and the service's batch scheduler can group them into one
  /// shared run. Responses come back in request order. The batch is a
  /// single attempt — no retry policy — because after a mid-batch
  /// transport failure the server may already have executed a prefix
  /// (replaying a delta would double-apply it). On transport failure every
  /// result carries transport_ok=false and the error; responses received
  /// before the failure are preserved.
  std::vector<ClientResult> RunBatch(
      const std::vector<QueryRequest>& requests);

 private:
  std::string socket_path_;
  ClientOptions options_;
};

}  // namespace clftj

#endif  // CLFTJ_SERVER_CLIENT_H_
