#ifndef PERFBENCH_SOCKET_DRIVER_H_
#define PERFBENCH_SOCKET_DRIVER_H_

#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct DriveOptions {
  std::string socket_path;
  /// Open loop: every request is sent at its due time. Closed loop: the
  /// next request goes when the previous one has answered, until the
  /// window closes.
  bool open_loop = true;
  /// Persistent connections to open (at most nproc).
  int connections = 1;
  /// Reads use connections [first_read_connection, connections); a request
  /// that names its connection uses that one.
  int first_read_connection = 0;
  /// Length of the send window in seconds.
  double seconds = 0.0;
  /// How long to wait for outstanding responses after the window.
  double drain_seconds = 60.0;
  /// When set, QueueDepth() is sampled at every send (traced runs).
  const clftj::QueryService* service = nullptr;
  /// When set, client-side spans are recorded.
  SpanLog* spans = nullptr;
};

/// Drives `requests` through the server from this one thread over
/// `options.connections` persistent connections, multiplexed with poll:
/// requests are encoded with FormatRequest, responses framed by terminal
/// line and kept as raw bytes. Fills one Outcome per request (unsent ones stay
/// !sent). Returns false with *error set if a connection cannot be opened.
bool Drive(const std::vector<ScheduledRequest>& requests,
           const DriveOptions& options, std::vector<Outcome>* outcomes,
           std::string* error);

/// Parses every completed outcome's raw response with ParseResponse, records
/// its decode time (and a "client.decode" span when `spans` is set),
/// checksums eval tuples, and frees the raw bytes and tuples.
void ParseOutcomes(std::vector<Outcome>* outcomes, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_SOCKET_DRIVER_H_
