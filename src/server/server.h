#ifndef CLFTJ_SERVER_SERVER_H_
#define CLFTJ_SERVER_SERVER_H_

#include <atomic>
#include <cstddef>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "server/service.h"

namespace clftj {

/// Line-protocol frontend over QueryService on a local (AF_UNIX) stream
/// socket. One connection handler thread per client; requests on a
/// connection are served in order, each answered with TUPLE*/OK|ERR lines
/// (see server/protocol.h). The kRequestBytes fault site corrupts request
/// lines *after* framing and *before* parsing, so chaos runs exercise the
/// full malformed-input path: a corrupted request must come back as a
/// typed BAD-QUERY error, never crash the server or poison the stream.
/// A request line longer than kMaxRequestLineBytes gets one BAD-QUERY
/// error, after which the connection is closed. Handlers that have exited
/// are joined at the next accept, so a stream of short-lived connections
/// holds no more than a few finished threads.
class QueryServer {
 public:
  /// Longest request line accepted, newline excluded. Requests in this
  /// repository are far shorter (a client's DELTA is one argv string,
  /// which Linux caps at 128 KiB); the cap bounds what a peer that never
  /// sends a newline can make the server buffer.
  static constexpr std::size_t kMaxRequestLineBytes = std::size_t{16} << 20;

  /// `service` is borrowed and must outlive the server.
  explicit QueryServer(QueryService* service);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds and listens on `socket_path` (unlinking any stale socket) and
  /// starts the accept loop. Returns false with *error set on failure.
  /// AF_UNIX paths are limited to ~100 bytes — keep them short.
  bool Start(const std::string& socket_path, std::string* error);

  /// Stops accepting, closes live connections and joins all threads.
  /// Idempotent.
  void Stop();

  const std::string& socket_path() const { return socket_path_; }

 private:
  /// One accepted connection and its handler thread.
  struct Connection {
    int fd = -1;
    /// Set by the handler, under mu_, as it closes fd: from then on the
    /// thread only has to exit, and the accept loop may join it.
    bool done = false;
    std::thread thread;
  };

  void AcceptLoop();
  void ServeConnection(Connection* conn);

  QueryService* service_;
  std::string socket_path_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};

  std::mutex mu_;
  std::list<Connection> connections_;  // a list: handlers hold pointers
  std::thread accept_thread_;
};

}  // namespace clftj

#endif  // CLFTJ_SERVER_SERVER_H_
