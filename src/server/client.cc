#include "server/client.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "server/protocol.h"
#include "util/rng.h"
#include "util/timer.h"

namespace clftj {

QueryClient::QueryClient(std::string socket_path, ClientOptions options)
    : socket_path_(std::move(socket_path)), options_(options) {}

std::vector<ClientResult> QueryClient::RunBatch(
    const std::vector<QueryRequest>& requests) {
  std::vector<ClientResult> results(requests.size());
  if (requests.empty()) return results;
  const auto fail_from = [&results](std::size_t first,
                                    const std::string& why) {
    for (std::size_t i = first; i < results.size(); ++i) {
      results[i].transport_ok = false;
      results[i].transport_error = why;
      results[i].attempts = 1;
    }
  };

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    fail_from(0, "socket path too long");
    return results;
  }
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    fail_from(0, std::strerror(errno));
    return results;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    fail_from(0, "connect: " + why);
    return results;
  }

  // Send every request before reading anything: co-arrival is the point.
  std::string wire;
  for (const QueryRequest& request : requests) {
    wire += FormatRequest(request);
    wire += '\n';
  }
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n =
        ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      ::close(fd);
      fail_from(0, "send failed");
      return results;
    }
    sent += static_cast<std::size_t>(n);
  }

  // Read one terminal line group per request, in order; the whole batch
  // shares a single request_timeout_ms wall-clock budget.
  Timer timer;
  std::string buffer;
  char chunk[4096];
  std::vector<std::string> lines;
  std::size_t next = 0;
  while (next < requests.size()) {
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      lines.push_back(line);
      if (!IsTerminalResponseLine(lines.back())) continue;
      ClientResult& result = results[next];
      result.attempts = 1;
      std::string parse_error;
      if (ParseResponse(lines, &result.response, &parse_error)) {
        result.transport_ok = true;
      } else {
        result.transport_error = "bad response: " + parse_error;
      }
      lines.clear();
      ++next;
      continue;
    }
    const double elapsed_ms = timer.Seconds() * 1000.0;
    const double remaining_ms =
        static_cast<double>(options_.request_timeout_ms) - elapsed_ms;
    if (options_.request_timeout_ms > 0 && remaining_ms <= 0) {
      ::close(fd);
      fail_from(next, "response timed out");
      return results;
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int wait_ms = options_.request_timeout_ms == 0
                            ? -1
                            : std::max(1, static_cast<int>(remaining_ms));
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready == 0) {
      ::close(fd);
      fail_from(next, "response timed out");
      return results;
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      const std::string why = std::strerror(errno);
      ::close(fd);
      fail_from(next, why);
      return results;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      ::close(fd);
      fail_from(next, "connection closed before a terminal line");
      return results;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return results;
}

ClientResult QueryClient::Run(const QueryRequest& request) {
  ClientResult result;
  Rng rng(options_.jitter_seed);
  double backoff_ms = static_cast<double>(options_.initial_backoff_ms);
  for (int attempt = 0; attempt < std::max(1, options_.max_attempts);
       ++attempt) {
    if (attempt > 0) {
      // Exponential backoff with jitter in [backoff/2, backoff], floored
      // at the server's retry-after hint: spreads synchronized retries
      // (jitter) while honoring explicit server pressure (the floor).
      const std::uint64_t cap = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(backoff_ms));
      std::uint64_t sleep_ms = cap / 2 + rng.Uniform(cap / 2 + 1);
      if (result.transport_ok) {
        sleep_ms = std::max(sleep_ms, result.response.retry_after_ms);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      backoff_ms = std::min(backoff_ms * options_.backoff_multiplier,
                            static_cast<double>(options_.max_backoff_ms));
    }
    // Each attempt is a batch of one over a fresh connection.
    ClientResult tried = std::move(RunBatch({request}).front());
    ++result.attempts;
    result.transport_ok = tried.transport_ok;
    result.transport_error = std::move(tried.transport_error);
    if (!result.transport_ok) continue;  // transport failures always retry
    result.response = std::move(tried.response);
    if (!IsRetryable(result.response.status)) return result;
  }
  return result;
}

}  // namespace clftj
