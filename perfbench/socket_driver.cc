// Open- and closed-loop load generator over the line protocol. One thread
// sends on schedule and reads every connection with ppoll, so a slow
// server shows as growing latency (timed from the due time), never as a
// slower generator.

#include "socket_driver.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <deque>
#include <utility>

#include "server/protocol.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double>(t - t0).count();
}

int Connect(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::strerror(errno);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

struct Connection {
  int fd = -1;
  bool alive = true;
  std::string buffer;
  std::size_t scanned = 0;  // bytes of buffer already split into lines
  std::deque<std::size_t> outstanding;
  std::string raw;  // the response being read, newline-terminated lines
};

class Driver {
 public:
  Driver(const std::vector<ScheduledRequest>& requests,
         const DriveOptions& options, std::vector<Outcome>* outcomes)
      : requests_(requests), options_(options), outcomes_(*outcomes) {}

  ~Driver() {
    for (Connection& c : connections_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  bool Open(std::string* error) {
    connections_.resize(static_cast<std::size_t>(options_.connections));
    for (Connection& c : connections_) {
      c.fd = Connect(options_.socket_path, error);
      if (c.fd < 0) return false;
    }
    return true;
  }

  void Run() {
    outcomes_.assign(requests_.size(), Outcome());
    t0_ = Clock::now();
    std::size_t next = 0;
    std::vector<pollfd> fds(connections_.size());
    for (;;) {
      double now = Since(t0_, Clock::now());
      if (options_.open_loop) {
        while (next < requests_.size() && requests_[next].due_s <= now) {
          Send(next++);
          now = Since(t0_, Clock::now());
        }
      } else if (next < requests_.size() && outstanding_ == 0 &&
                 now < options_.seconds) {
        Send(next++);
      }
      const bool more = options_.open_loop
                            ? next < requests_.size()
                            : next < requests_.size() && now < options_.seconds;
      if (!more && outstanding_ == 0) return;
      if (now > options_.seconds + options_.drain_seconds) return;
      double wait_s = 0.05;
      if (options_.open_loop && next < requests_.size()) {
        wait_s = std::min(wait_s, std::max(0.0, requests_[next].due_s - now));
      }
      for (std::size_t c = 0; c < connections_.size(); ++c) {
        fds[c].fd = connections_[c].alive ? connections_[c].fd : -1;
        fds[c].events = POLLIN;
        fds[c].revents = 0;
      }
      timespec timeout{};
      timeout.tv_sec = static_cast<time_t>(wait_s);
      timeout.tv_nsec = static_cast<long>((wait_s - std::floor(wait_s)) * 1e9);
      const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
      if (ready <= 0) continue;
      for (std::size_t c = 0; c < connections_.size(); ++c) {
        if (fds[c].revents != 0) Receive(connections_[c]);
      }
    }
  }

 private:
  int PickConnection(const ScheduledRequest& r) {
    if (r.connection >= 0) return r.connection;
    // Least outstanding; ties rotate so idle connections share the load.
    const int first = options_.first_read_connection;
    const int n = options_.connections - first;
    int best = -1;
    for (int k = 0; k < n; ++k) {
      const int c = first + (rotate_ + k) % n;
      if (!connections_[c].alive) continue;
      if (best < 0 || connections_[c].outstanding.size() <
                          connections_[best].outstanding.size()) {
        best = c;
      }
    }
    rotate_ = (rotate_ + 1) % n;
    return best < 0 ? first : best;
  }

  void Send(std::size_t i) {
    const ScheduledRequest& r = requests_[i];
    Outcome& o = outcomes_[i];
    const Clock::time_point encode_start = Clock::now();
    std::string wire = clftj::FormatRequest(r.request);
    wire += '\n';
    const Clock::time_point send_at = Clock::now();
    o.connection = PickConnection(r);
    o.send_s = Since(t0_, send_at);
    o.due_s = options_.open_loop ? r.due_s : o.send_s;
    o.deltas_acked_at_send = deltas_acked_;
    if (options_.service != nullptr) {
      o.queue_depth_at_send = options_.service->QueueDepth();
    }
    if (options_.spans != nullptr) {
      options_.spans->Add(r.index, "client.encode", "client.request",
                          encode_start, send_at);
    }
    Connection& c = connections_[static_cast<std::size_t>(o.connection)];
    o.sent = true;
    if (r.request.kind == "delta") ++deltas_sent_;
    if (!c.alive || !SendAll(c.fd, wire)) {
      c.alive = false;
      return;  // never completes: counted as a transport failure
    }
    c.outstanding.push_back(i);
    ++outstanding_;
  }

  void Receive(Connection& c) {
    char chunk[65536];
    const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) return;
      // Peer closed: whatever is outstanding here never completes.
      c.alive = false;
      outstanding_ -= c.outstanding.size();
      c.outstanding.clear();
      return;
    }
    c.buffer.append(chunk, static_cast<std::size_t>(n));
    // Only frame here: a line is terminal iff it starts "OK" or "ERR", and
    // the raw bytes are kept for ParseOutcomes, after the window.
    std::size_t start = 0;
    for (std::size_t newline = c.buffer.find('\n', c.scanned);
         newline != std::string::npos;
         newline = c.buffer.find('\n', start)) {
      const char first = c.buffer[start];
      const bool terminal =
          (first == 'O' || first == 'E') &&
          clftj::IsTerminalResponseLine(
              c.buffer.substr(start, newline - start));
      c.raw.append(c.buffer, start, newline + 1 - start);
      start = newline + 1;
      if (terminal) Complete(c);
    }
    c.buffer.erase(0, start);
    c.scanned = c.buffer.size();
  }

  void Complete(Connection& c) {
    const Clock::time_point done = Clock::now();
    if (c.outstanding.empty()) {  // unsolicited response: protocol breach
      c.raw.clear();
      return;
    }
    const std::size_t i = c.outstanding.front();
    c.outstanding.pop_front();
    --outstanding_;
    Outcome& o = outcomes_[i];
    o.completed = true;
    o.done_s = Since(t0_, done);
    o.response_bytes = c.raw.size();
    o.raw = std::move(c.raw);
    c.raw.clear();
    if (requests_[i].request.kind == "delta") ++deltas_acked_;
    o.deltas_sent_at_done = deltas_sent_;
    if (options_.spans != nullptr) {
      const auto at = [&](double s) {
        return t0_ + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(s));
      };
      options_.spans->Add(i, "client.request", "", at(o.due_s), done);
      options_.spans->Add(i, "client.round_trip", "client.request",
                          at(o.send_s), done);
    }
  }

  const std::vector<ScheduledRequest>& requests_;
  const DriveOptions& options_;
  std::vector<Outcome>& outcomes_;
  std::vector<Connection> connections_;
  Clock::time_point t0_;
  std::size_t outstanding_ = 0;
  std::size_t deltas_sent_ = 0;
  std::size_t deltas_acked_ = 0;
  int rotate_ = 0;
};

}  // namespace

bool Drive(const std::vector<ScheduledRequest>& requests,
           const DriveOptions& options, std::vector<Outcome>* outcomes,
           std::string* error) {
  Driver driver(requests, options, outcomes);
  if (!driver.Open(error)) return false;
  driver.Run();
  return true;
}

void ParseOutcomes(std::vector<Outcome>* outcomes, SpanLog* spans) {
  for (std::size_t i = 0; i < outcomes->size(); ++i) {
    Outcome& o = (*outcomes)[i];
    if (!o.completed) continue;
    const Clock::time_point start = Clock::now();
    std::vector<std::string> lines;
    for (std::size_t at = 0; at < o.raw.size();) {
      std::size_t end = o.raw.find('\n', at);
      if (end == std::string::npos) end = o.raw.size();
      if (end > at && o.raw[end - 1] == '\r') {
        lines.push_back(o.raw.substr(at, end - 1 - at));
      } else if (end > at) {
        lines.push_back(o.raw.substr(at, end - at));
      }
      at = end + 1;
    }
    std::string error;
    o.parsed = clftj::ParseResponse(lines, &o.response, &error);
    const Clock::time_point end = Clock::now();
    o.decode_us = std::chrono::duration<double, std::micro>(end - start).count();
    if (spans != nullptr) spans->Add(i, "client.decode", "", start, end);
    o.tuple_count = o.response.tuples.size();
    for (const clftj::Tuple& t : o.response.tuples) {
      o.tuple_checksum += TupleHash(t);
    }
    o.response.tuples = {};
    o.raw = {};
  }
}

}  // namespace perfbench
